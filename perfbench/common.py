"""Shared helpers: checkout paths, percentiles, environment record, result line."""
from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"
# Scratch space for stores, span files and child logs; inside the checkout
# and listed in .gitignore.
SCRATCH = CHECKOUT / ".perfbench_tmp"


class BenchError(Exception):
    """The benchmark cannot run here; no result line is printed."""


def require_source() -> None:
    """Put the checkout's src/ first on sys.path, or fail."""
    if not (SRC / "mothfed" / "__init__.py").is_file():
        raise BenchError(f"no mothfed package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pct(values: list[float], q: float) -> float:
    """q-th percentile (0-100) by linear interpolation between order statistics."""
    if not values:
        raise BenchError("no samples")
    if len(values) == 1:
        return values[0]
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def _commit() -> str:
    head = CHECKOUT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = CHECKOUT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            packed = CHECKOUT / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed: int, workload: str, **extra) -> dict:
    try:
        from importlib.metadata import version

        crypto = version("cryptography")
    except Exception:  # noqa: BLE001 - the record must not stop the run
        crypto = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "cryptography": crypto,
        "nproc": cpu_count(),
        "commit": _commit(),
        **extra,
    }


def emit(env: dict, correct: bool, attempted: int, failed: int,
         metrics: dict[str, tuple[float, str]], notes: list[str] = ()) -> None:
    """Print the environment and notes, then the result as the last line."""
    print(json.dumps({"env": env}, sort_keys=True))
    for note in notes:
        print(f"note: {note}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
