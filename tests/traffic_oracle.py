"""Traffic oracle: what each committed scenario sends over the virtual network
at a fixed seed, and what every instance stores at its end.

A scenario's golden record is its VirtualNet log, one entry per line, and a
SHA-256 of each surviving instance's store snapshot. The snapshot leaves out
the RSA key pairs and each account's public key PEM, which are freshly
generated on every run; everything else in it is deterministic per seed.

Regenerate the files under tests/golden/ only for an intended change of
behaviour, and say in the commit what changed:

    PYTHONPATH=src python -m tests.traffic_oracle
"""
from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path
from typing import Any

from mothfed.simnet import ScenarioRunner, VirtualNet

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_SNAPSHOTS = GOLDEN_DIR / "snapshots.json"
SEED = 11


def scenario_paths() -> list[Path]:
    return sorted(SCENARIO_DIR.glob("*.json"))


def log_text(net: VirtualNet) -> str:
    """The net's log_json(), one entry per line."""
    entries = json.loads(net.log_json())
    lines = ",\n".join(json.dumps(entry, sort_keys=True) for entry in entries)
    return f"[\n{lines}\n]\n"


def snapshot_digest(snapshot: bytes) -> str:
    data = json.loads(snapshot)
    data.pop("keys")
    for account in data["accounts"].values():
        account.pop("public_key_pem")
    canonical = json.dumps(data, sort_keys=True, ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def record(path: Path, backend: str = "memory", root: Path | None = None) -> dict[str, Any]:
    """Run one scenario at SEED and return its log text and snapshot digests."""
    if backend == "file":
        net = VirtualNet(seed=SEED, backend="file", storage_root=str(root))
    else:
        net = VirtualNet(seed=SEED)
    try:
        ScenarioRunner(net).run_file(path)
        return {
            "log": log_text(net),
            "snapshots": {
                domain: snapshot_digest(net.instances[domain].store.snapshot())
                for domain in sorted(net.instances)
            },
        }
    finally:
        for node in net.instances.values():
            node.close()


def golden_log_path(path: Path) -> Path:
    return GOLDEN_DIR / f"{path.stem}.log.json"


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for path in scenario_paths():
            memory = record(path)
            disk = record(path, backend="file", root=Path(tmp) / path.stem)
            if disk != memory:
                raise SystemExit(f"{path.name}: the file backend differs from memory")
            golden_log_path(path).write_text(memory["log"], encoding="utf-8")
            digests[path.stem] = memory["snapshots"]
    text = json.dumps(digests, indent=2, sort_keys=True) + "\n"
    GOLDEN_SNAPSHOTS.write_text(text, encoding="utf-8")
    print(f"wrote {len(digests)} scenarios to {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
