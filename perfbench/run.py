"""moth-fed benchmark: one workload per process.

    python3 perfbench/run.py --workload fanout_memory --seed 1 --seconds 20 --trace 0

Prints an environment line, notes, and as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics; `--trace 1` reports the per-layer metrics of a traced run.
Exits non-zero, printing no result, when the program cannot be run.
"""
from __future__ import annotations

import argparse
import sys

from common import BenchError, require_source

WORKLOADS = ("fanout_memory", "fanout_file", "serve_mixed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        require_source()
        if args.workload == "serve_mixed":
            from serve_mixed import run
        else:
            from fanout import run
        run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
