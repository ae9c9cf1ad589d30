"""Regenerate the baseline rows the traced run covers, as a Markdown table.

    python3 perfbench/baseline.py --seed 1 --seconds 30

Runs each workload traced, each in its own process, and prints:
the share of delivery-queue time spent in `httpsig.sign_request`, the
per-call cost of each storage write on the file store against the memory
store, and the time `serve` takes to reopen its ~10^4-record file store.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WRITES = (
    "store_status", "insert_timeline_entry", "enqueue_task", "save_task",
    "next_sequence", "record_peer", "upsert_account",
)


def traced(workload: str, seed: int, seconds: float) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        sys.exit(f"{workload} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} failed its correctness check:\n{done.stdout}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def per_call_us(values: dict[str, float], fn: str) -> float:
    calls = values[f"storage.{fn}.calls"]
    return values[f"storage.{fn}.self_ms"] * 1000.0 / calls if calls else float("nan")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    memory = traced("fanout_memory", args.seed, args.seconds)
    file = traced("fanout_file", args.seed, args.seconds)
    serve = traced("serve_mixed", args.seed, args.seconds)

    print("| layer / path | measured |")
    print("| --- | --- |")
    for name, values in (("fanout_memory", memory), ("fanout_file", file)):
        sign = values["httpsig.sign_request.self_ms"] / 1000.0
        queue = values["federation.process_queue.busy_ms"] / 1000.0
        print(f"| {name}: `sign_request` self time / `process_queue` busy time | "
              f"{sign:.2f} s of {queue:.2f} s ({sign / queue:.0%}) |")
    for fn in WRITES:
        print(f"| `{fn}` self time per call, file / memory | "
              f"{per_call_us(file, fn):.0f} µs / {per_call_us(memory, fn):.1f} µs |")
    print("| `serve` store reopen (`open_store`), 10^4 timeline entries, "
          f"3,000 remote accounts | {serve['storage.open_s']:.2f} s |")
    print(f"| `serve` client latency outside `HttpApi.handle` (p50) | "
          f"{serve['cli.http_overhead_ms']:.1f} ms "
          f"({serve['cli.http_overhead_share']:.0%} of request p50) |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
