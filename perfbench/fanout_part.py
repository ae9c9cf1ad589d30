"""Child process of an untraced fan-out run; prints its raw samples as JSON.

    python3 fanout_part.py WORKLOAD SEED PART SECONDS MIN_OPS STORE_ROOT

STORE_ROOT is the file store's directory, or "-" for the memory backend.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from common import BenchError, require_source


def main(argv: list[str]) -> int:
    workload, seed, index, seconds, min_ops, root = argv
    try:
        require_source()
        from fanout import part

        result = part(workload, int(seed), int(index), float(seconds), int(min_ops),
                      None if root == "-" else Path(root))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
