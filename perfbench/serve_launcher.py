"""Run `moth-fed serve` in this process, optionally traced.

    python3 serve_launcher.py --src ABS_SRC --trace 1 --spans FILE -- [moth-fed args] serve

With `--trace 1` the benchmark's wrappers are installed before the server
starts; spans stay in memory and are written to FILE when the server returns,
which it does on SIGTERM or SIGINT.
"""
from __future__ import annotations

import argparse
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True, help="absolute path of the src directory")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where to write spans when tracing")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    sys.path.insert(0, args.src)

    from mothfed import cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        missing = tracer.install()
        if missing:
            print("not traced (absent): " + ", ".join(missing), file=sys.stderr)
        tracer.enabled = True
    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None and args.spans:
            tracer.enabled = False
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
