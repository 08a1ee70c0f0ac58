"""Run `spechtstat.cli.main` with the benchmark's span tracer installed.

Usage: python launch.py SPANS_OUT OP_ID CLI_ARG...

Imports `spechtstat` from the current directory (the benchmark starts it
with the checkout's `src/` as working directory), installs the wrappers,
calls the CLI and writes the spans as JSON lines to SPANS_OUT.  The exit
code is the CLI's.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.getcwd())

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_out, op = sys.argv[1], int(sys.argv[2])
    tracer = Tracer()
    tracer.op = op
    with tracer.span("bench.install"):
        import spechtstat.cli

        tracer.install()
    code = spechtstat.cli.main(sys.argv[3:])
    start = time.perf_counter()
    text = tracer.jsonl()
    dump_s = time.perf_counter() - start
    with open(spans_out, "w") as fh:
        fh.write(text)
        fh.write(json.dumps({"dump_s": dump_s}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
