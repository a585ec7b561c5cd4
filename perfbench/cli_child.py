"""`python -m qtext.cli` with the tracer installed, for traced cli passes.

Usage: cli_child.py <qtext cli arguments>.  The environment supplies
BENCH_TRACE_OUT (where to write spans and timings), BENCH_REQUEST (the
request id) and BENCH_SPAWN_T (the parent's monotonic clock at spawn).
"""

import time

ENTER = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    start = time.perf_counter()
    import qtext.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    tracer.request = int(os.environ["BENCH_REQUEST"])
    try:
        code = qtext.cli.main(sys.argv[1:])
    finally:
        tracer.request = None
        with open(os.environ["BENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters,
                       "start_s": ENTER - float(os.environ["BENCH_SPAWN_T"]),
                       "import_s": import_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
