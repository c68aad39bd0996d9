"""Run `rsys.cli.main` in a child process with the benchmark's tracer.

Usage (as the traced cli-batch run starts it): python3 launcher.py ARGV...
with RSYSBENCH_TRACE_OUT naming the span file to write and
RSYSBENCH_T_SPAWN holding the parent's perf_counter() at spawn time (on
Linux perf_counter reads CLOCK_MONOTONIC, which every process shares).
The time from spawn to the first line here is the `cli.interpreter` span.
"""

from time import perf_counter

T_START = perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[0:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main() -> int:
    from tracing import Tracer

    tracer = Tracer()
    tracer.add("cli.interpreter", float(os.environ["RSYSBENCH_T_SPAWN"]), T_START, -1)
    sid = tracer.open("cli.import")
    import rsys.cli

    tracer.close(sid)
    tracer.install()
    try:
        return rsys.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        with open(os.environ["RSYSBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
