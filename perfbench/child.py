"""Run one galefan CLI command in this fresh process, as a user would.

Usage: ``python3 child.py TRACE OP_ID -- galefan-args...`` with galefan on
``PYTHONPATH``.  Standard input and output belong to the CLI untouched.
At exit one report line goes to standard error, after the marker
``REPORT_MARKER``: the clock reading when ``main`` was entered (the
parent subtracts its spawn time to get start-up), this process's peak
RSS and, when TRACE is 1, the recorded spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time

REPORT_MARKER = "perfbench-report "


def main() -> int:
    trace, op = sys.argv[1] == "1", int(sys.argv[2])
    argv = sys.argv[4:]
    from galefan.cli import main as cli_main

    tracer = None
    if trace:
        import spans

        tracer = spans.install()
        tracer.op = op
    t_main = time.perf_counter()
    try:
        return cli_main(argv)
    finally:
        sys.stdout.flush()
        report = {
            "t_main": t_main,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "spans": tracer.spans if tracer else [],
        }
        sys.stderr.write("\n" + REPORT_MARKER + json.dumps(report) + "\n")
        sys.stderr.flush()


if __name__ == "__main__":
    sys.exit(main())
