"""Run one ``qphase4`` command as ``python -m qphase4.cli`` would, with spans.

Usage: python perfbench/cli_probe.py <qphase4 arguments...>

The command's stdout and exit code are passed through unchanged.  The last
line on stderr is ``PERFBENCH <json>`` with the in-process time, the import
time of qphase4.cli, the spans of the call and the cache counts; the caller
subtracts the in-process time from the process wall time to get the
interpreter's own start-up and shut-down.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402

if __name__ == "__main__":
    before = time.perf_counter()
    from qphase4 import cli

    import_s = time.perf_counter() - before
    caches = spans.cache_counts()
    tracer = spans.Tracer().install()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    report = {
        "in_process_s": time.perf_counter() - START,
        "import_s": import_s,
        "spans": tracer.stats,
        "caches": spans.cache_delta(caches, spans.cache_counts()),
    }
    print("PERFBENCH " + json.dumps(report), file=sys.stderr)
    sys.exit(code)
