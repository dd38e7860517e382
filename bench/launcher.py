"""One CLI request in its own process, equivalent to ``python -m sostransfer``.

Usage: ``python3 launcher.py VERB ARGS...`` with ``src`` on ``PYTHONPATH``.
Runs ``sostransfer.cli.run(argv)`` and exits with its code.  After the
command's own output it writes one JSON line to stderr: the monotonic times
at which the process started and the first request could start, the import
time, the peak resident set, and the trace when ``BENCH_TRACE=1``.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import sostransfer.cli  # noqa: E402

T_READY = time.monotonic()


def main() -> int:
    tracer = None
    if os.environ.get("BENCH_TRACE") == "1":
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    code = sostransfer.cli.run(sys.argv[1:])
    sys.stdout.flush()
    from peakrss import peak_rss_kb

    record = {"start": T_START, "ready": T_READY, "import_s": T_READY - T_START, "peak_rss_kb": peak_rss_kb(),
              "trace": tracer.dump() if tracer else None}
    print(json.dumps(record, separators=(",", ":")), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
