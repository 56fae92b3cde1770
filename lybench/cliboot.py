"""Run the ``lightyear`` CLI in this fresh process, timed, optionally traced.

Usage::

    python3 lybench/cliboot.py TIMING [--trace SPANS] -- ARGV...

Equivalent to the ``lightyear`` console script (``repro.cli.main(ARGV)``
and its exit code), plus two files: ``TIMING`` gets the time spent
importing ``repro.cli`` and inside ``main``; with ``--trace``, the
benchmark's tracer is installed before ``main`` runs and its spans and
counters go to ``SPANS``.  The same bootstrap serves untraced and traced
invocations, so the difference between them is the tracer alone.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    split = sys.argv.index("--")
    own, argv = sys.argv[1:split], sys.argv[split + 1 :]
    timing = Path(own[0])
    trace = Path(own[2]) if own[1:2] == ["--trace"] else None
    tracer = None
    if trace is not None:
        from tracer import Tracer

        tracer = Tracer(run_id=trace.stem)
        tracer.install()
    import repro.cli

    start = time.perf_counter()
    code = repro.cli.main(argv)
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    timing.write_text(json.dumps({"import_s": start - T0, "main_s": main_s, "exit": code}))
    if tracer is not None:
        from counters import program_counters

        tracer.dump(trace, program_counters(tracer))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
