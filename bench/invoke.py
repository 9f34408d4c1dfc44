"""Child process of the benchmark: one filicoh CLI invocation.

    python3 bench/invoke.py TIMING_FILE -- ARGV...
    python3 bench/invoke.py TIMING_FILE --trace SPANS_FILE -- ARGV...
    python3 bench/invoke.py TIMING_FILE --ready-only

It imports ``filicoh.cli`` from the checkout's ``src/``, then runs
``filicoh.cli.main(ARGV)`` exactly as the ``filicoh`` entry point does,
with the report going to this process's stdout.  TIMING_FILE receives
the monotonic clock readings at which the CLI was ready to parse argv and
at which its report was written, so the parent can time set-up and the
command against its own spawn time (the monotonic clock is system-wide).
With --trace the public functions listed in ``spans.TARGETS`` are wrapped
first, and their spans are written to SPANS_FILE after the report.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from filicoh import cli  # noqa: E402

READY = time.monotonic()


def main(args) -> int:
    timing_path = args[0]
    if args[1:] == ["--ready-only"]:
        with open(timing_path, "w", encoding="utf-8") as fh:
            json.dump({"ready": READY}, fh)
        return 0
    spans_path = None
    rest = args[1:]
    if rest[:1] == ["--trace"]:
        spans_path, rest = rest[1], rest[2:]
    if rest[:1] != ["--"]:
        raise SystemExit("usage: invoke.py TIMING_FILE [--trace SPANS_FILE] -- ARGV...")
    argv = rest[1:]

    tracer = None
    if spans_path:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    rc = cli.main(argv)
    sys.stdout.flush()
    done = time.monotonic()
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump({"ready": READY, "done": done, "rc": rc}, fh)
    if tracer is not None:
        records = [
            [*s[:7], None if s[7] is None else int(s[7]), s[8]] for s in tracer.spans
        ]
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": records, "counts": tracer.counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
