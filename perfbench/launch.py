"""The program of one benchmark job.

    python launch.py READY_FILE TRACE_FILE -- FLOERCAS_ARGS...

Imports floercas.cli, writes the CLOCK_MONOTONIC time at which it is ready
to READY_FILE (the parent measures set-up time from it), then runs the
command line exactly as the `floercas` script does. With a TRACE_FILE other
than "-" it first installs the tracer and afterwards writes the spans and
per-layer counts there; the program's stdout is the same either way.
"""

import sys
import time


def main() -> int:
    ready_file, trace_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py READY_FILE TRACE_FILE -- ARGS...")
    import floercas.cli

    with open(ready_file, "w", encoding="utf-8") as fh:
        fh.write(repr(time.monotonic()))
    if trace_file == "-":
        return floercas.cli.main(argv)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = floercas.cli.main(argv)
    sys.stdout.flush()
    tracer.write(trace_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
