"""Fresh-interpreter entry for one techsub command.

    python3 perfbench/child.py SRC TRACE_OUT|- [techsub args...]

Runs ``techsub.cli.main`` from the SRC directory, as the installed
``techsub`` script would. With TRACE_OUT it wraps techsub's public
functions first and writes the trace summary there as JSON, together
with the time from the parent's spawn (BENCH_SPAWN_NS, a monotonic
clock reading) to the first line of this file. With no techsub args it
only imports (filling bytecode caches) and, untraced, prints
techsub.__file__.
"""

import time

_START_NS = time.monotonic_ns()

import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    src, trace_out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    import techsub
    import techsub.cli

    if trace_out == "-":
        if not argv:
            print(techsub.__file__)
            return 0
        return techsub.cli.main(argv)

    import json

    from tracer import Tracer

    tracer = Tracer()
    tracer.install(techsub)
    try:
        code = techsub.cli.main(argv) if argv else 0
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    summary["startup_ns"] = _START_NS - int(os.environ["BENCH_SPAWN_NS"])
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
