"""Host-speed probe: timings at a reference CPU speed.

On a shared host the CPU speed one process gets changes from second to
second and drifts over minutes (see LAYERS.md, Noise), and a slow spell
stretches every operation in it, CPU time included. The benchmark runs
probe_ns(), a fixed piece of pure-Python work that calls nothing of
techsub, before the first operation and after each one, on the same CPU,
and reports each operation's times multiplied by scale(): REFERENCE_NS
over the mean of the two probes around it. A change in techsub moves the
operation's time and not the probe's, so it shows in full; a slow spell
moves both and cancels out.
"""

from __future__ import annotations

import time

# The probe's time at the reference speed: about its typical time on the
# 2-CPU Xeon host where the benchmark was written.
REFERENCE_NS = 2_500_000
LOOPS = 24_000


def probe_ns() -> int:
    """Wall time of a fixed loop of integer arithmetic, int-to-str
    conversion and dict inserts."""
    start = time.perf_counter_ns()
    total = 0
    table = {}
    for i in range(LOOPS):
        total += i * i
        if i % 4 == 0:
            table[str(i)] = total
    return time.perf_counter_ns() - start


def scale(before_ns: int, after_ns: int) -> float:
    """Factor that brings a time measured between two probes to the
    reference speed."""
    return 2.0 * REFERENCE_NS / (before_ns + after_ns)
