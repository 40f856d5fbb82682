"""Machine-speed probe that the benchmark's times are normalized by.

On a small shared host, identical work can take 1.5 times as long for a
second or two at a time and then speed up again.  Process CPU time tracks
wall time through this, so it is the processor slowing down, not this
process waiting.  A run's median then depends on how much of the run fell
in slow stretches.  To cancel that, the benchmark times a fixed reference
task (Python bytecode plus a small numpy contraction, benchmark code only)
right before and after each timed segment of work.  It scales the segment
by ``NOMINAL_S`` over the mean of those two probe times.  The reported
seconds are then seconds at the probe's nominal speed; raw wall times are
printed beside them.
"""

import time

import numpy as np

# the probe's time on the reference machine (2-vCPU Xeon, fast state), so
# normalized seconds stay close to wall seconds there
NOMINAL_S = 0.0036

_A = np.random.default_rng(0).normal(size=(200, 6, 6, 6))


def probe():
    """Best of two runs of the reference task, in seconds."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        acc = 0
        for i in range(8000):
            acc += (i * i) % 7
        np.einsum("nijx,njky->nikxy", _A, _A)
        best = min(best, time.perf_counter() - t0)
    return best


def normalize(seconds, before, after):
    """``seconds`` of work bracketed by probes ``before`` and ``after``."""
    return seconds * NOMINAL_S / (0.5 * (before + after))
