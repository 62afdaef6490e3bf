"""Machine-speed calibration.

The machine this benchmark was built on runs the same Python code up to
about 2x slower for minutes at a time (measured: in a fixed, deterministic
sequence of cold deformations the same operation took 9-10 ms for about
100 s and 16-17.6 ms for the next 80 s, with CPU time equal to wall time,
so the process was not preempted; the whole core ran slower).  No estimator inside one run can
remove a slowdown that lasts longer than the run, so each timing is
rescaled by the speed of the machine at that moment.

``kernel()`` is a fixed piece of exact arithmetic on Fractions, tuples and
dicts, the kind of work sigzero does, that calls no sigzero code, so no
change to the program can move it.  It runs with the garbage collector off,
so a program that keeps a larger heap cannot make it slower either.  A
timing t taken next to a kernel time c is reported as t * CAL_REF_NS / c:
the time it would have taken on a machine where the kernel takes
CAL_REF_NS, which is what it takes on the build machine in its fast phase.
"""

import gc
import time
from fractions import Fraction

CAL_REF_NS = 900_000


def kernel():
    poly = [Fraction(1)]
    table = {}
    for i in range(32):
        x = Fraction(i % 7 - 3, i % 5 + 1)
        poly = [a + x * b for a, b in zip(poly + [Fraction(0)], [Fraction(0)] + poly)][:6]
        table[(i % 9, i % 4)] = tuple(c.numerator % 101 for c in poly)
    return sorted(table.items())


def calibrate() -> int:
    """Nanoseconds one kernel() call takes now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        kernel()
        return time.perf_counter_ns() - t0
    finally:
        if was_enabled:
            gc.enable()
