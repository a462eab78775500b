"""A probe of the machine's current speed, to take its drift out of times.

On a shared host the speed of the same pure-Python code drifts by up to
±25 % over seconds to minutes, whatever the program does.  Medians over
a run remove the fast part of that drift but not the slow part, so two
runs of the same code minutes apart can differ by more than a
regression the benchmark must catch.

``probe()`` times a fixed piece of arithmetic of the same kind as
qeuler's (products of polynomials with ``Fraction`` coefficients, and an
integer loop modulo p^M) and imports nothing from qeuler, so no change
to the program can move it.  ``run.py`` probes in its own process just
before and just after each child process and scales each time the
child measured by ``factor(probe)``, with the mean of the probes on
either side.

The probe is a control variate: it moves with the machine's speed and
not with the program.  Its time swings more than qeuler's do when the
machine slows (a 35 % slower probe came with a 23 % slower
``verify_all``), so the factor is ``(REFERENCE_S / probe) ** EXPONENT``
rather than the plain ratio, which would over-correct.  Because the
factor does not depend on the program, the ratio of two commits' times
is the same as the ratio of their scaled times on a steady machine;
the exponent only sets how much of the drift is taken out.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Median of probe() on the machine the README's reference figures come
# from (2 vCPUs, Python 3.11.7).  Only the scale of the reported times
# depends on it; it is fixed so that the parent and the change of a
# comparison share it.
REFERENCE_S = 0.3
# Chosen on that machine from 5-seed sets of runs of the four workloads
# rescaled with exponents 0.5 to 1.0: 0.6 to 0.7 gave the smallest
# spreads overall.  The slope of log(run time) on log(probe time) across
# runs ranged from 0.25 to 1.1 by workload and set.
EXPONENT = 0.65
CHUNKS = 5

_A = [Fraction(i + 1, i + 2) for i in range(20)]
_B = [Fraction(2 * i - 7, 3 * i + 1) for i in range(20)]
_MODULUS = 5**8


def _chunk() -> int:
    """One fixed unit of work; returns a value so nothing is optimised out."""
    acc = 0
    for _ in range(4):
        out = [Fraction(0)] * (len(_A) + len(_B) - 1)
        for i, x in enumerate(_A):
            for j, y in enumerate(_B):
                out[i + j] += x * y
        for k in range(1, 40_000):
            acc = (acc + k * k * 7 + out[k % len(out)].denominator) % _MODULUS
    return acc


def probe() -> float:
    """Time CHUNKS chunks; the median chunk time, times CHUNKS, in seconds.

    The median ignores a chunk in which the process was descheduled.
    Garbage collection is off while probing, so the size of the
    caller's heap does not enter the time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(CHUNKS):
            start = time.perf_counter()
            _chunk()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return CHUNKS * statistics.median(times)


def factor(probe_s: float) -> float:
    """Scale factor from a time measured to the reference speed."""
    return (REFERENCE_S / probe_s) ** EXPONENT
