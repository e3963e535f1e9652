"""Reference kernels that measure how fast the host runs right now.

The benchmark's host shares its cores with other tenants.  Their load slowed
interpreter-bound work by up to 2x, for seconds to minutes at a time, on the
2-CPU x86 container where this benchmark was built, so raw wall times of runs
made minutes apart disagreed by more than any useful bound.  Just before and
just after such a call the runner times a fixed kernel whose bottleneck
matches the call's, and scales the call's latency by nominal / measured
kernel time.  The kernels and their inputs never change, so a change to the
program moves the scaled latency and leaves the kernel alone.  Raw times are
kept in the run record.

Calls bound by memory traffic and BLAS (dense D* assembly, LU, GMRES) are
not scaled: their raw times varied less from run to run than any kernel
that was tried as their reference.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel time on that container when no other load slowed it, so scaled
#: times read as seconds on a quiet host of that kind.
NOMINAL_S = {"small_arrays": 4.0e-3, "interpreter": 4.5e-3}


class Reference:
    """Two kernels; each call kind names the one that matches what bounds it.

    ``small_arrays``: numpy calls on 25-element arrays, like the Legendre
    recurrences that dominate the sweep.
    ``interpreter``: a Python loop plus half as many small-array calls, like
    mixed sphere work and the mesh parser.
    """

    nominal = NOMINAL_S

    def __init__(self):
        self._small = np.random.default_rng(0).random(25)
        self._kernels = {"small_arrays": self._small_arrays, "interpreter": self._interpreter}

    def _small_arrays(self, calls: int = 3000):
        a = self._small
        for _ in range(calls):
            np.sqrt(a * a + a)

    def _interpreter(self):
        total = 0.0
        for k in range(40000):
            total += k * 0.5
        self._small_arrays(1500)

    def time(self, kind: str) -> float:
        """Seconds the kernel of that kind takes now."""
        start = time.perf_counter()
        self._kernels[kind]()
        return time.perf_counter() - start
