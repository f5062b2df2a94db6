"""Reference seconds: timings that do not move with the machine's speed.

The benchmark runs on a few cores of a shared host whose speed drifts
by a quarter and more, in phases from seconds to minutes long (a fixed
loop ran 33 to 53 ms within one hour, with thread CPU time rising with
wall time, so the core itself is slower, not waiting).  Those phases
reach across whole runs, so a median over the units of one run cannot
remove them.

So the benchmark times two fixed reference kernels while it works: on
a timer signal every ``PERIOD_S`` during a unit.  A timed interval is reported in reference
seconds: its wall seconds, less the probes' own time inside it, times
the machine's speed near it.  That speed is the geometric mean, over the
two kernels, of the kernel's nominal time (``NOMINAL_S``) over its
median time within ``PAD_S`` of the interval.

- ``linalg``: a Cholesky factorisation of a fixed 420 x 420 matrix (the
  demo model's d, 1.4 MB).  The work between two probes evicts it from
  the caches, so it times the core together with its caches and memory.
- ``field``: a Poseidon-style round function over a 254-bit prime
  field: big-integer and interpreter work in a few cache lines.

In trials on the 2-vCPU machine, with the wall time of the same chunk of
work varying 1.8-fold over 150 s, the interquartile range over the
median of 4-to-14-second blocks of work fell from 0.23 to 0.03 for the
program's sponge hashing and from 0.21 to 0.06 for the client's request
(``fisher``, ``unlearn``, ``certify`` at the demo's size).  Either
kernel alone left one of them at twice that.  Both kernels are written
here rather than taken from the program, so no change to the program
can change them.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import math
import signal
import statistics
import time

import numpy as np

_A = np.random.default_rng(0).standard_normal((420, 420))
_SPD = _A @ _A.T + 420 * np.eye(420)
_P = 21888242871839275222246405745257275088548364400416034343698204186575808495617
_RC = [int.from_bytes(hashlib.sha256(b"perfbench/rc/%d" % j).digest(), "big") % _P
       for j in range(3)]
_MDS = [[int.from_bytes(hashlib.sha256(b"perfbench/mds/%d/%d" % (i, j)).digest(),
                        "big") % _P for j in range(3)] for i in range(3)]

# Kernel times that one reference second assumes: near the kernels'
# medians on the 2-vCPU Xeon VM the benchmark was written on (one BLAS
# thread), so that reference seconds read close to wall seconds there.
NOMINAL_S = {"linalg": 0.004, "field": 0.0006}
PERIOD_S = 0.25
PAD_S = 2.0
MIN_PROBES = 5


def linalg_kernel() -> float:
    return float(np.linalg.cholesky(_SPD)[-1, -1])


def field_kernel() -> int:
    a, b, c = 1, 2, 3
    (r0, r1, r2), (m0, m1, m2) = _RC, _MDS
    for _ in range(64):
        a = pow((a + r0) % _P, 5, _P)
        b = pow((b + r1) % _P, 5, _P)
        c = (c + r2) % _P
        a, b, c = (
            (a * m0[0] + b * m0[1] + c * m0[2]) % _P,
            (a * m1[0] + b * m1[1] + c * m1[2]) % _P,
            (a * m2[0] + b * m2[1] + c * m2[2]) % _P,
        )
    return a


KERNELS = {"linalg": linalg_kernel, "field": field_kernel}


class Meter:
    """Kernel probes over time, and the conversion to reference seconds."""

    def __init__(self):
        self.starts: list[float] = []  # probe start times, ascending
        self.spans: list[float] = []  # wall seconds of each probe
        self.costs = {name: [] for name in KERNELS}
        self._probing = False

    def probe(self) -> None:
        if self._probing:  # a timer signal inside an explicit probe
            return
        self._probing = True
        try:
            start = now = time.perf_counter()
            for name, kernel in KERNELS.items():
                kernel()
                now, before = time.perf_counter(), now
                self.costs[name].append(now - before)
            self.starts.append(start)
            self.spans.append(now - start)
        finally:
            self._probing = False

    @contextlib.contextmanager
    def sampling(self):
        """Probe every PERIOD_S while the block runs."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def wall(self, start: float, end: float) -> float:
        """Wall seconds of the interval [start, end], less the probes in it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return end - start - sum(self.spans[lo:hi])

    def seconds(self, start: float, end: float, pad: float = PAD_S) -> float:
        """Reference seconds of the interval [start, end], by the probes
        within ``pad`` seconds of it."""
        lo = bisect.bisect_left(self.starts, start - pad)
        hi = bisect.bisect_right(self.starts, end + pad)
        if hi - lo < MIN_PROBES:
            raise RuntimeError(f"{hi - lo} speed probes near an interval, "
                               f"need {MIN_PROBES}")
        speed = math.prod(NOMINAL_S[name] / statistics.median(costs[lo:hi])
                          for name, costs in self.costs.items())
        return self.wall(start, end) * speed ** (1 / len(self.costs))
