"""Machine-speed calibration for a shared host.

The benchmark runs on a few cores of a host it shares with other tenants, and
their load moves the speed of identical work by 10-30% over tens of seconds,
as much as the bound a change is held to.  So between jobs the harness
times a short fixed *kernel* that does the same kind of arithmetic as the
workload but never calls ``bautin_lab``, and divides each job's time by

    slowdown = (median kernel time within WINDOW_S of the job) / REF_S

which estimates the job's seconds at a fixed reference speed.  A change to
the package cannot move the kernel, so it shows in the scaled time in full.

The kernel has to match the workload's arithmetic to track it: big-integer
``Fraction`` work slows differently from interpreter-bound mpmath work on
this kind of host, and a kernel of the wrong kind adds noise instead of
removing it (README.md, Calibration).
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

import mpmath as mp

#: A job's scale factor uses the kernel samples taken from WINDOW_S before it
#: starts to WINDOW_S after it ends (always at least the samples right
#: before and after it).
WINDOW_S = 2.0

#: Kernel time spent after each job, as a share of that job's time (at least
#: one kernel call).
SHARE = 0.04

_rng = random.Random(20260217)
_BIG = [Fraction(_rng.getrandbits(1500) | 1, _rng.getrandbits(1500) | 1) for _ in range(20)]


def kernel_bigint() -> Fraction:
    """Products and sums of 1500-bit rationals: the cost profile of exact
    series coefficients (gcd-dominated big-integer arithmetic)."""
    s = Fraction(0)
    for a, b in zip(_BIG, _BIG[1:]):
        s += a * b
    return s


def kernel_interp():
    """Small rationals and 60-digit mpmath floats: interpreter-bound work, the
    cost profile of the float carrier."""
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(i, i + 7) * Fraction(3, i + 1)
    with mp.workdps(60):
        x = mp.mpf(1)
        for i in range(1, 800):
            x = x * mp.mpf(i) / (i + 1) + 1
    return s, x


#: name -> (kernel, REF_S).  REF_S is roughly the kernel's median time on
#: the reference machine (a 2-vCPU sandbox, Python 3.11, pure-Python mpmath);
#: it only fixes the scale of calibrated seconds.
KERNELS = {
    "bigint": (kernel_bigint, 0.0065),
    "interp": (kernel_interp, 0.009),
}


class Calibrator:
    """Kernel samples of one run, as (midpoint, seconds) pairs."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.fn, self.ref_s = KERNELS[kernel]
        self.fn()  # warm-up, not recorded
        self.samples: list[tuple[float, float]] = []

    def sample(self, budget_s: float = 0.0) -> None:
        """Run the kernel at least once and until ``budget_s`` is spent."""
        spent = 0.0
        while True:
            t0 = perf_counter()
            self.fn()
            t1 = perf_counter()
            self.samples.append(((t0 + t1) / 2, t1 - t0))
            spent += t1 - t0
            if spent >= budget_s:
                return

    def after(self, seconds: float) -> None:
        """The sampling that follows a job of ``seconds``."""
        self.sample(SHARE * seconds)

    def slowdown(self, start: float, end: float) -> float:
        """Median kernel time around [start, end] over REF_S: above 1 when
        the machine ran slower than the reference."""
        mids = [mid for mid, _ in self.samples]
        near = {i for i, mid in enumerate(mids) if start - WINDOW_S <= mid <= end + WINDOW_S}
        before = [i for i, mid in enumerate(mids) if mid < start]
        after = [i for i, mid in enumerate(mids) if mid > end]
        near.update(before[-1:] + after[:1])
        return statistics.median(self.samples[i][1] for i in near) / self.ref_s
