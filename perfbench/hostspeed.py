"""Host speed calibration: a fixed reference computation timed between jobs.

The benchmark host is a shared 2-core virtual machine whose speed changes
by up to 2x in phases of seconds to minutes (other tenants compete for the
cores; nothing inside the machine can pin or reserve them).  Raw job times
follow those phases.  The reference below is a small, fixed piece of work
of the kinds mongesym does: sparse polynomial products over dicts of
sorted monomial tuples with ``Fraction`` coefficients, printing, and
arithmetic on integers of about 2000 bits.  It uses the standard library
only, so no change to mongesym changes its cost.  Timed between jobs, it
tracks the host's speed: a job's time times ``REF_S`` over the reference's
median time around that job is the time the job would take on a host where
the reference takes ``REF_S``.

It tracks short jobs best.  Over windows of about a second of ``verify``
jobs, the ratio of job time to reference time varied a third to a half as
much as the raw job time; a long elimination (the degree-7 ``solve``)
slows in ways the reference follows only in part.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Reference seconds on a quiet host (2-core x86-64 VM, Python 3.11.7): the
# scale of every calibrated time, so those read as seconds on that host.
REF_S = 0.005
# At most this share of a run goes to the reference, and no job is further
# than HALO_S from samples on both sides of it.
SHARE = 0.1
HALO_S = 0.1
MAX_BURST = 8

_P = {((0, 1),): Fraction(1, 2), ((1, 2),): Fraction(-3, 5),
      ((0, 1), (2, 1)): Fraction(7, 3), (): Fraction(1)}
_Q = {((1, 1),): Fraction(2, 7), ((2, 2),): Fraction(5, 4),
      ((0, 2), (1, 1)): Fraction(-1, 6)}

# Integers of about 2000 bits, like the coefficients of a large elimination.
_A, _B = 3 ** 700, 7 ** 650


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            d = dict(ma)
            for i, e in mb:
                d[i] = d.get(i, 0) + e
            m = tuple(sorted(d.items()))
            c = out.get(m, 0) + ca * cb
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def reference() -> float:
    """Seconds for one fixed run of the reference computation."""
    enabled = gc.isenabled()
    gc.disable()  # a collection of the jobs' garbage is not the host's speed
    try:
        t0 = time.perf_counter()
        for _ in range(2):
            r = _poly_mul(_poly_mul(_P, _Q), _poly_mul(_Q, _P))
            " + ".join(f"{c}*{m}" for m, c in sorted(r.items()))
        a, b = _A, _B
        for k in range(150):
            a = (a * b + k) % (11 * b + 1)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Reference samples taken between jobs, and the calibrated job times."""

    def __init__(self):
        self.samples: list = []  # (perf_counter at the sample's middle, seconds)
        self._last = None

    def sample(self) -> None:
        """A burst of reference runs, about SHARE of the time since the last."""
        now = time.perf_counter()
        gap = MAX_BURST * REF_S / SHARE if self._last is None else now - self._last
        for _ in range(max(1, min(MAX_BURST, int(SHARE * gap / REF_S)))):
            t = time.perf_counter()
            seconds = reference()
            self.samples.append((t + seconds / 2, seconds))
        self._last = time.perf_counter()

    def due(self) -> bool:
        """True once the next burst can keep within SHARE of the time."""
        return self._last is None or time.perf_counter() - self._last >= REF_S / SHARE

    def factor(self, start: float, end: float) -> float:
        """REF_S over the median reference time within HALO_S of [start, end]."""
        near = [s for t, s in self.samples if start - HALO_S <= t <= end + HALO_S]
        return REF_S / statistics.median(near)
