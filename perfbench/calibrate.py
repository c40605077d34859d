"""Reference work that measures how fast the host runs Python right now.

On a shared host the same code runs a third faster or slower from one
minute to the next, so raw rates from runs minutes apart differ by more
than any bound a regression gate can use.  The workloads take a sample
of ``reference()`` between their timed calls (never inside one), and
``run.py`` expresses job time in *reference seconds*: the time the host
needs, at that moment, for ``CALLS_PER_REF_S`` reference calls.  A
change to the program moves its reference-second figures as it moves
its wall-clock ones; a change in the host's speed moves both the job
and the reference, and cancels out.

The reference touches nothing of ``scaletop`` and runs with the cyclic
collector off, so the program's own heap cannot slow it down.  It mixes
the kinds of work the library does: small frozensets and their algebra,
dict and tuple traffic, attribute access, and ``Fraction`` arithmetic.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# About one second of reference work on the 2-core Xeon host the bounds
# were set on, so reference seconds read close to seconds there.
CALLS_PER_REF_S = 85
# Seconds between samples: a few samples per round, a few per cent of
# the run.
EVERY_S = 0.3


class _Point:
    __slots__ = ("x", "opens")

    def __init__(self, x: int, opens: tuple) -> None:
        self.x = x
        self.opens = opens


def reference() -> int:
    """A fixed amount of work; the result only keeps it from being idle."""
    return sum(_reference_pass() for _ in range(8))


def _reference_pass() -> int:
    universe = tuple(frozenset(j for j in range(5) if (i >> j) & 1) for i in range(32))
    points = [_Point(x, tuple(s for s in universe if x in s)) for x in range(5)]
    seen: dict = {}
    acc = 0
    for a in universe:
        for b in universe[::3]:
            u, m = a | b, a & b
            seen[u] = seen.get(u, 0) + 1
            if m <= a and (u, m) not in seen:
                acc += len(u) - len(m)
    for p in points:
        acc += sum(len(s) for s in p.opens if p.x in s)
    q = Fraction(0)
    for k in range(1, 120):
        q = (q + Fraction(k, k + 1)) * Fraction(2, 3)
        acc += q < 1
    return acc + len(seen)


def sample_ns() -> int:
    """Nanoseconds one ``reference()`` call takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        reference()
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()
