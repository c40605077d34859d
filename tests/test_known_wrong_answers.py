"""Reproducers of two known wrong interval verdicts (ROADMAP items 1a and
1c), each with a hand certificate.

The passing tests show that each certificate replays: it is a
counterexample to the check it names.  The ``xfail(strict=True)`` tests
assert that the checker refutes that check, which it does not yet: a mend
makes them pass, and then the markers come off.

* 1a, a false weak pass on a ball codomain: f = 0 on (-inf, 0] and 3/4
  on (0, inf), out of a trivial domain into ``BallSupersetScale`` with
  a = 1/2 (Q_a and Q_Oa).  V = (-5/8, 5/8) is assigned to f(0) = 0 and
  pulls back to (-inf, 0], which holds no neighborhood of 0; every probe
  ball the ladder takes swallows the value 3/4 across the jump.
* 1c, a false strong pass on a superset-closed codomain: f = x on
  (-inf, 5) and x + 10 on [5, inf), between trivial scales.  V = (-1, 1)
  u (14, 16) is assigned to f(0) = 0 and pulls back to (-1, 1) u [5, 6),
  which is not open; every probe is one interval around 0, which misses
  15.
"""

from fractions import Fraction

import pytest

from scaletop.continuity import ContinuityMode
from scaletop.exactnum import ExactNumber
from scaletop.interval_continuity import (
    IntervalScaledMap,
    iw_check_continuity,
    replay_interval_certificate,
)
from scaletop.interval_scales import BallSupersetScale, TrivialIntervalScale, full_line_carrier
from scaletop.intervals import Interval, LineSet, SheetPoint, SheetSet
from scaletop.pwmaps import AffinePiece, PiecewiseAffineMap


def num(x) -> ExactNumber:
    return ExactNumber(Fraction(x))


def union(*ends) -> SheetSet:
    return SheetSet((LineSet.of(*(Interval(num(lo), num(hi), False, False) for lo, hi in ends)),))


LINE = full_line_carrier()
ZERO = SheetPoint(0, num(0))


def step_map(closed_ball: bool) -> IntervalScaledMap:
    """1a: 0 on (-inf, 0] and 3/4 on (0, inf), trivial domain, codomain
    Q_a (``closed_ball``) or Q_Oa with a = 1/2."""
    pam = PiecewiseAffineMap(LINE, LINE, (
        AffinePiece(0, Interval(None, num(0), False, True), 0, Fraction(0), Fraction(0)),
        AffinePiece(0, Interval(num(0), None, False, False), 0, Fraction(0), Fraction(3, 4)),
    ))
    return IntervalScaledMap(pam, TrivialIntervalScale(LINE),
                             BallSupersetScale(LINE, a=num("1/2"), closed_ball=closed_ball))


def shift_map() -> IntervalScaledMap:
    """1c: x on (-inf, 5) and x + 10 on [5, inf), between trivial scales."""
    pam = PiecewiseAffineMap(LINE, LINE, (
        AffinePiece(0, Interval(None, num(5), False, False), 0, Fraction(1), Fraction(0)),
        AffinePiece(0, Interval(num(5), None, True, False), 0, Fraction(1), Fraction(10)),
    ))
    return IntervalScaledMap(pam, TrivialIntervalScale(LINE), TrivialIntervalScale(LINE))


CASES_1A = [
    pytest.param(step_map(closed_ball), mode, id=f"{'Q_a' if closed_ball else 'Q_Oa'}-{mode.locus}")
    for closed_ball in (True, False)
    for mode in (ContinuityMode("weak", "at-point", at_point=ZERO), ContinuityMode("weak", "local"))
]
V_1A = union(("-5/8", "5/8"))

CASES_1C = [pytest.param(shift_map(), ContinuityMode("strong", "at-point", at_point=ZERO), id="strong-at-0")]
V_1C = union((-1, 1), (14, 16))


def certificate(m: IntervalScaledMap, target: SheetSet) -> dict:
    return {"point": ZERO, "target": target, "preimage": m.pam.preimage(target)}


@pytest.mark.parametrize("m, mode", CASES_1A)
def test_1a_hand_certificate_replays(m, mode):
    cert = certificate(m, V_1A)
    assert cert["preimage"] == SheetSet((LineSet.of(Interval(None, num(0), False, True)),))
    assert replay_interval_certificate(m, mode, cert)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1a: every probe ball swallows the jump")
@pytest.mark.parametrize("m, mode", CASES_1A)
def test_1a_checker_refutes(m, mode):
    assert not iw_check_continuity(m, mode).holds


@pytest.mark.parametrize("m, mode", CASES_1C)
def test_1c_hand_certificate_replays(m, mode):
    cert = certificate(m, V_1C)
    assert not cert["preimage"].is_empty
    assert replay_interval_certificate(m, mode, cert)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1c: the probes are single intervals around f(0)")
@pytest.mark.parametrize("m, mode", CASES_1C)
def test_1c_checker_refutes(m, mode):
    assert not iw_check_continuity(m, mode).holds
