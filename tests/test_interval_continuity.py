"""Probe-based continuity verdicts for the interval-world fixtures and
certificate soundness for the failures they produce."""

from fractions import Fraction

import pytest

from scaletop.continuity import ContinuityMode
from scaletop.exactnum import SQRT2, ExactNumber
from scaletop.fixtures import (
    EX17_THRESHOLD,
    ex17_map,
    fixture_ex12,
    fixture_ex13,
    fixture_ex15,
    fixtures,
    load_fixture,
)
from scaletop.interval_continuity import (
    IntervalScaledMap,
    default_probe_points,
    iw_check_continuity,
    replay_interval_certificate,
)
from scaletop.interval_scales import SymmetricIntervalScale
from scaletop.intervals import LineSet, SheetPoint, SheetSet, interval
from scaletop.pwmaps import compose, is_a_fuzzy_continuous


def num(x):
    return ExactNumber(Fraction(x))


def test_ex12_verdicts():
    m = fixture_ex12()
    assert iw_check_continuity(m, ContinuityMode("strong", "local")).holds
    verdict = iw_check_continuity(m, ContinuityMode("strong", "global"))
    assert not verdict.holds
    cert = verdict.certificate
    assert cert is not None
    # The first declared probe (0,1) is the certificate; its preimage is
    # the punctured interval, open but centred at the missing point.
    assert cert["r_open"] == SheetSet((LineSet.of(interval(num(0), num(1))),))
    assert cert["preimage"].piece_count == 2
    assert replay_interval_certificate(m, verdict.mode, cert)


def test_ex12_at_point_holds_on_probes():
    m = fixture_ex12()
    for p in default_probe_points(m):
        assert iw_check_continuity(
            m, ContinuityMode("strong", "at-point", at_point=p)
        ).holds


def test_ex13_verdicts():
    m = fixture_ex13()
    assert iw_check_continuity(m, ContinuityMode("strong", "global")).holds
    for xv in (num(0), SQRT2):
        verdict = iw_check_continuity(
            m, ContinuityMode("strong", "at-point", at_point=SheetPoint(0, xv))
        )
        assert not verdict.holds
        assert replay_interval_certificate(m, verdict.mode, verdict.certificate)
    # Weak continuity also fails pointwise: the preimage equals the
    # neighborhood itself and contains witnesses of the matching class.
    assert not iw_check_continuity(m, ContinuityMode("strong", "local")).holds


def test_ex15_verdicts():
    m = fixture_ex15()
    assert iw_check_continuity(m, ContinuityMode("weak", "local")).holds
    assert iw_check_continuity(m, ContinuityMode("weak", "global")).holds
    for p in default_probe_points(m):
        assert iw_check_continuity(
            m, ContinuityMode("weak", "at-point", at_point=p)
        ).holds
        strong = iw_check_continuity(
            m, ContinuityMode("strong", "at-point", at_point=p)
        )
        assert not strong.holds
        assert replay_interval_certificate(m, strong.mode, strong.certificate)
    verdict = iw_check_continuity(m, ContinuityMode("strong", "global"))
    assert not verdict.holds
    assert verdict.certificate["preimage"].piece_count == 2


def test_ex17_verdicts():
    f = ex17_map()
    ff = compose(f, f)
    one = SheetPoint(0, num(1))
    assert f.gap(one) == num("1/11")
    assert ff.gap(one) == num("21/121")
    assert is_a_fuzzy_continuous(f, EX17_THRESHOLD).holds
    bad = is_a_fuzzy_continuous(ff, EX17_THRESHOLD)
    assert not bad.holds and bad.witnesses[0][0] == one


def test_fixture_reports_all_match():
    for report in fixtures():
        assert report.matches, (report.fixture, report.expected, report.computed)


def test_load_fixture_names():
    for name in ("ex12", "ex13", "ex15", "ex17-f", "ex17-ff"):
        m = load_fixture(name)
        assert isinstance(m, IntervalScaledMap)
    with pytest.raises(KeyError):
        load_fixture("ex99")


def test_probe_family_must_be_q_open():
    base = fixture_ex12()
    not_open = SheetSet((LineSet.of(interval(num(0), num(1), hi_closed=True)),))
    with pytest.raises(ValueError):
        IntervalScaledMap(
            pam=base.pam,
            domain_scale=base.domain_scale,
            codomain_scale=base.codomain_scale,
            probe_family=(not_open,),
        )


@pytest.mark.parametrize(
    "outside",
    [
        SheetSet((LineSet.of(interval(num("1/2"), num(2))),)),
        SheetSet((LineSet.of(interval(num(-1), num(2))),)),
        SheetSet((LineSet.of(interval(num(0), num("1/2"))), LineSet.empty())),
    ],
)
def test_probe_family_must_lie_in_the_codomain(outside):
    """The checkers pull declared probes back without cutting them to the
    codomain, so a declared set outside it is refused up front."""
    base = fixture_ex12()
    with pytest.raises(ValueError, match="not inside the codomain|different sheet counts"):
        IntervalScaledMap(
            pam=base.pam,
            domain_scale=base.domain_scale,
            codomain_scale=base.codomain_scale,
            probe_family=(outside,),
        )


def test_trivial_domain_modes():
    # With the trivial domain scale the punctured identity becomes
    # globally strong-continuous: preimages only need openness.
    m = fixture_ex12()
    assert iw_check_continuity(
        m, ContinuityMode("strong", "global", trivial_domain=True)
    ).holds
    assert iw_check_continuity(
        m, ContinuityMode("strong", "local", trivial_domain=True)
    ).holds


def test_domain_scale_carrier_mismatch_rejected():
    base = fixture_ex12()
    wrong = SymmetricIntervalScale(
        base.pam.codomain, lo_amb=num(0), hi_amb=num(1)
    )
    with pytest.raises(ValueError):
        IntervalScaledMap(
            pam=base.pam,
            domain_scale=wrong,
            codomain_scale=base.codomain_scale,
        )
