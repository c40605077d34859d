"""Streamed probes in the interval checkers.

* The probes the checkers take one at a time, in the order of their
  first occurrences, are the lists they used to build whole: the global
  family ``[*probe_family, *generated]`` without repeats, and
  ``iter_point_probes`` at the image of every default probe point, over
  the seeded benchmark pools.  The global digests were taken from those
  eager lists before the probes were streamed.  A repeated probe is
  decided as its first occurrence was, so only the first occurrences
  matter to a verdict.
* A failing weak at-point check carries the whole preimage in a
  certificate that replays.
* A failing check stops building probes at the first one that fails.
"""

import hashlib
import json
import sys
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest

from scaletop import jsonio
from scaletop.fixtures import load_fixture
from scaletop.continuity import ContinuityMode
from scaletop.exactnum import ExactNumber
from scaletop.interval_continuity import (
    IntervalScaledMap,
    _global_families,
    codomain_critical_coords,
    default_probe_points,
    iw_check_continuity,
    replay_interval_certificate,
)
from scaletop.interval_scales import (
    BallSupersetScale,
    Ladder,
    SymmetricIntervalScale,
    TrivialIntervalScale,
    full_line_carrier,
)
from scaletop.intervals import Interval, SheetPoint, SheetSet
from scaletop.pwmaps import AffinePiece, PiecewiseAffineMap

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import intervalgen  # noqa: E402


def num(x) -> ExactNumber:
    return ExactNumber(Fraction(x))


def global_probes(m: IntervalScaledMap):
    """The global probe families, one after another."""
    return chain.from_iterable(family for _, family in _global_families(m))


# -- the eager lists, as the checkers built them -------------------------------------


def ref_generated_global_probes(m: IntervalScaledMap) -> list[SheetSet]:
    criticals = codomain_critical_coords(m)
    out: dict[SheetSet, None] = {}
    for sheet, line in enumerate(m.pam.codomain.sheets):
        anchor_xs = [c for c in criticals if line.member(c)]
        for piece in line.pieces:
            if piece.lo is not None and piece.hi is not None and piece.lo < piece.hi:
                anchor_xs.append(piece.lo + (piece.hi - piece.lo) / 2)
        for x in anchor_xs:
            for probe in m.codomain_scale.iter_point_probes(
                SheetPoint(sheet, x), critical=criticals
            ):
                out[probe] = None
    return list(out)


# seed -> (global probe count, digest) of the eager global lists, and
# (point probe count, digest) of the first occurrences of each point's
# ``iter_point_probes``, over generate_maps(seed, 60).  The point digests
# were taken while the kinds still dropped repeats themselves.
EAGER_DIGESTS = {
    0: (4780, "4dcf8afb5b4d0f014e4bef131be540ed65cc98afe4e731c8a33b59516e31107b",
        4529, "a117d7175e7e4afc582fe76653f4a467486bef6eb44e87b54db3757f8b13480a"),
    1: (5074, "cc39de76f83b5536351fcdfc86b2e667f0fe602cc5367f7e15d2eff3d91c2a54",
        4716, "a573c0f66b14fd48a0ae499845c6c27b8080694378aed4a152d794184a602062"),
    2: (4921, "0bd5aebe5c65cac2dd30272cbcbe48791ccf0b00f0f7fa424b325bf22330355a",
        4589, "b2b97ecd2cd6db17374f31de407fa07167555bb71284264bbbc0e99cca24876e"),
}


def _feed(h, probes: list[SheetSet]) -> None:
    h.update(json.dumps([jsonio.sheetset_to_json(s) for s in probes]).encode())


@pytest.mark.parametrize("seed", sorted(EAGER_DIGESTS))
def test_streamed_probes_are_the_eager_lists(seed):
    h_global, h_point = hashlib.sha256(), hashlib.sha256()
    n_global = n_point = 0
    for g in intervalgen.generate_maps(seed, 60):
        m = g.scaled
        streamed = list(dict.fromkeys(global_probes(m)))
        eager = list(dict.fromkeys([*m.probe_family, *ref_generated_global_probes(m)]))
        assert streamed == eager
        _feed(h_global, streamed)
        n_global += len(streamed)
        criticals = codomain_critical_coords(m)
        for p in default_probe_points(m):
            y = m.pam.eval(p)
            taken = list(dict.fromkeys(m.codomain_scale.iter_point_probes(y, criticals)))
            _feed(h_point, taken)
            n_point += len(taken)
    assert (n_global, h_global.hexdigest(), n_point, h_point.hexdigest()) == EAGER_DIGESTS[seed]


@pytest.mark.parametrize("name", ["ex12", "ex13", "ex15", "ex17-f", "ex17-ff"])
def test_declared_probes_come_first_in_the_streamed_family(name):
    m = load_fixture(name)
    streamed = list(dict.fromkeys(global_probes(m)))
    assert streamed == list(dict.fromkeys([*m.probe_family, *ref_generated_global_probes(m)]))
    assert streamed[: len(set(m.probe_family))] == list(dict.fromkeys(m.probe_family))


# -- the certificate of a failing weak check ----------------------------------------


def step_map(high: Fraction) -> PiecewiseAffineMap:
    """0 on (-inf, 0], ``high`` on (0, inf)."""
    line = full_line_carrier()
    return PiecewiseAffineMap(line, line, (
        AffinePiece(0, Interval(None, num(0), False, True), 0, Fraction(0), Fraction(0)),
        AffinePiece(0, Interval(num(0), None, False, False), 0, Fraction(0), high),
    ))


def test_a_failing_weak_check_pulls_back_the_whole_preimage_once():
    line = full_line_carrier()
    m = IntervalScaledMap(step_map(Fraction(1)), TrivialIntervalScale(line),
                          TrivialIntervalScale(line))
    mode = ContinuityMode("weak", "at-point", at_point=SheetPoint(0, num(0)))
    verdict = iw_check_continuity(m, mode)
    assert not verdict.holds
    assert verdict.certificate["preimage"] == m.pam.preimage(
        verdict.certificate["target"].intersect(m.pam.codomain)
    )
    assert replay_interval_certificate(m, mode, verdict.certificate)


# -- a failing check stops taking probes ---------------------------------------------


@pytest.mark.parametrize("locus", ["global", "at-point"])
def test_a_failing_check_stops_at_its_first_failing_probe(monkeypatch, locus):
    """A strong check on a trivial domain reads the ladder of a Q_a and of a
    ``SymmetricIntervals`` codomain as radii and builds a probe
    (``Ladder.probe``) only at a radius where the jump fails: the first
    one built fails, and the check builds no more."""
    line = full_line_carrier()
    taken = []
    original = Ladder.probe

    def counted(self, r):
        probe = original(self, r)
        taken.append(probe)
        return probe

    monkeypatch.setattr(Ladder, "probe", counted)
    at = SheetPoint(0, num(0)) if locus == "at-point" else None
    for scale in (BallSupersetScale(line, a=num("1/4")),
                  SymmetricIntervalScale(line, lo_amb=num(-4), hi_amb=num(4))):
        m = IntervalScaledMap(step_map(Fraction(1)), TrivialIntervalScale(line), scale)
        taken.clear()
        verdict = iw_check_continuity(m, ContinuityMode("strong", locus, at_point=at))
        assert not verdict.holds
        first = list(dict.fromkeys(taken))
        target = verdict.certificate.get("target", verdict.certificate.get("r_open"))
        assert taken[-1] == target
        if locus == "global":
            everything = list(dict.fromkeys(ref_generated_global_probes(m)))
        else:
            probes = scale.iter_point_probes(m.pam.eval(at), codomain_critical_coords(m))
            everything = list(dict.fromkeys(probes))
        assert first == everything[: len(first)] == [target], scale.tag
        assert len(first) < len(everything)
