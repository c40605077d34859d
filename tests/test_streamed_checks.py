"""Streamed probes and local weak decisions in the interval checkers.

* The probes the checkers take one at a time are the lists they used to
  build whole: the global family ``[*probe_family, *generated]`` without
  repeats, and ``point_probes`` at the image of every default probe
  point, over the seeded benchmark pools.  The digests were taken from
  those eager lists before the probes were streamed.
* A weak at-point check that holds never pulls a probe back through the
  whole map; a failing one does so once, for its certificate.
* A failing check stops taking probes at the first one that fails.
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from scaletop import jsonio
from scaletop.fixtures import load_fixture
from scaletop.continuity import ContinuityMode
from scaletop.exactnum import ExactNumber
from scaletop.interval_continuity import (
    IntervalScaledMap,
    _global_probes,
    codomain_critical_coords,
    default_probe_points,
    iw_check_continuity,
    replay_interval_certificate,
)
from scaletop.interval_scales import (
    BallSupersetScale,
    TrivialIntervalScale,
    full_line_carrier,
)
from scaletop.intervals import Interval, SheetPoint, SheetSet, _first_occurrences
from scaletop.pwmaps import AffinePiece, PiecewiseAffineMap

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import intervalgen  # noqa: E402


def num(x) -> ExactNumber:
    return ExactNumber(Fraction(x))


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
            for probe in m.codomain_scale.point_probes(
                SheetPoint(sheet, x), critical=criticals
            ):
                out[probe] = None
    return list(out)


# seed -> (global probe count, digest, point probe count, digest) of the
# eager lists over generate_maps(seed, 60)
EAGER_DIGESTS = {
    0: (4780, "4dcf8afb5b4d0f014e4bef131be540ed65cc98afe4e731c8a33b59516e31107b",
        4539, "5cdd5331223e7c82a070661a2a1a478c5e6cf2f775a464d57d1ae20631943a7c"),
    1: (5074, "cc39de76f83b5536351fcdfc86b2e667f0fe602cc5367f7e15d2eff3d91c2a54",
        4730, "5345bc397f5a338bf677dede6aa48373aa68c03942dad1260e9360e1d24f74a0"),
    2: (4921, "0bd5aebe5c65cac2dd30272cbcbe48791ccf0b00f0f7fa424b325bf22330355a",
        4599, "c58febd901e6c634fa52d7be6fff5bbc1991e4cfbf05bcbd25f36605e98e208d"),
}


def _feed(h, probes: list[SheetSet]) -> None:
    h.update(json.dumps([jsonio.sheetset_to_json(s) for s in probes]).encode())


@pytest.mark.parametrize("seed", sorted(EAGER_DIGESTS))
def test_streamed_probes_are_the_eager_lists(seed):
    h_global, h_point = hashlib.sha256(), hashlib.sha256()
    n_global = n_point = 0
    for g in intervalgen.generate_maps(seed, 60):
        m = g.scaled
        streamed = list(_global_probes(m))
        eager = list(dict.fromkeys([*m.probe_family, *ref_generated_global_probes(m)]))
        assert streamed == eager
        _feed(h_global, streamed)
        n_global += len(streamed)
        criticals = codomain_critical_coords(m)
        for p in default_probe_points(m):
            y = m.pam.eval(p)
            probes = m.codomain_scale.point_probes(y, critical=criticals)
            assert list(m.codomain_scale.iter_point_probes(y, criticals)) == probes
            taken = list(_first_occurrences(m.codomain_scale.iter_point_probes(y, criticals)))
            assert taken == list(dict.fromkeys(probes))
            _feed(h_point, probes)
            n_point += len(probes)
    assert (n_global, h_global.hexdigest(), n_point, h_point.hexdigest()) == EAGER_DIGESTS[seed]


@pytest.mark.parametrize("name", ["ex12", "ex13", "ex15", "ex17-f", "ex17-ff"])
def test_declared_probes_come_first_in_the_streamed_family(name):
    m = load_fixture(name)
    streamed = list(_global_probes(m))
    assert streamed == list(dict.fromkeys([*m.probe_family, *ref_generated_global_probes(m)]))
    assert streamed[: len(set(m.probe_family))] == list(dict.fromkeys(m.probe_family))


# -- how often the whole preimage is computed ----------------------------------------


def step_map(high: Fraction) -> PiecewiseAffineMap:
    """0 on (-inf, 0], ``high`` on (0, inf)."""
    line = full_line_carrier()
    return PiecewiseAffineMap(line, line, (
        AffinePiece(0, Interval(None, num(0), False, True), 0, Fraction(0), Fraction(0)),
        AffinePiece(0, Interval(num(0), None, False, False), 0, Fraction(0), high),
    ))


def bent_map() -> PiecewiseAffineMap:
    """x/2 + 1 on (-inf, 2], x on (2, inf): continuous, with a bend at 2."""
    line = full_line_carrier()
    return PiecewiseAffineMap(line, line, (
        AffinePiece(0, Interval(None, num(2), False, True), 0, Fraction(1, 2), Fraction(1)),
        AffinePiece(0, Interval(num(2), None, False, False), 0, Fraction(1), Fraction(0)),
    ))


@pytest.fixture
def whole_preimages(monkeypatch):
    """Counts the calls that pull a set back through the whole map."""
    calls = []
    for name in ("preimage", "_preimage"):
        original = getattr(PiecewiseAffineMap, name)

        def counted(self, s, _original=original, _name=name):
            calls.append(_name)
            return _original(self, s)

        monkeypatch.setattr(PiecewiseAffineMap, name, counted)
    return calls


def test_holding_weak_at_point_checks_pull_back_no_whole_preimage(whole_preimages):
    line = full_line_carrier()
    m = IntervalScaledMap(bent_map(), TrivialIntervalScale(line), TrivialIntervalScale(line))
    for x in (num(-3), num(0), num(2), num(5)):
        mode = ContinuityMode("weak", "at-point", at_point=SheetPoint(0, x))
        assert iw_check_continuity(m, mode).holds
    assert iw_check_continuity(m, ContinuityMode("weak", "local")).holds
    assert whole_preimages == []
    mode = ContinuityMode("strong", "at-point", at_point=SheetPoint(0, num(0)))
    assert iw_check_continuity(m, mode).holds
    assert whole_preimages and set(whole_preimages) == {"_preimage"}


def test_a_failing_weak_check_pulls_back_the_whole_preimage_once(whole_preimages):
    line = full_line_carrier()
    m = IntervalScaledMap(step_map(Fraction(1)), TrivialIntervalScale(line),
                          TrivialIntervalScale(line))
    mode = ContinuityMode("weak", "at-point", at_point=SheetPoint(0, num(0)))
    verdict = iw_check_continuity(m, mode)
    assert not verdict.holds
    assert whole_preimages == ["_preimage"]
    assert verdict.certificate["preimage"] == m.pam.preimage(
        verdict.certificate["target"].intersect(m.pam.codomain)
    )
    assert replay_interval_certificate(m, mode, verdict.certificate)


# -- a failing check stops taking probes ---------------------------------------------


@pytest.mark.parametrize("locus", ["global", "at-point"])
def test_a_failing_check_stops_at_its_first_failing_probe(monkeypatch, locus):
    line = full_line_carrier()
    scale = BallSupersetScale(line, a=num("1/4"))
    m = IntervalScaledMap(step_map(Fraction(1)), TrivialIntervalScale(line), scale)
    taken = []
    original = BallSupersetScale.iter_point_probes

    def counted(self, x, critical=()):
        for probe in original(self, x, critical):
            taken.append(probe)
            yield probe

    monkeypatch.setattr(BallSupersetScale, "iter_point_probes", counted)
    at = SheetPoint(0, num(0)) if locus == "at-point" else None
    verdict = iw_check_continuity(m, ContinuityMode("strong", locus, at_point=at))
    assert not verdict.holds
    n_taken = len(taken)
    target = verdict.certificate.get("target", verdict.certificate.get("r_open"))
    assert taken[-1] == target
    if locus == "global":
        everything = list(dict.fromkeys(ref_generated_global_probes(m)))
    else:
        everything = scale.point_probes(m.pam.eval(at), codomain_critical_coords(m))
    assert n_taken < len(everything)
