"""Verifier behaviors: determinism, coverage accounting, certificate
soundness, expected verdicts on small universes, and the pinned
counterexamples behind the report-only properties.

The P7B pin shows why transfer to a coarser codomain scale fails when
only the DOMAIN scale is a filter: a set assigned solely to an
off-image point is vacuously satisfied on the finer side yet its
counterpart constrains a nonempty preimage on the coarser side.
"""

import collections
import json

import pytest

from scaletop.continuity import ContinuityMode, ScaledMap, check_continuity
from scaletop.finite_topology import discrete_space, sierpinski
from scaletop.scales import Scale, classify, finer, trivial_scale, validate_scale
from scaletop.verifier import (
    MUST_PASS,
    PROPERTY_IDS,
    SEARCH_IDS,
    SweepConfig,
    classical_continuous,
    classical_continuous_at,
    run_property,
    search_counterexample,
)
from scaletop import jsonio, verifier


SMALL = SweepConfig(max_points=2, scale_budget=8, sample_budget=400)


def fz(*sets):
    return frozenset(frozenset(s) for s in sets)


def mk_scale(space, tq, *fams) -> Scale:
    return Scale(space, fz(*tq), tuple(fz(*f) for f in fams))


def test_unknown_property_rejected():
    with pytest.raises(KeyError):
        run_property("NOPE", SMALL)
    with pytest.raises(KeyError):
        search_counterexample("NOPE", SMALL)


def test_all_ids_runnable_and_deterministic():
    for pid in PROPERTY_IDS:
        first = run_property(pid, SMALL)
        second = run_property(pid, SMALL)
        assert first.to_bytes() == second.to_bytes(), pid
        doc = first.to_json()
        assert doc["generated"] == doc["tested"] + doc["skipped"]


def test_must_pass_properties_confirm_on_small_universe():
    for pid in MUST_PASS:
        report = run_property(pid, SMALL)
        assert report.verdict == "CONFIRMED_ON_SWEEP", (pid, report.violations)


def test_p3_counterexample_found_at_three_points():
    # A single declared codomain set, assigned only to a point outside
    # the image, separates local from global continuity.
    report = run_property(
        "P3", SweepConfig(max_points=3, scale_budget=4, map_budget=9)
    )
    assert report.verdict == "COUNTEREXAMPLE_FOUND"
    violation = report.violations[0]
    f = jsonio.scaled_map_from_json(violation["map"])
    loc = check_continuity(f, ContinuityMode("strong", "local"))
    glob = check_continuity(f, ContinuityMode("strong", "global"))
    assert loc.holds != glob.holds  # replay: genuinely separating


def test_p7b_domain_filter_branch_pinned_counterexample():
    x_space = discrete_space(2)
    y_space = discrete_space(3)
    q = mk_scale(
        x_space,
        [(0,), (0, 1)],
        [(0,), (0, 1)],
        [(0, 1)],
    )
    r = mk_scale(y_space, [(2,)], [], [], [(2,)])
    v = mk_scale(y_space, [(1, 2)], [], [], [(1, 2)])
    assert validate_scale(q).ok and validate_scale(r).ok and validate_scale(v).ok
    assert classify(q).is_F  # the domain-side filter hypothesis
    assert finer(r, v)  # r refines v
    f = ScaledMap((0, 1), q, r)
    g = ScaledMap((0, 1), q, v)
    assert check_continuity(f, ContinuityMode("strong", "global")).holds
    assert not check_continuity(g, ContinuityMode("strong", "global")).holds


def test_searches_find_separations():
    cfg = SweepConfig(max_points=2, scale_budget=10)
    for claim in SEARCH_IDS:
        report = search_counterexample(claim, cfg)
        if claim == "P3":
            # needs a 3-point codomain; confirmed within this bound
            assert report.verdict == "CONFIRMED_ON_SWEEP"
            continue
        assert report.verdict == "COUNTEREXAMPLE_FOUND", claim
        assert len(report.violations) == 1  # the canonical-minimal one


def test_search_certificates_replay():
    cfg = SweepConfig(max_points=2, scale_budget=10)
    report = search_counterexample("PROBLEM4", cfg)
    doc = report.violations[0]
    f = jsonio.scaled_map_from_json(doc["map"])
    separated = False
    for x in f.domain.space.points:
        weak = check_continuity(
            f, ContinuityMode("weak", "at-point", at_point=x)
        ).holds
        strong = check_continuity(
            f, ContinuityMode("strong", "at-point", at_point=x)
        ).holds
        if weak and not strong:
            separated = True
    assert separated


def test_search_determinism():
    cfg = SweepConfig(max_points=2, scale_budget=10)
    a = search_counterexample("PROBLEM3", cfg)
    b = search_counterexample("PROBLEM3", cfg)
    assert a.to_bytes() == b.to_bytes()


def test_seed_changes_sampled_reports():
    a = run_property("T1", SweepConfig(max_points=2, sample_budget=200, seed=1))
    b = run_property("T1", SweepConfig(max_points=2, sample_budget=200, seed=2))
    assert a.verdict == b.verdict == "CONFIRMED_ON_SWEEP"
    # Different seeds explore different instances.
    assert (a.instances_tested, a.hypothesis_skipped) != (
        b.instances_tested,
        b.hypothesis_skipped,
    ) or a.to_bytes() != b.to_bytes()


def test_parallelism_does_not_change_output(monkeypatch):
    cfg = SweepConfig(max_points=2, scale_budget=6, sample_budget=120)
    monkeypatch.setenv("SCALETOP_THREADS", "1")
    seq = run_property("P4", cfg).to_bytes()
    monkeypatch.setenv("SCALETOP_THREADS", "2")
    par = run_property("P4", cfg).to_bytes()
    assert seq == par


def test_worker_count_is_clamped(monkeypatch):
    cfg = SweepConfig(max_points=2, scale_budget=6, sample_budget=120)
    serial = run_property("P4", cfg).to_bytes()
    tasks = verifier.PROPERTIES["P4"].tasks(cfg)
    assert len(tasks) > 3
    requested = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor and runs tasks in process."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(verifier, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("SCALETOP_THREADS", str(10**12))
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 3)
    assert run_property("P4", cfg).to_bytes() == serial
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 10**6)
    assert run_property("P4", cfg).to_bytes() == serial
    assert requested == [3, len(tasks)]
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: None)
    assert run_property("P4", cfg).to_bytes() == serial
    assert requested == [3, len(tasks)]


def test_sweeps_reach_kernels_through_module_globals(monkeypatch):
    """A tracer times the kernels by rebinding their names on the verifier
    module; a check that bound a kernel locally would hide its calls.
    Pair instances are compiled through ``scale_masks`` and decided
    through the shared walk ``first_failure`` (P4 through two subset
    tests of its own), and a ``ScaledMap`` is built through
    ``verifier.ScaledMap`` for each violation found and for nothing
    else.  T1/T2/P9 draw their scales as masks, decide through
    ``first_failure`` and build two maps, f and g, per violation."""
    calls = collections.Counter()

    def counting(name):
        real = getattr(verifier, name)

        def stand_in(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return stand_in

    for name in ("first_failure", "scale_masks", "ScaledMap"):
        monkeypatch.setattr(verifier, name, counting(name))
    monkeypatch.setenv("SCALETOP_THREADS", "1")  # workers would miss the patch
    cfg = SweepConfig(max_points=2, scale_budget=3)
    hooks = {
        "L3": ("scale_masks", "first_failure"),
        "P3": ("scale_masks", "first_failure"),
        "P4": ("scale_masks",),
        "P5": ("scale_masks", "first_failure"),
        "T3": ("scale_masks", "first_failure"),
        "C10": ("scale_masks", "first_failure"),
        "PROBLEM1": ("scale_masks", "first_failure"),
        "PROBLEM4": ("scale_masks", "first_failure"),
        "T1": ("first_failure",),
        "T2": ("first_failure",),
        "P9": ("first_failure",),
    }
    sampled = SweepConfig(max_points=3, sample_budget=400)
    configs = {
        "P3": SweepConfig(max_points=3, scale_budget=2, map_budget=4),  # refuted
        "T1": sampled,
        "T2": sampled,
        "P9": sampled,
    }
    maps_per_violation = {"T1": 2, "T2": 2, "P9": 2}
    for pid, names in hooks.items():
        calls.clear()
        if pid in PROPERTY_IDS:
            report = run_property(pid, configs.get(pid, cfg))
        else:
            report = search_counterexample(pid, cfg)
        for name in names:
            assert calls[name] > 0, (pid, name)
        found = len(report.violations) + report.truncated_violations
        assert calls["ScaledMap"] == maps_per_violation.get(pid, 1) * found, pid
        if pid == "P3":  # the refuted claim materializes its violations
            assert found > 0


def test_classical_oracle_matches_definitions():
    s = sierpinski()
    d = discrete_space(2)
    ident = (0, 1)
    assert classical_continuous(ident, d, d)
    assert not classical_continuous(ident, s, d)  # {1} pulls back non-open
    # Neighborhood continuity at a point can hold where openness fails.
    assert classical_continuous_at(ident, s, d, 0)
    assert not classical_continuous_at(ident, s, d, 1)


def test_report_json_shape():
    report = run_property("EX16", SMALL)
    doc = json.loads(report.to_bytes())
    for key in ("property", "config", "tested", "skipped", "verdict", "violations"):
        assert key in doc
    assert doc["property"] == "EX16"


@pytest.mark.parametrize(
    "field", ["scale_budget", "sample_budget", "max_violations", "map_budget"]
)
def test_negative_budgets_are_rejected(field):
    with pytest.raises(ValueError, match=field):
        SweepConfig(**{field: -1})
    SweepConfig(**{field: 0})  # an empty budget stays valid


def test_violation_cap_and_truncation_count():
    report = run_property(
        "P3",
        SweepConfig(max_points=3, scale_budget=4, map_budget=9, max_violations=2),
    )
    assert len(report.violations) <= 2
    assert report.truncated_violations >= 0
    assert report.verdict == "COUNTEREXAMPLE_FOUND"
