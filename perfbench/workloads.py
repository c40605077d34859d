"""The benchmark's three workloads: set-up, one measured round, and the
outcome checks that every round must pass.

Every call into ``scaletop`` goes through a module attribute
(``verifier.run_property``, ``interval_continuity.iw_check_continuity``,
...) so that a traced run can rebind those names and see the calls.

A round is made of named parts (a property run, one generated map, the
fixture replay, ...).  It returns per part the verdicts computed and the
time spent inside library calls ("job time"), per-call check latencies,
an outcome digest per part, and the outcome checks it made.  Parts keep
the same names from round to round, so a run can take each part's median
over its rounds.  Checking work
(certificate replays, digests) runs outside the job time, inside
``pause()``: a traced run passes its recorder's pause so that checking
work is not counted as the workload's.  An untraced run also asks for
``calibrate``: the round then samples the host's speed (see
``calibrate.py``) between timed calls, at least once per round.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import random
import time
from dataclasses import dataclass, field

from scaletop import (
    continuity,
    finite_topology,
    interval_continuity,
    jsonio,
    pwmaps,
    scales,
    verifier,
)
from scaletop.continuity import ContinuityMode
from scaletop.verifier import SweepConfig

import calibrate
import intervalgen
# The package re-exports the function fixtures() under the module's name.
fixtures = importlib.import_module("scaletop.fixtures")

CONFIRMED = "CONFIRMED_ON_SWEEP"
REFUTED = "COUNTEREXAMPLE_FOUND"


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def report_digest(report) -> str:
    """Digest of a report's content without its ``config`` block, so a
    change to the config's fields alone does not read as a new answer."""
    doc = report.to_json()
    doc.pop("config")
    return digest(doc)


@dataclass
class RoundResult:
    parts: dict[str, list[int]] = field(default_factory=dict)  # name -> [verdicts, ns]
    latencies_ns: list[int] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    reports: list = field(default_factory=list)
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    calibrate: bool = False
    ref_ns: list[int] = field(default_factory=list)  # calibrate.sample_ns() readings
    _last_ref: float = float("-inf")

    def expect(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.failures.append(what)

    def add(self, part: str, verdicts: int, ns: int) -> None:
        row = self.parts.setdefault(part, [0, 0])
        row[0] += verdicts
        row[1] += ns
        if self.calibrate and time.perf_counter() - self._last_ref >= calibrate.EVERY_S:
            self.ref_ns.append(calibrate.sample_ns())
            self._last_ref = time.perf_counter()

    @property
    def job_ns(self) -> int:
        return sum(ns for _, ns in self.parts.values())


def run_reports(res: RoundResult, runs, pause=contextlib.nullcontext) -> None:
    """Run each property, time it, and check what holds for any seed."""
    for pid, cfg in runs:
        t0 = time.perf_counter_ns()
        report = verifier.run_property(pid, cfg)
        dt = time.perf_counter_ns() - t0
        res.add(pid, report.instances_tested + report.hypothesis_skipped, dt)
        with pause():
            _check_report(res, pid, report)


def _check_report(res: RoundResult, pid: str, report) -> None:
    doc = report.to_json()
    res.reports.append(report)
    res.digests[pid] = report_digest(report)
    res.expect(
        doc["generated"] == doc["tested"] + doc["skipped"],
        f"{pid}: generated != tested + skipped",
    )
    if pid in verifier.MUST_PASS:
        res.expect(doc["verdict"] == CONFIRMED, f"{pid}: {doc['verdict']}")
    if pid == "P3":
        _replay_p3(res, report)


def _replay_p3(res: RoundResult, report) -> None:
    """P3 is the refuted path: each kept violation must hold up when its
    failing mode is re-checked and the certificate replayed."""
    res.expect(report.verdict == REFUTED, f"P3: {report.verdict}")
    for doc in report.violations:
        f = jsonio.scaled_map_from_json(doc["map"])
        for locus, held in (("local", doc["local"]), ("global", doc["global_"])):
            mode = ContinuityMode("strong", locus)
            verdict = continuity.check_continuity(f, mode)
            ok = verdict.holds == held
            if not held:
                ok = ok and continuity.replay_certificate(f, mode, verdict.certificate)
            res.expect(ok, f"P3: violation does not replay ({locus})")


# -- single-check latency on the finite workloads --------------------------------
# The sweeps report a whole property at a time, so their latency samples
# come from single check_continuity calls, as `scaletop check` makes them,
# on instances drawn from the workload's own inputs.
CHECK_PROBES = 100
_PROBE_MODES = tuple(
    (strength, locus)
    for strength in ("strong", "weak")
    for locus in ("at-point", "local", "global")
)


def random_scale(space, rng: random.Random):
    """A valid scale: each point keeps a random subset of its nonempty
    open neighborhoods, and the declared family is what stays assigned."""
    fams = tuple(
        frozenset(o for o in space.opens_sorted() if o and x in o and rng.random() < 0.5)
        for x in space.points
    )
    return scales.Scale(space, frozenset().union(*fams), fams)


def check_probes(rng: random.Random, pick_scale, count: int = CHECK_PROBES) -> list:
    """``count`` (map, mode) pairs; ``pick_scale()`` supplies each side."""
    out = []
    for i in range(count):
        q, r = pick_scale(), pick_scale()
        table = tuple(rng.randrange(r.space.n_points) for _ in q.space.points)
        strength, locus = _PROBE_MODES[i % len(_PROBE_MODES)]
        at = rng.randrange(q.space.n_points) if locus == "at-point" else None
        out.append(
            (continuity.ScaledMap(table, q, r), ContinuityMode(strength, locus, at_point=at))
        )
    return out


def time_checks(res: RoundResult, probes: list, pause, key: str) -> None:
    lines = []
    for f, mode in probes:
        t0 = time.perf_counter_ns()
        verdict = continuity.check_continuity(f, mode)
        res.latencies_ns.append(time.perf_counter_ns() - t0)
        with pause():
            lines.append([verdict.holds, verdict.certificate])
            if not verdict.holds:
                res.expect(
                    continuity.replay_certificate(f, mode, verdict.certificate),
                    f"check probe: {mode.label()} certificate does not replay",
                )
    res.digests[key] = digest(lines)


def run_with_probes(res: RoundResult, runs: list, probes: list, pause) -> None:
    """Each property run followed by its share of the check probes, so
    the latency samples are spread over the round."""
    for k, run in enumerate(runs):
        run_reports(res, [run], pause)
        time_checks(res, probes[k :: len(runs)], pause, f"checks.{k}")


# -- sweep ---------------------------------------------------------------------
# Why: scaled-down acceptance criteria 05 (P4), 08 (P5) and 10 (T3, C10),
# which take most of the Tier-1 time, plus the refuted P3 path that builds,
# sorts and truncates violation documents through jsonio.  The same few
# hundred Scale objects are re-checked over and over, so per-call
# validation dominates: this is the workload a validate-once change acts
# on.  Every round runs the same configs, as a user re-running `verify`.
SWEEP_RUNS = (
    ("P4", dict(max_points=3, scale_budget=1)),
    ("P5", dict(max_points=3, scale_budget=2)),
    ("T3", dict(max_points=4, scale_budget=1, map_budget=4)),
    ("C10", dict(max_points=4, scale_budget=1, map_budget=8)),
    ("P3", dict(max_points=3, scale_budget=2, map_budget=4)),
)
SWEEP_SCALE_BUDGET = 2  # largest scale_budget above, enumerated at set-up
SWEEP_MAX_POINTS = 4


def sweep_scale_set(spaces: dict[int, list]) -> list:
    """The enumerated scales the sweep's P4, P5 and P3 runs draw from."""
    return [
        s
        for n in (1, 2, 3)
        for space in spaces[n]
        for s in scales.enumerate_scales(space, budget=SWEEP_SCALE_BUDGET)
    ]


class SweepWorkload:
    name = "sweep"

    def __init__(self, seed: int, pause=contextlib.nullcontext, calibrate=False) -> None:
        self.pause = pause
        self.calibrate = calibrate
        self.spaces = {
            n: list(finite_topology.enumerate_topologies(n))
            for n in range(1, SWEEP_MAX_POINTS + 1)
        }
        self.scale_set = sweep_scale_set(self.spaces)
        self.seed = seed
        self.runs = [(pid, SweepConfig(seed=seed, **kw)) for pid, kw in SWEEP_RUNS]

    def run_round(self, r: int) -> RoundResult:
        # Probes change per round but reuse the sweep's scale objects.
        rng = random.Random(f"sweep-probes:{self.seed}:{r}")
        probes = check_probes(rng, lambda: rng.choice(self.scale_set))
        res = RoundResult(calibrate=self.calibrate)
        run_with_probes(res, self.runs, probes, self.pause)
        return res


# -- composition ---------------------------------------------------------------
# Why: the same scales and continuity layers used differently.  T1, T2 and
# P9 build a fresh random Scale for almost every instance (repeat ratio
# near 1), so a per-scale memo or a precompiled form pays its build cost
# per instance here; a gain on `sweep` that costs this use shows up here.
# Each round draws new instances (its own sweep seed), so a cache keyed
# on repeated identical inputs cannot post a gain real inputs would not.
# Rounds are short (about 0.2 s per property run), so a run takes each
# part's median over many rounds: a shared host's speed can swing by a
# third within seconds, and a median over a few long rounds follows it.
COMPOSITION_PIDS = ("T1", "T2", "P9")
COMPOSITION_SAMPLES = 1000


class CompositionWorkload:
    name = "composition"

    def __init__(self, seed: int, pause=contextlib.nullcontext, calibrate=False) -> None:
        self.seed = seed
        self.pause = pause
        self.calibrate = calibrate
        self.spaces = {n: list(finite_topology.enumerate_topologies(n)) for n in (1, 2, 3)}

    def run_round(self, r: int) -> RoundResult:
        cfg = SweepConfig(
            max_points=3,
            sample_budget=COMPOSITION_SAMPLES,
            seed=self.seed * 1000 + r,
        )
        # Fresh scales for every probe, as the composition sweeps build them.
        rng = random.Random(f"composition-probes:{self.seed}:{r}")
        spaces = [s for n in (1, 2, 3) for s in self.spaces[n]]
        probes = check_probes(rng, lambda: random_scale(rng.choice(spaces), rng))
        res = RoundResult(calibrate=self.calibrate)
        run_with_probes(res, [(pid, cfg) for pid in COMPOSITION_PIDS], probes, self.pause)
        return res


# -- interval ------------------------------------------------------------------
# Why: the only workload that reaches exactnum, intervals, pwmaps,
# interval_scales and interval_continuity; most of its time is Fraction
# and ExactNumber arithmetic, and it bypasses every finite layer, so a
# finite-kernel change should leave it flat.  Inputs are generated from
# the seed (see intervalgen) and each round takes maps it has not seen,
# rather than repeating the five fixtures, so a cache keyed on identical
# checks cannot post a gain that real inputs would not see.  The fixture
# replay and a small BQOA_CLAIM sweep ride along in every round.
MAPS_PER_ROUND = len(intervalgen.SHAPES)
POOL_ROUNDS = 30  # a multiple of intervalgen.STRUCTURES; later rounds reuse the pool
BQOA_SAMPLES = 100


def interval_modes(m) -> list[ContinuityMode]:
    """Every strength x locus x trivial-domain mode, with the at-point
    modes taken at each default probe point."""
    modes = [
        ContinuityMode(strength, locus, trivial_domain=trivial)
        for strength in ("strong", "weak")
        for locus in ("local", "global")
        for trivial in (False, True)
    ]
    for p in interval_continuity.default_probe_points(m):
        for strength in ("strong", "weak"):
            for trivial in (False, True):
                modes.append(
                    ContinuityMode(strength, "at-point", trivial_domain=trivial, at_point=p)
                )
    return modes


def _gap_doc(points) -> list:
    return [
        [jsonio.sheet_point_to_json(p), jsonio.exact_to_json(g)] for p, g in points
    ]


class IntervalWorkload:
    name = "interval"

    def __init__(self, seed: int, pause=contextlib.nullcontext, calibrate=False) -> None:
        self.seed = seed
        self.pause = pause
        self.calibrate = calibrate
        self.pool = intervalgen.generate_maps(seed, MAPS_PER_ROUND * POOL_ROUNDS)
        self.modes = [interval_modes(g.scaled) for g in self.pool]

    def run_round(self, r: int) -> RoundResult:
        res = RoundResult(calibrate=self.calibrate)
        lines: list = []
        start = (r % POOL_ROUNDS) * MAPS_PER_ROUND
        structure = r % intervalgen.STRUCTURES
        for slot in range(MAPS_PER_ROUND):
            self._check_map(res, start + slot, f"map.{slot}.{structure}", lines)
        res.digests["checks"] = digest(lines)

        t0 = time.perf_counter_ns()
        reports = fixtures.fixtures()
        res.add("fixtures", len(reports), time.perf_counter_ns() - t0)
        for rep in reports:
            res.expect(rep.matches, f"fixture {rep.fixture}: {rep.computed}")
        res.digests["fixtures"] = digest([[rep.fixture, rep.computed] for rep in reports])

        cfg = SweepConfig(max_points=1, sample_budget=BQOA_SAMPLES, seed=self.seed * 1000 + r)
        run_reports(res, [("BQOA_CLAIM", cfg)], self.pause)
        return res

    def _check_map(self, res: RoundResult, i: int, part: str, lines: list) -> None:
        g = self.pool[i]
        m = g.scaled
        for mode in self.modes[i]:
            t0 = time.perf_counter_ns()
            verdict = interval_continuity.iw_check_continuity(m, mode)
            dt = time.perf_counter_ns() - t0
            res.add(part, 1, dt)
            res.latencies_ns.append(dt)
            with self.pause():
                cert = jsonio.certificate_to_json(verdict.certificate)
                lines.append([i, jsonio.mode_to_json(mode), verdict.holds, cert])
                if not verdict.holds:
                    res.expect(
                        interval_continuity.replay_interval_certificate(
                            m, mode, verdict.certificate
                        ),
                        f"map {i}: {mode.label()} certificate does not replay",
                    )
        if g.fuzzy_level is None:
            return
        f = m.pam
        t0 = time.perf_counter_ns()
        ff = pwmaps.compose(f, f)
        gaps_f = f.gaps()
        gaps_ff = ff.gaps()
        fuzzy = pwmaps.is_a_fuzzy_continuous(f, g.fuzzy_level)
        res.add(part, 3, time.perf_counter_ns() - t0)
        with self.pause():
            lines.append(
                [
                    i,
                    digest(jsonio.pam_to_json(ff)),
                    _gap_doc(gaps_f),
                    _gap_doc(gaps_ff),
                    fuzzy.holds,
                    _gap_doc(fuzzy.witnesses),
                ]
            )


WORKLOADS = {cls.name: cls for cls in (SweepWorkload, CompositionWorkload, IntervalWorkload)}
