"""The traced run and the per-layer metrics it reports.

Order of a traced run, all in one process:

1. the layer micro-drives (``microdrives.py``), with nothing rebound;
2. the workload's set-up, traced;
3. round 0 twice with nothing rebound: a warm-up, then the base that
   ``trace.overhead_ratio`` divides by;
4. round 0 traced, then the layer tour, traced;
5. more untraced base rounds until ``--seconds`` have passed.

The layer tour runs every property the benchmark uses, plus L4 (none of
the workloads' properties calls ``classify``; L4's sweep does), at a tiny
fixed config, and the fixture replay.  Every traced run makes it, so every layer has a reading on
every workload: a layer the workload bypasses shows only the tour's
small constant share.  All span totals below cover step 2 and step 4.

Span-based figures come from ``spans.Recorder.layer_totals``: ``*_calls``
counts outermost spans, ``*_s`` sums their durations and ``*_self_s``
sums each span's duration minus its direct children's.  Counts are
deterministic for a given code and seed; times are not.
"""

from __future__ import annotations

import importlib
import statistics
import time

from scaletop import verifier
from scaletop.verifier import SweepConfig

import microdrives
import spans
from workloads import COMPOSITION_PIDS, SWEEP_RUNS, RoundResult, run_reports

# The package re-exports the function fixtures() under the module's name.
fixtures = importlib.import_module("scaletop.fixtures")

TOUR_RUNS = (
    ("P4", dict(max_points=2, scale_budget=2)),
    ("P5", dict(max_points=2, scale_budget=2)),
    ("T3", dict(max_points=2, scale_budget=2)),
    ("C10", dict(max_points=2, scale_budget=2)),
    ("P3", dict(max_points=3, scale_budget=2, map_budget=2)),
    ("L4", dict(max_points=2, scale_budget=4)),
    ("T1", dict(max_points=3, sample_budget=64)),
    ("T2", dict(max_points=3, sample_budget=64)),
    ("P9", dict(max_points=3, sample_budget=64)),
    ("BQOA_CLAIM", dict(max_points=1, sample_budget=100)),
)
RUN_PIDS = tuple(pid for pid, _ in SWEEP_RUNS) + COMPOSITION_PIDS + ("BQOA_CLAIM",)

# name -> (unit, span name, field) for the figures read off one span name
SPAN_METRICS = {
    "scales.validate_calls": ("count", "scales.validate", "calls"),
    "scales.validate_s": ("s", "scales.validate", "total_ns"),
    "continuity.check_calls": ("count", "continuity.check", "calls"),
    "continuity.check_s": ("s", "continuity.check", "total_ns"),
    "continuity.check_self_s": ("s", "continuity.check", "self_ns"),
    "continuity.closed_char_calls": ("count", "continuity.closed_char", "calls"),
    "continuity.closed_char_s": ("s", "continuity.closed_char", "total_ns"),
    "continuity.constancy_s": ("s", "continuity.constancy", "total_ns"),
    "scales.enumerate_calls": ("count", "scales.enumerate", "calls"),
    "scales.enumerate_s": ("s", "scales.enumerate", "total_ns"),
    "finite_topology.components_calls": ("count", "finite_topology.components", "calls"),
    "finite_topology.components_s": ("s", "finite_topology.components", "total_ns"),
    "scales.classify_calls": ("count", "scales.classify", "calls"),
    "scales.classify_s": ("s", "scales.classify", "total_ns"),
    "jsonio.to_json_calls": ("count", "jsonio.to_json", "calls"),
    "jsonio.to_json_s": ("s", "jsonio.to_json", "total_ns"),
    "intervals.normalize_calls": ("count", "intervals.normalize", "calls"),
    "intervals.normalize_s": ("s", "intervals.normalize", "total_ns"),
    "intervals.setop_calls": ("count", "intervals.setop", "calls"),
    "intervals.setop_s": ("s", "intervals.setop", "total_ns"),
    "pwmaps.preimage_calls": ("count", "pwmaps.preimage", "calls"),
    "pwmaps.preimage_s": ("s", "pwmaps.preimage", "total_ns"),
    "pwmaps.compose_s": ("s", "pwmaps.compose", "total_ns"),
    "pwmaps.gaps_s": ("s", "pwmaps.gaps", "total_ns"),
    "interval_scales.member_calls": ("count", "interval_scales.member", "calls"),
    "interval_scales.member_s": ("s", "interval_scales.member", "total_ns"),
    "interval_scales.is_q_open_calls": ("count", "interval_scales.is_q_open", "calls"),
    "interval_scales.is_q_open_s": ("s", "interval_scales.is_q_open", "total_ns"),
    "interval_scales.witness_calls": ("count", "interval_scales.witness", "calls"),
    "interval_scales.witness_s": ("s", "interval_scales.witness", "total_ns"),
    "interval_scales.probes_calls": ("count", "interval_scales.probes", "calls"),
    "interval_scales.probes_s": ("s", "interval_scales.probes", "total_ns"),
    "interval_continuity.check_calls": ("count", "interval_continuity.check", "calls"),
    "interval_continuity.check_self_s": ("s", "interval_continuity.check", "self_ns"),
}
SPAN_METRICS.update(
    {f"verifier.run_s.{pid}": ("s", f"verifier.run.{pid}", "total_ns") for pid in RUN_PIDS}
)
COUNTERS = ("continuity.maps_built", "scales.enumerated", "exactnum.ops")


def run_tour(pause) -> RoundResult:
    res = RoundResult()
    run_reports(res, [(pid, SweepConfig(**kw)) for pid, kw in TOUR_RUNS], pause)
    for rep in fixtures.fixtures():
        with pause():
            res.expect(rep.matches, f"tour fixture {rep.fixture}: {rep.computed}")
    return res


def run(args, wl_cls, outcomes, out_dir) -> dict:
    drives = microdrives.run(args.seed)
    rec = spans.Recorder()
    t_start = time.perf_counter()
    try:
        spans.install(rec)
        rec.active = True
        wl = wl_cls(args.seed, pause=rec.paused)
        rec.active = False
    finally:
        rec.restore()

    warm = wl.run_round(0)
    outcomes.add(warm, 0)
    res = wl.run_round(0)
    outcomes.add(res, 0)
    base = [res.job_ns]
    try:
        spans.install(rec)
        rec.active = True
        cpu0 = time.process_time()
        traced = wl.run_round(0)
        tour = run_tour(rec.paused)
        cpu_s = time.process_time() - cpu0
        rec.active = False
    finally:
        rec.restore()
    outcomes.add(traced, 0)
    outcomes.tally(tour)
    outcomes.expect(traced.digests == warm.digests, "traced round 0 differs from untraced")
    while time.perf_counter() - t_start < args.seconds:
        res = wl.run_round(0)
        outcomes.add(res, 0)
        base.append(res.job_ns)

    out_dir.mkdir(exist_ok=True)
    rec.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json.gz")
    return metrics(rec, drives, traced.job_ns / statistics.median(base), cpu_s)


def metrics(rec: spans.Recorder, drives: dict, overhead: float, cpu_s: float) -> dict:
    totals = rec.layer_totals()
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0}
    out: dict[str, tuple[float, str]] = {}
    for name, (unit, span, key) in SPAN_METRICS.items():
        value = totals.get(span, empty)[key]
        out[name] = (value / 1e9 if unit == "s" else value, unit)
    for name in COUNTERS:
        out[name] = (rec.counts[name], "count")
    for name, value in drives.items():
        out[name] = (value, "ns" if name.endswith("_ns") else "s")

    docs = [r.to_json() for r in rec.reports]
    generated = sum(d["generated"] for d in docs)
    validations = totals.get("scales.validate", empty)["calls"]
    iw_checks = totals.get("interval_continuity.check", empty)["calls"]
    out["verifier.instances"] = (generated, "count")
    out["verifier.useful_ratio"] = (sum(d["tested"] for d in docs) / generated, "ratio")
    out["verifier.violations_total"] = (
        sum(len(d["violations"]) + d["violations_truncated"] for d in docs),
        "count",
    )
    out["verifier.workers"] = (verifier.sweep_parallelism(), "count")
    out["scales.validate_per_instance"] = (validations / generated, "ratio")
    out["scales.validate_repeat_ratio"] = (validations / len(rec.validated), "ratio")
    out["interval_continuity.probes_per_check"] = (
        rec.counts["interval_scales.probe_sets"] / iw_checks,
        "ratio",
    )
    out["process.cpu_s"] = (cpu_s, "s")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out
