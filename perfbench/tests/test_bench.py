"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

Rounds run at tiny sizes here; one end-to-end run per mode checks the
output contract against BENCHMARK.json.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import intervalgen
import spans
import workloads
from scaletop import jsonio

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(
        workloads,
        "SWEEP_RUNS",
        (
            ("P4", dict(max_points=2, scale_budget=2)),
            ("C10", dict(max_points=2, scale_budget=2)),
            ("P3", dict(max_points=3, scale_budget=2, map_budget=2)),
        ),
    )
    monkeypatch.setattr(workloads, "COMPOSITION_SAMPLES", 64)
    monkeypatch.setattr(workloads, "MAPS_PER_ROUND", 2)
    monkeypatch.setattr(workloads, "POOL_ROUNDS", 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_round_passes_its_checks_and_repeats(tiny, name):
    first = workloads.WORKLOADS[name](3).run_round(0)
    again = workloads.WORKLOADS[name](3).run_round(0)
    assert first.failures == []
    assert first.checked > 0 and first.parts and first.job_ns > 0
    assert first.latencies_ns
    assert first.digests and first.digests == again.digests


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_only_a_calibrated_round_samples_the_reference(tiny, name):
    assert workloads.WORKLOADS[name](3).run_round(0).ref_ns == []
    calibrated = workloads.WORKLOADS[name](3, calibrate=True).run_round(0)
    assert calibrated.ref_ns and all(ns > 0 for ns in calibrated.ref_ns)


def _traced_round(wl):
    rec = spans.Recorder()
    wl.pause = rec.paused
    try:
        spans.install(rec)
        rec.active = True
        res = wl.run_round(0)
        rec.active = False
    finally:
        rec.restore()
    counts = {name: row["calls"] for name, row in rec.layer_totals().items()}
    counts.update(rec.counts)
    counts["validated_objects"] = len(rec.validated)
    return res, rec, counts


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_rounds_agree(tiny, name):
    wl = workloads.WORKLOADS[name](5)
    plain = wl.run_round(0)
    traced, rec, counts = _traced_round(wl)
    traced_again, _, counts_again = _traced_round(wl)
    assert traced.digests == plain.digests == traced_again.digests
    assert counts == counts_again
    generated = sum(r.to_json()["generated"] for r in plain.reports)
    assert sum(r.to_json()["generated"] for r in rec.reports) == generated


def _bindings() -> dict:
    """Every attribute of every scaletop module and of every class they
    define, by identity."""
    out = {}
    for modname in list(sys.modules):
        if not modname.startswith("scaletop."):
            continue
        mod = importlib.import_module(modname)
        for attr, value in vars(mod).items():
            out[(modname, attr)] = value
            if isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in vars(value).items():
                    out[(modname, attr, cattr)] = cvalue
    return out


def test_every_rebound_name_is_restored(tiny):
    before = _bindings()
    rec = spans.Recorder()
    spans.install(rec)
    assert len(rec._patches) > 50
    changed = _bindings()
    assert any(changed[k] is not before[k] for k in before)
    rec.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_generator_is_seeded_and_covers_every_shape():
    def docs(seed):
        return [
            (g.shape, jsonio.interval_scaled_map_to_json(g.scaled))
            for g in intervalgen.generate_maps(seed, 10)
        ]

    assert docs(1) == docs(1)
    assert docs(1) != docs(2)
    assert {shape for shape, _ in docs(1)} == set(intervalgen.SHAPES)


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace, listed", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_matches_benchmark_json(trace, listed):
    out = _run(
        ["--workload", "composition", "--seed", "0", "--seconds", "0", "--trace", trace],
        ROOT,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[listed]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(["--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0"], tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
