"""The scaletop benchmark.

    python3 perfbench/run.py --workload {sweep,composition,interval}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  Without ``src/scaletop`` the run exits with code 2 and prints
no result.

``--trace 0`` measures the end-to-end metrics, with no tracing.  The
timed ones are given in reference seconds (``ref_s``): the time the host
needs, at that moment, for a fixed amount of reference work (see
``calibrate.py``).  Each round samples that speed between its timed
calls and its job time is divided by the round's median sample, so a
host that runs faster or slower for a minute moves the job and the
reference alike, and runs minutes apart stay comparable.

* ``instances_per_ref_s`` (1/ref_s): verdicts computed per reference
  second of job time (time inside library calls).  Each part of a round
  (a property run, a generated map, ...) contributes the median over the
  rounds of its verdicts and of its job time.  On the sweep workloads a
  verdict is a report's generated instance (tested + skipped); on
  ``interval`` it is a continuity check, a BQOA_CLAIM set, a fixture
  report or a gap/fuzzy evaluation.
* ``setup_s`` (s): median over fresh processes of import + enumeration +
  input generation (see ``setup_probe.py``), in wall-clock seconds.
* ``peak_rss_mb`` (MB): the larger of this process's peak RSS and that of
  its children.
* ``check_p50_ref_ms`` (ref_ms): median latency of one continuity check
  over every sample of the run: ``iw_check_continuity`` on ``interval``,
  ``check_continuity`` on instances drawn from the workload's inputs on
  ``sweep`` and ``composition``.

The same rate and latency in wall-clock units (``instances_per_s``,
``check_p50_ms``) and ``check_tail_ms`` are printed beside them but are
not part of the result.  ``check_tail_ms`` is, per round, the highest
percentile with at least ten samples beyond it, and the median of that
over the rounds.  The wall-clock figures of runs minutes apart on a
shared 2-core host spread by 0.15 to 0.3 of their median, as wide as
the largest bound a gated metric may have.

Outcomes are checked every round (see ``workloads.py``) and, for the
pinned seeds, compared with ``pins.json``.  ``attempted`` and ``failed``
count those checks, ``fail_ratio`` is printed, and any failure makes the
run exit with code 1.

``--trace 1`` reports the per-layer metrics instead (see ``layers.py``)
and writes its spans to ``.bench_out/``.

Rounds run until ``--seconds`` have passed, and at least MIN_ROUNDS.
The program's own settings are left alone: ``SCALETOP_THREADS`` is
recorded, never set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate  # no scaletop import: safe before the sources are checked

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_ROUNDS = 6  # = intervalgen.STRUCTURES, so every interval part is measured
SETUP_REPEATS = 9
TAIL_BEYOND = 10


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "composition", "interval"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment() -> dict:
    from scaletop import verifier

    commit = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "scaletop_threads_env": os.environ.get("SCALETOP_THREADS", "unset"),
        "sweep_workers": verifier.sweep_parallelism(),
    }


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def tail(samples: list[int]) -> tuple[int, float]:
    """The highest order statistic with TAIL_BEYOND samples above it, and
    its percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(0, n - 1 - TAIL_BEYOND)
    return ordered[k], 100.0 * (k + 1) / n


def ref_s_ns(res) -> float:
    """How many nanoseconds one reference second lasted in this round."""
    return statistics.median(res.ref_ns) * calibrate.CALLS_PER_REF_S


def throughput(rounds, unit_ns=lambda r: 1e9) -> float:
    """Verdicts per unit of job time, a unit lasting ``unit_ns(round)``
    nanoseconds, from each part's median over the rounds that ran it: a
    slow spell on the machine moves one part's samples, not the whole
    estimate, and the estimate covers the same parts however many rounds
    fit in the run."""
    verdicts = units = 0
    for part in {p for r in rounds for p in r.parts}:
        rows = [(r.parts[part], unit_ns(r)) for r in rounds if part in r.parts]
        verdicts += statistics.median(v for (v, _), _ in rows)
        units += statistics.median(t / u for (_, t), u in rows)
    return verdicts / units


class Outcomes:
    """Tally of outcome checks across the run."""

    def __init__(self, workload: str, seed: int) -> None:
        pins = json.loads((HERE / "pins.json").read_text())
        self.pinned = pins.get(workload, {}).get(str(seed))
        self.attempted = 0
        self.failures: list[str] = []

    def tally(self, res) -> None:
        self.attempted += res.checked
        self.failures.extend(res.failures)

    def add(self, res, r: int) -> None:
        """Tally a round's checks and compare its digests with the pins."""
        self.tally(res)
        if self.pinned is None:
            return
        if r < len(self.pinned):
            self.expect(res.digests == self.pinned[r], f"round {r}: digests differ from pins")

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def run_untraced(args, wl_cls) -> tuple[dict, Outcomes]:
    setup_s = measure_setup(args.workload, args.seed)
    wl = wl_cls(args.seed, calibrate=True)
    outcomes = Outcomes(args.workload, args.seed)
    rounds, latencies, ref_latencies, tails, pcts = [], [], [], [], []
    t_start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t_start < args.seconds:
        res = wl.run_round(len(rounds))
        outcomes.add(res, len(rounds))
        rounds.append(res)
        latencies.extend(res.latencies_ns)
        unit = ref_s_ns(res)
        ref_latencies.extend(ns / unit for ns in res.latencies_ns)
        tail_ns, pct = tail(res.latencies_ns)
        tails.append(tail_ns)
        pcts.append(pct)
    r = len(rounds)
    print("round rates " + " ".join(f"{throughput([x], ref_s_ns):.6g}" for x in rounds))
    print(
        f"rounds {r}; check latency samples {len(latencies)}; reference samples "
        f"{sum(len(x.ref_ns) for x in rounds)}; tail is the "
        f"p{min(pcts):.1f}-p{max(pcts):.1f} of each round, median over rounds"
    )
    metrics = {
        "instances_per_ref_s": (throughput(rounds, ref_s_ns), "1/ref_s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "check_p50_ref_ms": (statistics.median(ref_latencies) * 1e3, "ref_ms"),
    }
    for name, value, unit in (
        ("instances_per_s", throughput(rounds), "1/s"),
        ("check_p50_ms", statistics.median(latencies) / 1e6, "ms"),
        ("check_tail_ms", statistics.median(tails) / 1e6, "ms"),
        ("ref_s_per_s", statistics.median(1e9 / ref_s_ns(x) for x in rounds), "ref_s/s"),
    ):
        print(f"metric {args.workload} {name} {value!r} {unit} (not gated)")
    return metrics, outcomes


def run_traced(args, wl_cls) -> tuple[dict, Outcomes]:
    import layers

    outcomes = Outcomes(args.workload, args.seed)
    return layers.run(args, wl_cls, outcomes, ROOT / ".bench_out"), outcomes


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "scaletop" / "__init__.py").is_file():
        print(f"no scaletop sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import scaletop
    import workloads

    if Path(scaletop.__file__).resolve().parent != SRC / "scaletop":
        print(f"imported scaletop from {scaletop.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(), sort_keys=True))
    wl_cls = workloads.WORKLOADS[args.workload]
    if args.trace:
        metrics, outcomes = run_traced(args, wl_cls)
    else:
        metrics, outcomes = run_untraced(args, wl_cls)
    for name, (value, unit) in metrics.items():
        print(f"metric {args.workload} {name} {value!r} {unit}")
    failed = len(outcomes.failures)
    for what in outcomes.failures[:20]:
        print(f"outcome FAILED: {what}")
    print(
        f"outcomes attempted {outcomes.attempted} failed {failed} "
        f"fail_ratio {failed / max(1, outcomes.attempted)!r}"
    )
    result = {
        "correct": failed == 0,
        "attempted": outcomes.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
