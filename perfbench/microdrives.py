"""Layer micro-drives for the traced run: per-call costs of single layers,
timed directly with no wrapper installed.  They are recorded as
per-layer metrics and are not gated.

* ``finite_topology.enumerate_s.n<k>``: ``enumerate_topologies(k)``;
* ``scales.enumerate_drive_s.n<k>``: ``enumerate_scales(space, budget=2)``
  over every topology on k points;
* ``scales.validate_ns``: one ``validate_scale`` call over the ``sweep``
  workload's enumerated scale set;
* ``exactnum.{cmp,add,mul}_ns``: one ``ExactNumber`` compare, add or
  multiply on operands harvested from the seeded interval generator.

Each figure is the median over a few repetitions.
"""

from __future__ import annotations

import statistics
import time

from scaletop import finite_topology, scales

import intervalgen
from workloads import SWEEP_SCALE_BUDGET, sweep_scale_set

REPEATS = 5
HARVEST_MAPS = 20


def _median_s(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e9


def harvest_operands(seed: int) -> list:
    """Every ExactNumber the generator puts into piece ends, images and
    scale parameters, in generation order."""
    out = []
    for g in intervalgen.generate_maps(seed, HARVEST_MAPS):
        for piece in g.scaled.pam.pieces:
            img = piece.image_interval()
            for x in (piece.part.lo, piece.part.hi, img.lo, img.hi):
                if x is not None:
                    out.append(x)
        for kind in (g.scaled.domain_scale, g.scaled.codomain_scale):
            out.extend(v for v in kind.params().values() if hasattr(v, "sign"))
    return out


def _per_op_ns(pairs, op, min_ops: int = 20_000) -> float:
    reps = max(1, min_ops // len(pairs))

    def drive():
        for _ in range(reps):
            for a, b in pairs:
                op(a, b)

    return _median_s(drive) * 1e9 / (reps * len(pairs))


def run(seed: int) -> dict[str, float]:
    out: dict[str, float] = {}
    spaces = {}
    for n in range(1, finite_topology.MAX_ENUMERATION_POINTS + 1):
        out[f"finite_topology.enumerate_s.n{n}"] = _median_s(
            lambda: list(finite_topology.enumerate_topologies(n))
        )
        spaces[n] = list(finite_topology.enumerate_topologies(n))
        out[f"scales.enumerate_drive_s.n{n}"] = _median_s(
            lambda: [
                list(scales.enumerate_scales(s, budget=SWEEP_SCALE_BUDGET))
                for s in spaces[n]
            ],
            repeats=3,
        )

    scale_set = sweep_scale_set(spaces)
    reps = max(1, 20_000 // len(scale_set))

    def validate_all():
        for _ in range(reps):
            for s in scale_set:
                scales.validate_scale(s)

    out["scales.validate_ns"] = _median_s(validate_all) * 1e9 / (reps * len(scale_set))

    operands = harvest_operands(seed)
    pairs = list(zip(operands, operands[1:]))
    out["exactnum.cmp_ns"] = _per_op_ns(pairs, lambda a, b: a < b)
    out["exactnum.add_ns"] = _per_op_ns(pairs, lambda a, b: a + b)
    out["exactnum.mul_ns"] = _per_op_ns(pairs, lambda a, b: a * b)
    return out
