"""Span recorder for the traced run.

The recorder rebinds the names through which layers call each other
(module attributes such as ``scaletop.verifier.check_continuity`` and
methods such as ``LineSet.intersect``) to wrappers that record a span:
its name, start, end and the span that was open when it began.  Spans
are kept in flat arrays in memory and written out when the run ends.
``restore`` puts every original object back.

Nothing here changes what a wrapped call computes: wrappers pass their
arguments through and return the original result.  The one wrapper that
changes shape is for the two enumerators, which are generators: the
wrapper drains the generator inside its span and returns an iterator
over the drained items, which every caller consumes in full.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import time
from array import array
from collections import Counter

from scaletop import (
    continuity,
    exactnum,
    finite_topology,
    interval_continuity,
    interval_scales,
    intervals,
    jsonio,
    pwmaps,
    scales,
    verifier,
)

# The package re-exports the function fixtures() under the module's name.
fixtures = importlib.import_module("scaletop.fixtures")

_MISSING = object()


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()
        # Scales passed to validate_scale, kept alive so that ids stay
        # unique while the run lasts.
        self.validated: dict[int, object] = {}
        self.reports: list = []
        self.active = False
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def spanned(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped in a span; ``before(args)`` runs first and
        ``after(result)`` last, both only while recording."""
        nid = self._name(name)

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """``fn`` wrapped in a bare counter, for calls too frequent and
        too short to time one by one."""

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def drained(self, name: str, fn, counter: str | None = None):
        """``fn``, a generator function, drained inside a span; ``counter``
        counts the items it yielded."""
        nid = self._name(name)

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                items = list(fn(*args, **kwargs))
            finally:
                self._close(idx)
            if counter is not None:
                self.counts[counter] += len(items)
            return iter(items)

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- rebinding -------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Rebind ``owner.attr`` to ``make(current)``; ``restore`` undoes
        it, deleting the attribute again where it was inherited."""
        original = owner.__dict__.get(attr, _MISSING)
        current = getattr(owner, attr)
        setattr(owner, attr, make(current))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def dump(self, path) -> None:
        doc = {
            "names": self.names,
            "name_id": list(self.name_id),
            "parent": list(self.parent),
            "start_ns": list(self.start),
            "end_ns": list(self.end),
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def layer_totals(self) -> dict[str, dict[str, int]]:
        """Per span name: ``calls`` and ``total_ns`` over outermost spans
        (a span nested in one of the same name is part of it) and
        ``self_ns``, each span's duration minus its direct children's."""
        n = len(self.start)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, int]] = {
            name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in self.names
        }
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            row = out[name]
            row["self_ns"] += dur - child_ns[i]
            if not self._inside_same(i):
                row["calls"] += 1
                row["total_ns"] += dur
        return out

    def _inside_same(self, i: int) -> bool:
        nid = self.name_id[i]
        p = self.parent[i]
        while p >= 0:
            if self.name_id[p] == nid:
                return True
            p = self.parent[p]
        return False


# -- what the traced run rebinds ------------------------------------------------

_EXACT_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "inverse", "sign", "__abs__",
    "__eq__", "__lt__",
)
_SETOPS = ("union", "intersect", "difference", "complement", "issubset")
_KIND_METHODS = {
    "member": "interval_scales.member",
    "is_q_open": "interval_scales.is_q_open",
    "witness_inside": "interval_scales.witness",
    "point_probes": "interval_scales.probes",
}


def _catalog_kinds() -> list[type]:
    out, todo = [], [interval_scales.IntervalScale]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def install(rec: Recorder) -> None:
    """Rebind every traced call site.  The caller must call
    ``rec.restore()`` afterwards, also when the run fails."""

    def span(owner, attr, name, **hooks):
        rec.patch(owner, attr, lambda fn: rec.spanned(name, fn, **hooks))

    def keep_scale(args):
        rec.validated.setdefault(id(args[0]), args[0])

    def count_probes(result):
        rec.counts["interval_scales.probe_sets"] += len(result)

    def keep_report(result):
        rec.reports.append(result)

    # finite layers
    for owner in (scales, verifier):
        span(owner, "validate_scale", "scales.validate", before=keep_scale)
    for owner in (verifier, continuity):
        span(owner, "check_continuity", "continuity.check")
    span(verifier, "check_closed_characterization", "continuity.closed_char")
    span(verifier, "constancy_profile", "continuity.constancy")
    span(verifier, "constant_on", "continuity.constancy")
    for attr in ("ScaledMap", "compose_scaled"):
        rec.patch(verifier, attr, lambda fn: rec.counted("continuity.maps_built", fn))
    for owner in (verifier, continuity):
        span(owner, "connected_components", "finite_topology.components")
    span(verifier, "classify", "scales.classify")
    for owner in (verifier, scales):
        rec.patch(
            owner,
            "enumerate_scales",
            lambda fn: rec.drained("scales.enumerate", fn, "scales.enumerated"),
        )
    for owner in (verifier, finite_topology):
        rec.patch(
            owner,
            "enumerate_topologies",
            lambda fn: rec.drained("finite_topology.enumerate", fn),
        )
    for attr in ("scaled_map_to_json", "scale_to_json", "sheetset_to_json"):
        span(jsonio, attr, "jsonio.to_json")

    # the sweep entry point, one span name per property
    def run_property(fn):
        per_pid = {pid: rec.spanned(f"verifier.run.{pid}", fn, after=keep_report)
                   for pid in verifier.PROPERTY_IDS}

        @functools.wraps(fn, updated=())
        def wrapper(property_id, cfg):
            return per_pid.get(property_id, fn)(property_id, cfg)

        return wrapper

    rec.patch(verifier, "run_property", run_property)

    # interval layers
    for op in _EXACT_OPS:
        rec.patch(exactnum.ExactNumber, op, lambda fn: rec.counted("exactnum.ops", fn))
    for owner in (intervals, pwmaps):
        span(owner, "normalize", "intervals.normalize")
    for op in _SETOPS:
        span(intervals.LineSet, op, "intervals.setop")
    span(pwmaps.PiecewiseAffineMap, "preimage", "pwmaps.preimage")
    span(pwmaps.PiecewiseAffineMap, "gaps", "pwmaps.gaps")
    for owner in (pwmaps, fixtures):
        span(owner, "compose", "pwmaps.compose")
    for cls in _catalog_kinds():
        for attr, name in _KIND_METHODS.items():
            if attr in cls.__dict__:
                hooks = {"after": count_probes} if attr == "point_probes" else {}
                span(cls, attr, name, **hooks)
    for owner in (interval_continuity, fixtures):
        span(owner, "iw_check_continuity", "interval_continuity.check")
