"""JSON encodings for every public type.

Exactness is the library's premise, so numbers serialize as exact
strings: a rational is ``"p/q"`` and a field element is
``{"a": "p/q", "b": "r/s"}`` (meaning a + b*sqrt(2)).  Infinite
interval ends use the sentinels ``"-inf"`` / ``"+inf"``.  Set families
are listed in canonical order (size, then sorted elements) so equal
objects serialize to identical documents.  A decoder rejects any key
its encoder does not write.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .continuity import ContinuityMode, ScaledMap
from .exactnum import ExactNumber
from .finite_topology import FiniteSpace, canon, set_key
from .interval_continuity import IntervalScaledMap
from .interval_scales import (
    BallScale,
    BallSupersetScale,
    BoundedBallSupersetScale,
    ConnectedOpenScale,
    EndClassScale,
    IntervalScale,
    PStructureIntervalScale,
    SymmetricIntervalScale,
    TrivialIntervalScale,
    TruncatedBallScale,
)
from .intervals import Carrier, Interval, LineSet, SheetPoint, SheetSet
from .pwmaps import AffinePiece, PiecewiseAffineMap
from .scales import Scale


def fraction_to_json(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def fraction_from_json(text) -> Fraction:
    """A rational from its exact string.  A JSON number or boolean would
    lose exactness or mean nothing, so anything but a string is malformed
    input like a zero denominator, and raises ``ValueError``."""
    if not isinstance(text, str):
        raise ValueError(f"a rational must be a JSON string, not {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def flag_from_json(doc: dict, key: str, default: bool | None = None) -> bool:
    """A flag must be a JSON boolean; ``default`` applies when the key is
    absent, and without one the key is required."""
    value = doc[key] if default is None else doc.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be a JSON boolean, not {value!r}")
    return value


def _only_keys(doc, what: str, keys) -> None:
    """Reject a key of ``doc`` that the encoder of ``what`` does not write,
    so a misspelt or misplaced key is not dropped and the document decoded
    as something it did not ask for.  A value that is not an object is
    left to fail on its first read."""
    extra = sorted(set(doc) - set(keys)) if isinstance(doc, dict) else ()
    if extra:
        raise ValueError(f"{what} takes no key {extra[0]!r}")


def int_from_json(value) -> int:
    """A point, count, index, sheet or table entry must be a JSON integer.  A
    boolean would read as 0 or 1 and a float would index nothing, so both
    are malformed input and raise ``ValueError``."""
    if type(value) is not int:
        raise ValueError(f"expected a JSON integer, not {value!r}")
    return value


def ints_from_json(doc) -> list[int]:
    """A JSON list of integers: a point set, a family or a map table."""
    if not isinstance(doc, list):
        raise ValueError(f"expected a JSON list of integers, not {doc!r}")
    return [int_from_json(v) for v in doc]


def exact_to_json(x: ExactNumber) -> dict:
    return {"a": fraction_to_json(x.a), "b": fraction_to_json(x.b)}


def exact_from_json(doc: dict) -> ExactNumber:
    _only_keys(doc, "a number", ("a", "b"))
    a = fraction_from_json(doc["a"])
    return ExactNumber(a, fraction_from_json(doc.get("b", "0")))


def interval_to_json(iv: Interval) -> dict:
    return {
        "lo": "-inf" if iv.lo is None else exact_to_json(iv.lo),
        "hi": "+inf" if iv.hi is None else exact_to_json(iv.hi),
        "lo_closed": iv.lo_closed,
        "hi_closed": iv.hi_closed,
    }


def interval_from_json(doc: dict) -> Interval:
    _only_keys(doc, "an interval", ("lo", "hi", "lo_closed", "hi_closed"))
    lo = None if doc["lo"] == "-inf" else exact_from_json(doc["lo"])
    hi = None if doc["hi"] == "+inf" else exact_from_json(doc["hi"])
    lo_closed = flag_from_json(doc, "lo_closed")
    return Interval(lo, hi, lo_closed, flag_from_json(doc, "hi_closed"))


def lineset_to_json(ls: LineSet) -> list:
    return [interval_to_json(p) for p in ls.pieces]


def lineset_from_json(doc: list) -> LineSet:
    return LineSet.of(*(interval_from_json(p) for p in doc))


def sheetset_to_json(s: SheetSet) -> dict:
    return {"sheets": [lineset_to_json(ls) for ls in s.sheets]}


def sheetset_from_json(doc: dict) -> SheetSet:
    _only_keys(doc, "a sheet set", ("sheets",))
    return SheetSet(tuple(lineset_from_json(ls) for ls in doc["sheets"]))


def carrier_from_json(doc: dict) -> Carrier:
    _only_keys(doc, "a carrier", ("sheets",))
    return Carrier(tuple(lineset_from_json(ls) for ls in doc["sheets"]))


def sheet_point_to_json(p: SheetPoint) -> dict:
    return {"sheet": p.sheet, "x": exact_to_json(p.x)}


def sheet_point_from_json(doc: dict) -> SheetPoint:
    _only_keys(doc, "a point", ("sheet", "x"))
    return SheetPoint(int_from_json(doc["sheet"]), exact_from_json(doc["x"]))


# -- finite world -------------------------------------------------------------


def space_to_json(space: FiniteSpace) -> dict:
    return {
        "n": space.n_points,
        "opens": [list(canon(o)) for o in space.opens_sorted()],
    }


def topology_from_json(doc: dict) -> tuple[frozenset[frozenset[int]], int]:
    """The open sets and point count of a space document, not yet checked
    against the axioms (``validate_topology`` reports that)."""
    _only_keys(doc, "a space", ("n", "opens"))
    n = int_from_json(doc["n"])
    return frozenset(frozenset(ints_from_json(o)) for o in doc["opens"]), n


def space_from_json(doc: dict) -> FiniteSpace:
    opens, n = topology_from_json(doc)
    return FiniteSpace(n, opens)


def scale_to_json(scale: Scale) -> dict:
    tq_sorted = sorted(scale.tq, key=set_key)
    index = {s: i for i, s in enumerate(tq_sorted)}
    return {
        "space": space_to_json(scale.space),
        "tq": [list(canon(s)) for s in tq_sorted],
        "assignment": [
            sorted(index[s] for s in scale.at(x)) for x in scale.space.points
        ],
    }


def scale_from_json(doc: dict) -> Scale:
    _only_keys(doc, "a scale", ("space", "tq", "assignment"))
    space = space_from_json(doc["space"])
    tq_sorted = [frozenset(ints_from_json(s)) for s in doc["tq"]]
    families = [ints_from_json(fam) for fam in doc["assignment"]]
    if any(not 0 <= i < len(tq_sorted) for fam in families for i in fam):
        raise ValueError("an assignment index is outside the tq list")
    assignment = tuple(frozenset(tq_sorted[i] for i in fam) for fam in families)
    return Scale(space, frozenset(tq_sorted), assignment)


def scaled_map_to_json(f: ScaledMap) -> dict:
    return {
        "type": "scaled_map",
        "table": list(f.table),
        "domain": scale_to_json(f.domain),
        "codomain": scale_to_json(f.codomain),
    }


def scaled_map_from_json(doc: dict) -> ScaledMap:
    _only_keys(doc, "a scaled_map", ("type", "table", "domain", "codomain"))
    return ScaledMap(
        tuple(ints_from_json(doc["table"])),
        scale_from_json(doc["domain"]),
        scale_from_json(doc["codomain"]),
    )


# -- interval world -----------------------------------------------------------


def pam_to_json(pam: PiecewiseAffineMap) -> dict:
    return {
        "domain": sheetset_to_json(pam.domain),
        "codomain": sheetset_to_json(pam.codomain),
        "pieces": [
            {
                "sheet": p.sheet,
                "part": interval_to_json(p.part),
                "out_sheet": p.out_sheet,
                "slope": fraction_to_json(p.slope),
                "intercept": fraction_to_json(p.intercept),
            }
            for p in pam.pieces
        ],
    }


def _piece_from_json(doc: dict) -> AffinePiece:
    _only_keys(doc, "a piece", ("sheet", "part", "out_sheet", "slope", "intercept"))
    return AffinePiece(
        int_from_json(doc["sheet"]),
        interval_from_json(doc["part"]),
        int_from_json(doc["out_sheet"]),
        fraction_from_json(doc["slope"]),
        fraction_from_json(doc["intercept"]),
    )


def pam_from_json(doc: dict) -> PiecewiseAffineMap:
    _only_keys(doc, "a map", ("domain", "codomain", "pieces"))
    pieces = tuple(_piece_from_json(p) for p in doc["pieces"])
    return PiecewiseAffineMap(
        carrier_from_json(doc["domain"]), carrier_from_json(doc["codomain"]), pieces
    )


def interval_scale_to_json(kind: IntervalScale) -> dict:
    doc: dict[str, Any] = {
        "kind": kind.tag,
        "carrier": sheetset_to_json(kind.carrier),
    }
    for key, value in kind.params().items():
        doc[key] = exact_to_json(value) if isinstance(value, ExactNumber) else value
    if isinstance(kind, PStructureIntervalScale):
        doc["table"] = [
            {"point": sheet_point_to_json(pt), "chosen": sheetset_to_json(ch)}
            for pt, ch in kind.table
        ]
    return doc


def interval_scale_from_json(doc: dict) -> IntervalScale:
    """The scale a document names.  A document holds exactly ``kind``,
    ``carrier``, the keys of the kind's ``params()`` and, for PStructure,
    ``table``, and an end-class ``mode`` must match its tag; anything
    else raises ``ValueError``, so a misplaced flag is not dropped."""
    scale = _decode_interval_scale(doc)
    params = scale.params()
    allowed = {"kind", "carrier", *params}
    if isinstance(scale, PStructureIntervalScale):
        allowed.add("table")
    _only_keys(doc, f"a {scale.tag} scale", allowed)
    if "mode" in doc and doc["mode"] != params["mode"]:
        raise ValueError(f"a {scale.tag} scale has mode {params['mode']!r}")
    return scale


def _decode_interval_scale(doc: dict) -> IntervalScale:
    carrier = carrier_from_json(doc["carrier"])
    kind = doc["kind"]
    if kind == "Trivial":
        return TrivialIntervalScale(carrier)
    if kind == "Q_a":
        return BallSupersetScale(carrier, a=exact_from_json(doc["a"]))
    if kind == "Q_Oa":
        return BallSupersetScale(
            carrier, a=exact_from_json(doc["a"]), closed_ball=False
        )
    if kind == "CQ_a":
        return BallScale(carrier, a=exact_from_json(doc["a"]))
    if kind == "CQ_Oa":
        return BallScale(carrier, a=exact_from_json(doc["a"]), strict=False)
    if kind == "BQ_Oa":
        return BoundedBallSupersetScale(carrier, a=exact_from_json(doc["a"]))
    if kind == "SymmetricIntervals":
        return SymmetricIntervalScale(
            carrier,
            lo_amb=exact_from_json(doc["lo"]),
            hi_amb=exact_from_json(doc["hi"]),
        )
    if kind == "RationalEnds":
        return EndClassScale(carrier, mode="rational")
    if kind == "IrrationalEnds":
        return EndClassScale(carrier, mode="irrational")
    if kind == "MixedRationalIrrational":
        crossed = flag_from_json(doc, "crossed", default=False)
        return EndClassScale(carrier, mode="mixed", crossed=crossed)
    if kind == "ConnectedOpen":
        return ConnectedOpenScale(carrier)
    if kind == "TruncatedQ_a":
        return TruncatedBallScale(
            carrier,
            a=exact_from_json(doc["a"]),
            lo=exact_from_json(doc["lo"]),
            hi=exact_from_json(doc["hi"]),
        )
    if kind == "PStructure":
        table = tuple(_table_row_from_json(row) for row in doc.get("table", []))
        return PStructureIntervalScale(carrier, table=table)
    raise ValueError(f"unknown interval scale kind {kind!r}")


def _table_row_from_json(doc: dict) -> tuple[SheetPoint, SheetSet]:
    _only_keys(doc, "a table row", ("point", "chosen"))
    return sheet_point_from_json(doc["point"]), sheetset_from_json(doc["chosen"])


def interval_scaled_map_to_json(m: IntervalScaledMap) -> dict:
    return {
        "type": "interval_scaled_map",
        "map": pam_to_json(m.pam),
        "domain_scale": interval_scale_to_json(m.domain_scale),
        "codomain_scale": interval_scale_to_json(m.codomain_scale),
        "probes": [sheetset_to_json(v) for v in m.probe_family],
    }


def interval_scaled_map_from_json(doc: dict) -> IntervalScaledMap:
    _only_keys(
        doc,
        "an interval_scaled_map",
        ("type", "map", "domain_scale", "codomain_scale", "probes"),
    )
    return IntervalScaledMap(
        pam=pam_from_json(doc["map"]),
        domain_scale=interval_scale_from_json(doc["domain_scale"]),
        codomain_scale=interval_scale_from_json(doc["codomain_scale"]),
        probe_family=tuple(sheetset_from_json(v) for v in doc.get("probes", [])),
    )


def any_pam_from_json(doc: dict) -> PiecewiseAffineMap:
    """The map of a bare map document or of a whole interval_scaled_map
    document, whose scales and probes are decoded and checked too."""
    if doc.get("type") == "interval_scaled_map":
        return interval_scaled_map_from_json(doc).pam
    return pam_from_json(doc)


def any_map_from_json(doc: dict) -> ScaledMap | IntervalScaledMap:
    kind = doc.get("type")
    if kind == "scaled_map":
        return scaled_map_from_json(doc)
    if kind == "interval_scaled_map":
        return interval_scaled_map_from_json(doc)
    raise ValueError("document is neither a scaled_map nor an interval_scaled_map")


# -- verdicts and modes ---------------------------------------------------------


def mode_to_json(mode: ContinuityMode) -> dict:
    doc: dict[str, Any] = {
        "strength": mode.strength,
        "locus": mode.locus,
        "trivial_domain": mode.trivial_domain,
    }
    if mode.at_point is not None:
        if isinstance(mode.at_point, SheetPoint):
            doc["at"] = sheet_point_to_json(mode.at_point)
        else:
            doc["at"] = mode.at_point
    return doc


def certificate_to_json(cert: dict | None) -> dict | None:
    if cert is None:
        return None
    out: dict[str, Any] = {}
    for key, value in cert.items():
        if isinstance(value, SheetSet):
            out[key] = sheetset_to_json(value)
        elif isinstance(value, SheetPoint):
            out[key] = sheet_point_to_json(value)
        elif isinstance(value, tuple):
            out[key] = list(value)
        else:
            out[key] = value
    return out
