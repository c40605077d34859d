"""Seeded generator of interval-world scaled maps for the ``interval``
workload.

Every map is built so that the library's constructors accept it: the
affine pieces cover each domain sheet exactly once (each breakpoint is
closed on exactly one side, or carried by its own degenerate piece), and
every piece image lies inside the codomain carrier.  Breakpoints mix
rationals with elements ``a + b*sqrt(2)``, and the scales on both sides
come from the catalog kinds that accept the carrier in question.  The
library runs all of its own checks on these inputs; nothing here
bypasses them.

Shapes, each with the catalog kinds valid on it:

* ``line``       full-line self-maps: every catalog kind except the
                 segment-only ``TruncatedQ_a``;
* ``segment``    self-maps of a segment [lo, hi]: Trivial, ConnectedOpen,
                 SymmetricIntervals, TruncatedQ_a;
* ``stretch``    segment into the smallest integer segment holding its
                 image: Trivial, ConnectedOpen, SymmetricIntervals;
* ``punctured``  two disjoint segments on one line into a segment:
                 Trivial, ConnectedOpen, SymmetricIntervals;
* ``sheets``     two segment sheets into one or two segment sheets:
                 Trivial, ConnectedOpen (the only multi-sheet kinds).

``line`` and ``segment`` maps are self-maps with one sheet, so
``compose``, ``gaps`` and ``is_a_fuzzy_continuous`` apply to them.

See ``generate_maps`` for what the seed decides.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from scaletop.exactnum import ExactNumber, irrational_between, rational_between
from scaletop.interval_continuity import IntervalScaledMap
from scaletop.interval_scales import (
    BallScale,
    BallSupersetScale,
    BoundedBallSupersetScale,
    ConnectedOpenScale,
    EndClassScale,
    SymmetricIntervalScale,
    TrivialIntervalScale,
    TruncatedBallScale,
    full_line_carrier,
)
from scaletop.intervals import Carrier, Interval, LineSet
from scaletop.pwmaps import AffinePiece, PiecewiseAffineMap

SHAPES = ("line", "segment", "stretch", "punctured", "sheets")

_SLOPES = tuple(
    Fraction(s)
    for s in ("0", "1", "-1", "1/2", "-1/2", "2", "3/2", "-1/3", "10/11")
)


@dataclass(frozen=True)
class GeneratedMap:
    shape: str
    scaled: IntervalScaledMap
    # A nonnegative level for is_a_fuzzy_continuous; None unless the map
    # is a one-sheet self-map.
    fuzzy_level: ExactNumber | None


def _frac(rng: random.Random, span: int, den: int) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _point_between(
    st: random.Random, rng: random.Random, lo: ExactNumber, hi: ExactNumber
) -> ExactNumber:
    """A point strictly inside (lo, hi), in a random stretch of it; ``st``
    decides whether it is rational or has a sqrt(2) part."""
    t = sorted(Fraction(rng.randint(1, 9), 10) for _ in range(2))
    if t[0] == t[1]:
        t = [t[0] - Fraction(1, 20), t[1] + Fraction(1, 20)]
    a, b = lo + (hi - lo) * t[0], lo + (hi - lo) * t[1]
    if st.random() < 0.5:
        return rational_between(a, b)
    return irrational_between(a, b)


def _breakpoints(
    st: random.Random, rng: random.Random, lo: ExactNumber, hi: ExactNumber, k: int
) -> list[ExactNumber]:
    """k distinct sorted points strictly inside (lo, hi), one in each of k
    equal cells so they never collide."""
    step = (hi - lo) / k
    return [_point_between(st, rng, lo + step * i, lo + step * (i + 1)) for i in range(k)]


def _line_breakpoints(st: random.Random, rng: random.Random, k: int) -> list[ExactNumber]:
    """k sorted points on the line, one between each pair of k + 1 distinct
    integer anchors."""
    anchors = sorted(rng.sample(range(-12, 13), k + 1))
    return [
        _point_between(st, rng, ExactNumber(a), ExactNumber(b))
        for a, b in zip(anchors, anchors[1:])
    ]


def _parts(
    st: random.Random,
    lo: ExactNumber | None,
    hi: ExactNumber | None,
    cuts: list[ExactNumber],
) -> list[Interval]:
    """Pieces covering the interval [lo, hi] (ends open when infinite)
    exactly once: each cut is closed on one side or gets its own
    degenerate piece."""
    ends = [lo, *cuts, hi]
    sides = [st.randrange(3) for _ in cuts]  # 0 left, 1 right, 2 own piece
    parts = []
    for i in range(len(ends) - 1):
        a, b = ends[i], ends[i + 1]
        a_closed = a is not None and (i == 0 or sides[i - 1] == 1)
        b_closed = b is not None and (i == len(ends) - 2 or sides[i] == 0)
        parts.append(Interval(a, b, a_closed, b_closed))
        if i < len(cuts) and sides[i] == 2:
            parts.append(Interval(b, b, True, True))
    return parts


def _fit_piece(
    st: random.Random,
    sheet: int,
    part: Interval,
    out_sheet: int,
    lo: ExactNumber,
    hi: ExactNumber,
) -> AffinePiece:
    """An affine piece on a bounded part whose image lies in [lo, hi]:
    the slope is halved until the image fits, then the intercept is a
    rational inside the feasible window."""
    slope = st.choice(_SLOPES)
    width = part.hi - part.lo
    room = hi - lo
    while slope != 0 and not abs(width * slope) < room:
        slope /= 2
    if slope == 0 or part.lo == part.hi:
        return AffinePiece(sheet, part, out_sheet, Fraction(0), rational_between(lo, hi).a)
    # Image ends are slope*part.lo + c and slope*part.hi + c.
    low_end = part.lo * slope if slope > 0 else part.hi * slope
    high_end = part.hi * slope if slope > 0 else part.lo * slope
    intercept = rational_between(lo - low_end, hi - high_end).a
    return AffinePiece(sheet, part, out_sheet, slope, intercept)


def _free_piece(
    st: random.Random, rng: random.Random, part: Interval
) -> AffinePiece:
    slope = Fraction(0) if part.is_point else st.choice(_SLOPES)
    return AffinePiece(0, part, 0, slope, _frac(rng, 8, 4))


def _integer_hull(pieces: list[AffinePiece]) -> tuple[ExactNumber, ExactNumber]:
    """The smallest integer segment holding every piece image."""
    ends = []
    for p in pieces:
        img = p.image_interval()
        ends.extend((img.lo, img.hi))
    lo = min(ends).floor()
    hi = -((-max(ends)).floor())
    if lo == hi:
        hi = lo + 1
    return ExactNumber(lo), ExactNumber(hi)


def _segment(lo: ExactNumber, hi: ExactNumber) -> LineSet:
    return LineSet.of(Interval(lo, hi, True, True))


def _level(rng: random.Random) -> ExactNumber:
    return ExactNumber(Fraction(1, rng.randint(2, 12)))


STRUCTURES = 6  # structure batches per shape; batch j of a shape repeats every 6


def _pair(j: int, n: int) -> tuple[int, int]:
    """Domain and codomain kind indices for structure batch j: over the six
    batches every one-sheet catalog list is covered on some side."""
    return (2 * j) % n, (2 * j + 1 + (2 * j) // n) % n


FULL_LINE_KINDS = 11


def _full_line_kind(st: random.Random, rng: random.Random, carrier: Carrier, pick: int):
    a = _level(rng)
    if pick == 0:
        return TrivialIntervalScale(carrier)
    if pick == 1:
        return ConnectedOpenScale(carrier)
    if pick == 2:
        return BallSupersetScale(carrier, a=a)
    if pick == 3:
        return BallSupersetScale(carrier, a=a, closed_ball=False)
    if pick == 4:
        return BallScale(carrier, a=a if st.random() < 0.7 else ExactNumber(0))
    if pick == 5:
        return BallScale(carrier, a=a, strict=False)
    if pick == 6:
        return BoundedBallSupersetScale(carrier, a=a)
    if pick == 7:
        return EndClassScale(carrier, mode="rational")
    if pick == 8:
        return EndClassScale(carrier, mode="irrational")
    if pick == 9:
        return EndClassScale(carrier, mode="mixed", crossed=st.random() < 0.5)
    lo = ExactNumber(rng.randint(-12, -1))
    return SymmetricIntervalScale(carrier, lo_amb=lo, hi_amb=lo + rng.randint(2, 24))


def _segment_kind(
    rng: random.Random, carrier: Carrier, lo: ExactNumber, hi: ExactNumber, pick: int
):
    """Kinds 0-2 fit any one-sheet carrier; kind 3 (TruncatedQ_a) needs
    the carrier to be the segment [lo, hi]."""
    if pick == 0:
        return TrivialIntervalScale(carrier)
    if pick == 1:
        return ConnectedOpenScale(carrier)
    if pick == 2:
        # Ambient bounds at or beyond the carrier ends, as in ex12.
        return SymmetricIntervalScale(
            carrier,
            lo_amb=lo - rng.randint(0, 1),
            hi_amb=hi + rng.randint(0, 1),
        )
    return TruncatedBallScale(carrier, a=(hi - lo) / rng.randint(3, 8), lo=lo, hi=hi)


def _multi_sheet_kind(carrier: Carrier, pick: int):
    if pick == 0:
        return TrivialIntervalScale(carrier)
    return ConnectedOpenScale(carrier)


def _segment_ends(st: random.Random, rng: random.Random) -> tuple[ExactNumber, ExactNumber]:
    lo = ExactNumber(_frac(rng, 4, 2))
    return lo, lo + st.randint(1, 6)


def _gen_line(st: random.Random, rng: random.Random, j: int) -> GeneratedMap:
    carrier = full_line_carrier()
    cuts = _line_breakpoints(st, rng, 1 + j % 3)
    pieces = tuple(_free_piece(st, rng, p) for p in _parts(st, None, None, cuts))
    pam = PiecewiseAffineMap(carrier, carrier, pieces)
    dom, cod = _pair(j, FULL_LINE_KINDS)
    m = IntervalScaledMap(
        pam,
        _full_line_kind(st, rng, carrier, dom),
        _full_line_kind(st, rng, carrier, cod),
    )
    return GeneratedMap("line", m, _level(rng))


def _gen_segment(st: random.Random, rng: random.Random, j: int) -> GeneratedMap:
    lo, hi = _segment_ends(st, rng)
    carrier = Carrier.of(_segment(lo, hi))
    cuts = _breakpoints(st, rng, lo, hi, 1 + j % 2)
    pieces = tuple(_fit_piece(st, 0, p, 0, lo, hi) for p in _parts(st, lo, hi, cuts))
    pam = PiecewiseAffineMap(carrier, carrier, pieces)
    dom, cod = _pair(j, 4)
    m = IntervalScaledMap(
        pam,
        _segment_kind(rng, carrier, lo, hi, dom),
        _segment_kind(rng, carrier, lo, hi, cod),
    )
    return GeneratedMap("segment", m, _level(rng))


def _gen_stretch(st: random.Random, rng: random.Random, j: int) -> GeneratedMap:
    lo, hi = _segment_ends(st, rng)
    domain = Carrier.of(_segment(lo, hi))
    cuts = _breakpoints(st, rng, lo, hi, 1 + j % 2)
    pieces = [_free_piece(st, rng, p) for p in _parts(st, lo, hi, cuts)]
    c, d = _integer_hull(pieces)
    codomain = Carrier.of(_segment(c, d))
    pam = PiecewiseAffineMap(domain, codomain, tuple(pieces))
    dom, cod = _pair(j, 3)
    m = IntervalScaledMap(
        pam,
        _segment_kind(rng, domain, lo, hi, dom),
        _segment_kind(rng, codomain, c, d, cod),
    )
    return GeneratedMap("stretch", m, None)


def _gen_punctured(st: random.Random, rng: random.Random, j: int) -> GeneratedMap:
    lo, hi = _segment_ends(st, rng)
    mid = _point_between(st, rng, lo, hi)
    # Either a single missing point (as in ex12) or an open gap.
    right_lo = mid if j % 2 == 0 else _point_between(st, rng, mid, hi)
    left = Interval(lo, mid, True, False)
    right = Interval(right_lo, hi, right_lo != mid, True)
    domain = Carrier.of(LineSet.of(left, right))
    pieces = [_free_piece(st, rng, left), _free_piece(st, rng, right)]
    c, d = _integer_hull(pieces)
    codomain = Carrier.of(_segment(c, d))
    pam = PiecewiseAffineMap(domain, codomain, tuple(pieces))
    dom, cod = _pair(j, 3)
    m = IntervalScaledMap(
        pam,
        _segment_kind(rng, domain, lo, hi, dom),
        _segment_kind(rng, codomain, c, d, cod),
    )
    return GeneratedMap("punctured", m, None)


def _gen_sheets(st: random.Random, rng: random.Random, j: int) -> GeneratedMap:
    lo, hi = _segment_ends(st, rng)
    out_sheets = 1 + j % 2
    sheet_line = _segment(lo, hi)
    domain = Carrier.of(sheet_line, sheet_line)
    codomain = Carrier.of(*([sheet_line] * out_sheets))
    pieces = []
    for sheet in (0, 1):
        for part in _parts(st, lo, hi, _breakpoints(st, rng, lo, hi, 1)):
            out = st.randrange(out_sheets)
            pieces.append(_fit_piece(st, sheet, part, out, lo, hi))
    pam = PiecewiseAffineMap(domain, codomain, tuple(pieces))
    m = IntervalScaledMap(
        pam, _multi_sheet_kind(domain, j % 2), _multi_sheet_kind(codomain, j // 2 % 2)
    )
    return GeneratedMap("sheets", m, None)


_BUILDERS = {
    "line": _gen_line,
    "segment": _gen_segment,
    "stretch": _gen_stretch,
    "punctured": _gen_punctured,
    "sheets": _gen_sheets,
}


def generate_maps(seed: int, count: int) -> list[GeneratedMap]:
    """``count`` maps from ``seed``; shapes rotate, so every batch of five
    holds one of each, and batch b has structure ``b % STRUCTURES``.

    Two random streams build each map.  The structure stream is seeded by
    the shape and the structure index alone: it fixes the scale kinds, the
    number of breakpoints and whether each is rational, which side each
    breakpoint closes on, the slopes and the segment lengths.  The value
    stream is seeded by ``seed``: it draws where the breakpoints fall,
    the segment offsets, the intercepts and the kind parameters.  So
    every seed sees the same mix of shapes and kinds, in the same order,
    and seeds differ in the numbers they put into it."""
    rng = random.Random(f"interval:{seed}")
    n = len(SHAPES)
    out = []
    for i in range(count):
        shape, j = SHAPES[i % n], i // n % STRUCTURES
        st = random.Random(f"structure:{shape}:{j}")
        out.append(_BUILDERS[shape](st, rng, j))
    return out
