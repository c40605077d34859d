#!/usr/bin/env python3
"""A gallery of scales: structure flags, orders, closures, and the
interval-world catalog's membership rules."""

from fractions import Fraction

from scaletop import (
    BallScale,
    BallSupersetScale,
    BoundedBallSupersetScale,
    ExactNumber,
    Interval,
    LineSet,
    Scale,
    SheetPoint,
    SheetSet,
    classify,
    discrete_space,
    enumerate_scales,
    f_closure,
    finer,
    full_line_carrier,
    iw_finer,
    iw_is_q_closed,
    iw_is_subscale,
    p_structure,
    sierpinski,
    trivial_scale,
)


def fz(*sets):
    return frozenset(frozenset(s) for s in sets)


def show_flags(label, scale):
    flags = classify(scale)
    on = [
        name
        for name in (
            "condition_F", "is_F", "is_P", "is_U", "weak_U",
            "is_I", "weak_I", "is_L", "weak_L", "neighborhood_closed",
        )
        if getattr(flags, name)
    ]
    print(f"{label:34s} -> {', '.join(on) if on else '(none)'}")


print("Structure flags on small finite spaces")
print("-" * 72)
show_flags("trivial scale on the 2-point chain", trivial_scale(sierpinski()))
d2 = discrete_space(2)
show_flags(
    "principal scale, singleton seeds",
    p_structure(d2, [frozenset({0}), frozenset({1})]),
)
d3 = discrete_space(3)
filter_not_i = Scale(
    d3,
    fz((0, 1), (0, 2), (0, 1, 2)),
    (
        fz((0, 1), (0, 1, 2)),
        fz((0, 1), (0, 1, 2)),
        fz((0, 2), (0, 1, 2)),
    ),
)
show_flags("filters that are not inter-closed", filter_not_i)
print()
print("That last scale is a filter structure at every point, yet")
print("intersecting {0,1} with the declared {0,2} yields {0}, which is")
print("assigned nowhere: filters do not force intersection structure.")

print()
print("The trivial scale refines everything; closures build structure")
print("-" * 72)
t = trivial_scale(d2)
count = 0
for scale in enumerate_scales(d2):
    assert finer(t, scale)
    count += 1
print(f"trivial scale is finer than all {count} scales on the discrete pair")

seed = Scale(d2, fz((0,), (1,)), (fz((0,)), fz((1,))))
closed = f_closure(seed)
print("filter closure of one-neighborhood assignments equals the principal")
print(f"scale those neighborhoods generate: "
      f"{closed == p_structure(d2, [frozenset({0}), frozenset({1})])}")

print()
print("Interval-world catalog membership (all decisions exact)")
print("-" * 72)
line = full_line_carrier()
tenth = ExactNumber(Fraction(1, 10))
fifth = ExactNumber(Fraction(1, 5))
q_a = BallSupersetScale(line, a=tenth)
q_oa = BallSupersetScale(line, a=tenth, closed_ball=False)
q_ob = BallSupersetScale(line, a=fifth, closed_ball=False)
x = SheetPoint(0, ExactNumber(Fraction(1, 2)))
unit = SheetSet((LineSet.of(Interval(ExactNumber(0), ExactNumber(1), False, False)),))
print(f"(0,1) assigned to 1/2 under the closed-1/10-ball rule? "
      f"{q_a.member(x, unit)}")
print(f"closed-ball demand sits inside the open-ball demand?   "
      f"{iw_is_subscale(q_a, q_oa)}")
print(f"smaller radius refines larger radius?                  "
      f"{iw_finer(q_oa, q_ob)}")

bq = BoundedBallSupersetScale(line, a=tenth)
bounded = SheetSet((LineSet.of(Interval(ExactNumber(0), ExactNumber(3), False, False)),))
empty = SheetSet((LineSet.empty(),))
print()
print("Bounded-ball scale on the whole line:")
print(f"  (0,3) open?            {bq.is_q_open(bounded)}")
print(f"  (0,3) closed?          {iw_is_q_closed(bq, bounded)}")
print(f"  empty set closed?      {iw_is_q_closed(bq, empty)}")
print(f"  empty set open?        {bq.is_q_open(empty)}")
print("No bounded nonempty set is closed here: complements of bounded sets")
print("are unbounded and differ from the full line, so they are assigned")
print("to no point.")

cq = BallScale(line, a=tenth)
sym = SheetSet((LineSet.of(Interval(ExactNumber(Fraction(2, 5)),
                                    ExactNumber(Fraction(3, 5)), False, False)),))
print()
print(f"Symmetric balls of radius strictly above 1/10 around 1/2:")
print(f"  (2/5, 3/5)? {cq.member(x, sym)}  (radius exactly 1/10 misses the strict bar)")
print(f"  (0, 1)?     {cq.member(x, unit)}   (radius 1/2 clears it)")
