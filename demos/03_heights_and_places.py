"""Absolute values, the product formula, and heights over Q."""

from fractions import Fraction

from dmlwb.dml import height_growth_probe
from dmlwb.maps import PolyMap, point
from dmlwb.parsing import parse_poly
from dmlwb.places import (
    Place,
    abs_value,
    height_affine,
    northcott_enumerate,
    product_formula_check,
    relevant_places,
)

q = Fraction(12, 35)
print("value:", q)
for v in relevant_places(q):
    print(f"  |q|_{v} =", abs_value(q, v))
print("product over all places is 1:", product_formula_check(q))

print("H(3/2, 5) =", height_affine(point("3/2", 5)))

pts = northcott_enumerate(2, 1)
print("projective points of height <= 2 on the line:", len(pts))
for p in pts:
    print("  ", p)

# height along a Henon orbit roughly squares each step
henon = PolyMap(parse_poly("y"), parse_poly("y^2 - x"))
for s in height_growth_probe(henon, point(0, 3), 4):
    print("n =", s.n, " H =", s.height, " log-ratio =", s.log_ratio)
