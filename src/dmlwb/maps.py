"""Polynomial self-maps of the affine plane and their rational inverses.

A PolyMap holds two polynomial components and, optionally, a verified
rational inverse.  Verification composes the two maps symbolically in
both orders and insists on the identity, so a PolyMap carrying an
inverse is certified birational.

Composition convention: compose_map(f, g) is the map p -> f(g(p)).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import (
    IndeterminacyError,
    InverseVerificationError,
    ZeroDenominatorError,
)
from .parsing import parse_poly, parse_ratfunc_pair
from .poly import Poly2, compose_rational, exact_div, normalize_primitive, poly_gcd


class Point(NamedTuple):
    x: Fraction
    y: Fraction

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


def point(x, y) -> Point:
    """Coerce a coordinate pair to an exact rational Point."""
    return Point(Fraction(x), Fraction(y))


class RatFunc:
    """Rational function num/den in lowest terms with canonical denominator.

    The denominator is primitive with positive leading coefficient in
    graded lexicographic order, so equal functions compare equal.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly2, den: Poly2):
        if den.is_zero:
            raise ZeroDenominatorError("rational function with zero denominator")
        if num.is_zero:
            self.num = Poly2.zero()
            self.den = Poly2.one()
            return
        g = poly_gcd(num, den)
        if not g.is_constant():
            num = exact_div(num, g)
            den = exact_div(den, g)
        den_norm = normalize_primitive(den)
        scale = den.coeff(*den.leading_monomial()) / den_norm.coeff(
            *den_norm.leading_monomial()
        )
        self.num = num * (1 / scale)
        self.den = den_norm

    @classmethod
    def from_poly(cls, p: Poly2) -> "RatFunc":
        return cls(p, Poly2.one())

    @classmethod
    def parse(cls, text: str) -> "RatFunc":
        return cls(*parse_ratfunc_pair(text))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def is_polynomial(self) -> bool:
        return self.den == Poly2.one()

    def evaluate(self, p: Point) -> Fraction:
        dv = self.den.evaluate(p.x, p.y)
        if dv == 0:
            raise IndeterminacyError(
                f"denominator vanishes at {p}", point=p
            )
        return self.num.evaluate(p.x, p.y) / dv

    def substitute(self, gx: "RatFunc", gy: "RatFunc") -> "RatFunc":
        """self(gx, gy) as a reduced rational function."""
        n1, d1 = compose_rational(self.num, gx.num, gx.den, gy.num, gy.den)
        n2, d2 = compose_rational(self.den, gx.num, gx.den, gy.num, gy.den)
        if n2.is_zero:
            raise ZeroDenominatorError(
                "denominator vanishes identically under substitution"
            )
        return RatFunc(n1 * d2, d1 * n2)

    def substitute_polys(self, p1: Poly2, p2: Poly2) -> "RatFunc":
        """self(p1, p2) for polynomial arguments."""
        return RatFunc(self.num.compose(p1, p2), self.den.compose(p1, p2))

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


_RF_X = RatFunc.from_poly(Poly2.variable("x"))
_RF_Y = RatFunc.from_poly(Poly2.variable("y"))


class RationalMap:
    """Pair of rational functions acting as a map of the plane."""

    __slots__ = ("g1", "g2")

    def __init__(self, g1: RatFunc, g2: RatFunc):
        self.g1 = g1
        self.g2 = g2

    def apply(self, p: Point) -> Point:
        return Point(self.g1.evaluate(p), self.g2.evaluate(p))

    def compose(self, other: "RationalMap") -> "RationalMap":
        """self after other: (self . other)(p) = self(other(p))."""
        return RationalMap(
            self.g1.substitute(other.g1, other.g2),
            self.g2.substitute(other.g1, other.g2),
        )

    def is_identity(self) -> bool:
        return self.g1 == _RF_X and self.g2 == _RF_Y

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMap):
            return NotImplemented
        return self.g1 == other.g1 and self.g2 == other.g2

    def __str__(self) -> str:
        return f"({self.g1}, {self.g2})"


class PolyMap:
    """Polynomial endomorphism of the affine plane, optionally birational.

    When an inverse is supplied it is verified symbolically; failure
    raises InverseVerificationError.
    """

    __slots__ = ("f1", "f2", "inverse")

    def __init__(self, f1: Poly2, f2: Poly2, inverse: Optional[RationalMap] = None):
        self.f1 = f1
        self.f2 = f2
        if inverse is not None and not verify_inverse(f1, f2, inverse):
            raise InverseVerificationError(
                "claimed inverse does not invert the map"
            )
        self.inverse = inverse

    @classmethod
    def identity(cls) -> "PolyMap":
        ident = RationalMap(_RF_X, _RF_Y)
        return cls(Poly2.variable("x"), Poly2.variable("y"), ident)

    def apply(self, p: Point) -> Point:
        return Point(self.f1.evaluate(p.x, p.y), self.f2.evaluate(p.x, p.y))

    def algebraic_degree(self) -> int:
        """max(deg f1, deg f2); a constant map, (0, 0) included, has degree 0."""
        return int(max(0, self.f1.total_degree(), self.f2.total_degree()))

    def as_rational_map(self) -> RationalMap:
        return RationalMap(RatFunc.from_poly(self.f1), RatFunc.from_poly(self.f2))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.f1 == other.f1 and self.f2 == other.f2

    def __str__(self) -> str:
        return f"({self.f1}, {self.f2})"

    def __repr__(self) -> str:
        return f"PolyMap({self})"


def verify_inverse(f1: Poly2, f2: Poly2, g: RationalMap) -> bool:
    """Check that g inverts (f1, f2): both compositions reduce to the identity."""
    fg1 = g.g1.substitute_polys(f1, f2)
    fg2 = g.g2.substitute_polys(f1, f2)
    if not (fg1 == _RF_X and fg2 == _RF_Y):
        return False
    try:
        gf1 = RatFunc.from_poly(f1).substitute(g.g1, g.g2)
        gf2 = RatFunc.from_poly(f2).substitute(g.g1, g.g2)
    except ZeroDenominatorError:
        return False
    return gf1 == _RF_X and gf2 == _RF_Y


def compose_map(f: PolyMap, g: PolyMap) -> PolyMap:
    """f after g.  Carries a composed inverse when both maps have one."""
    h1 = f.f1.compose(g.f1, g.f2)
    h2 = f.f2.compose(g.f1, g.f2)
    inverse = None
    if f.inverse is not None and g.inverse is not None:
        inverse = g.inverse.compose(f.inverse)
    h = PolyMap.__new__(PolyMap)
    h.f1 = h1
    h.f2 = h2
    # inverse correctness is inherited from the verified factors
    h.inverse = inverse
    return h


def iterate_map(f: PolyMap, k: int, with_inverse: bool = False) -> PolyMap:
    """k-th compositional power; k = 0 gives the identity.

    Inverse components grow quickly under composition, so the composed
    inverse is only carried along when explicitly requested.
    """
    if k < 0:
        raise ValueError("iterate_map expects k >= 0")
    base = f
    if not with_inverse and f.inverse is not None:
        base = PolyMap(f.f1, f.f2)
    result = PolyMap.identity()
    if not with_inverse:
        result = PolyMap(result.f1, result.f2)
    for _ in range(k):
        result = compose_map(base, result)
    return result


# -- JSON interchange -------------------------------------------------------

def map_to_json_dict(f: PolyMap) -> dict:
    out: dict = {"f1": str(f.f1), "f2": str(f.f2)}
    if f.inverse is not None:
        out["inverse"] = {
            "g1": f"({f.inverse.g1.num})/({f.inverse.g1.den})",
            "g2": f"({f.inverse.g2.num})/({f.inverse.g2.den})",
        }
    return out


def map_from_json_dict(data: dict) -> PolyMap:
    if "f1" not in data or "f2" not in data:
        raise ValueError("map description needs 'f1' and 'f2' entries")
    f1 = parse_poly(data["f1"])
    f2 = parse_poly(data["f2"])
    inverse = None
    if data.get("inverse") is not None:
        inv = data["inverse"]
        inverse = RationalMap(RatFunc.parse(inv["g1"]), RatFunc.parse(inv["g2"]))
    return PolyMap(f1, f2, inverse)


def load_map(path: str) -> PolyMap:
    with open(path, "r", encoding="utf-8") as fh:
        return map_from_json_dict(json.load(fh))


def dump_map(f: PolyMap, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(map_to_json_dict(f), fh, indent=2)
        fh.write("\n")
