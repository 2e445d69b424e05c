"""Rational ruled surface models for triangular plane maps.

The surface F_n is the quotient of A^4 minus {x1 = x2 = 0} and
{x3 = x4 = 0} by (x1, x2, x3, x4) ~ (t*x1, t*x2, s*x3, (s/t^n)*x4).
A triangular map f(x, y) = (a*x + b, A(x)*y + B(x)) with deg A >= 1
extends to F_n by

    [x1, x2, x3, x4] -> [a*x1 + b*x2, x2, Ah*x3 + Bh*x4, x2^d * x4]

where d = max(deg A, deg B - n) and Ah, Bh are the x2-homogenizations
of A and B to degrees d and d + n.  For n at or above the stability
threshold max(0, deg B - deg A + 1) the extension is algebraically
stable, its sole indeterminate point is [1, 0, 0, 1], and the fiber at
base infinity is contracted to the fixed point [1, 0, 1, 0].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    ChartDomainError,
    DmlwbError,
    ExcludedLocusError,
    IndeterminacyError,
    NotTriangularError,
)
from .maps import Point, PolyMap, RatFunc, RationalMap
from .poly import Poly2, as_fraction, restrict_y0, y_coefficients


@dataclass(frozen=True, slots=True)
class FnPoint:
    """Point of F_n in canonical homogeneous coordinates.

    FnPoint(n, coords) takes any four rationals.  Canonicalization scales
    the base pair (x1, x2) so its first nonzero entry is 1 (the x4 entry
    picks up the lambda^(-n) twist), then scales the fiber pair (x3, x4)
    the same way.  Two raw quadruples are equivalent exactly when their
    canonical forms agree.
    """

    n: int
    coords: tuple[Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("F_n needs n >= 0")
        vals = [as_fraction(c) for c in self.coords]
        if len(vals) != 4:
            raise ValueError("an F_n point needs four coordinates")
        x1, x2, x3, x4 = vals
        if x1 == 0 and x2 == 0:
            raise ExcludedLocusError("x1 = x2 = 0 lies in the excluded locus")
        if x3 == 0 and x4 == 0:
            raise ExcludedLocusError("x3 = x4 = 0 lies in the excluded locus")
        lam = x1 if x1 != 0 else x2
        x1, x2, x4 = x1 / lam, x2 / lam, x4 * lam**self.n
        mu = x3 if x3 != 0 else x4
        x3, x4 = x3 / mu, x4 / mu
        object.__setattr__(self, "coords", (x1, x2, x3, x4))

    def __str__(self) -> str:
        inner = ", ".join(str(c) for c in self.coords)
        return f"[{inner}] on F_{self.n}"


def embed_A2(p: Point, n: int) -> FnPoint:
    """The embedding (x, y) -> [x, 1, y, 1], canonicalized."""
    return FnPoint(n, (p.x, 1, p.y, 1))


def fixed_point_Q(n: int) -> FnPoint:
    """The contracted image point [1, 0, 1, 0]."""
    return FnPoint(n, (1, 0, 1, 0))


def indeterminacy_point(n: int) -> FnPoint:
    """The single indeterminate point [1, 0, 0, 1] of a stable model."""
    return FnPoint(n, (1, 0, 0, 1))


def chart_around_Q(P: FnPoint) -> tuple[Fraction, Fraction]:
    """Chart coordinates (u, w) = (x2/x1, x1^n * x4/x3) centered at Q.

    Well defined on equivalence classes; requires x1 != 0 and x3 != 0.
    """
    x1, x2, x3, x4 = P.coords
    if x1 == 0 or x3 == 0:
        raise ChartDomainError(
            f"{P} lies outside the chart around [1, 0, 1, 0]"
        )
    return (x2 / x1, x1**P.n * x4 / x3)


def stability_threshold(A: Poly2, B: Poly2) -> int:
    """Least n making the extension algebraically stable: max(0, deg B - deg A + 1)."""
    if A.deg_y() > 0 or B.deg_y() > 0:
        raise ValueError("A and B must be polynomials in x alone")
    if A.total_degree() < 1:
        raise ValueError("the triangular case under study needs deg A >= 1")
    if B.is_zero:
        return 0
    return max(0, int(B.total_degree()) - int(A.total_degree()) + 1)


def _homogenize(P: Poly2, total: int) -> Poly2:
    """x2-homogenization of a univariate P(x) to degree total.

    The result reads (x, y) as (x1, x2): sum of p_i * x1^i * x2^(total-i).
    """
    return Poly2.from_terms(
        {(i, total - i): c for (i, _), c in P.terms()}
    )


def triangular_parts(f: PolyMap) -> tuple[Fraction, Fraction, Poly2, Poly2]:
    """Extract (a, b, A, B) from f = (a*x + b, A(x)*y + B(x)) or raise.

    A may be a nonzero constant; FnModel.from_map refuses that case.
    """
    f1, f2 = f.f1, f.f2
    if f1.deg_y() > 0 or f1.deg_x() > 1:
        raise NotTriangularError("first component must be a*x + b")
    a = f1.coeff(1, 0)
    b = f1.coeff(0, 0)
    if a == 0:
        raise NotTriangularError("first component must have a nonzero x coefficient")
    if f2.deg_y() != 1:
        raise NotTriangularError("second component must be A(x)*y + B(x)")
    parts = y_coefficients(f2)
    A = parts[1]
    B = parts.get(0, Poly2.zero())
    return a, b, A, B


class FnModel:
    """A triangular map together with its extension to F_n."""

    __slots__ = ("n", "a", "b", "A", "B", "d", "Ah", "Bh", "threshold")

    def __init__(self, a, b, A: Poly2, B: Poly2, n: int):
        if n < 0:
            raise ValueError("F_n needs n >= 0")
        a = as_fraction(a)
        b = as_fraction(b)
        if a == 0:
            raise ValueError("triangular maps need a != 0")
        threshold = stability_threshold(A, B)
        deg_a = int(A.total_degree())
        deg_b = int(B.total_degree()) if not B.is_zero else None
        d = deg_a if deg_b is None else max(deg_a, deg_b - n)
        self.n = n
        self.a = a
        self.b = b
        self.A = A
        self.B = B
        self.d = d
        self.threshold = threshold
        # Ah, Bh read Poly2 variables (x, y) as (x1, x2)
        self.Ah = _homogenize(A, d)
        self.Bh = _homogenize(B, d + n)

    @classmethod
    def from_map(cls, f: PolyMap, n: Optional[int] = None) -> "FnModel":
        """Build a model from a triangular PolyMap; n defaults to the threshold."""
        a, b, A, B = triangular_parts(f)
        if A.total_degree() < 1:
            raise NotTriangularError(
                "A(x) must have degree >= 1 (otherwise the map is an automorphism)"
            )
        if n is None:
            n = stability_threshold(A, B)
        return cls(a, b, A, B, n)

    @property
    def is_stable(self) -> bool:
        return self.n >= self.threshold

    def require_stable(self, what: str) -> None:
        """Raise DmlwbError unless n is at least the stability threshold,
        below which what is not asserted."""
        if not self.is_stable:
            raise DmlwbError(
                f"{what} needs n at or above the stability threshold "
                f"{self.threshold}; the model has n = {self.n}"
            )

    def plane_map(self) -> PolyMap:
        """The plane map (a*x + b, A(x)*y + B(x)), without an inverse."""
        x, y = Poly2.variable("x"), Poly2.variable("y")
        return PolyMap(x * self.a + self.b, self.A * y + self.B)

    def affine_map(self) -> PolyMap:
        """The plane map (a*x + b, A(x)*y + B(x)) with its verified inverse."""
        f = self.plane_map()
        x = Poly2.variable("x")
        y = Poly2.variable("y")
        g1 = RatFunc((x - self.b) * (1 / self.a), Poly2.one())
        a_of_g = RatFunc.from_poly(self.A).substitute(g1, g1)
        b_of_g = RatFunc.from_poly(self.B).substitute(g1, g1)
        # (y - B(g1)) / A(g1)
        num = (y * b_of_g.den - b_of_g.num) * a_of_g.den
        den = b_of_g.den * a_of_g.num
        g2 = RatFunc(num, den)
        return PolyMap(f.f1, f.f2, RationalMap(g1, g2))

    # -- pointwise action --------------------------------------------------

    def is_indeterminate(self, P: FnPoint) -> bool:
        """Membership in I(f_n) = {x2 = x3 = 0}; asserted at/above threshold only."""
        self.require_stable("the indeterminacy locus formula")
        x1, x2, x3, x4 = P.coords
        return x2 == 0 and x3 == 0

    def apply(self, P: FnPoint) -> FnPoint:
        """Image of P under the extension; raises at indeterminate points.

        On the invariant section {x4 = 0} the formula quadruple can
        degenerate at zeros of A although the map is regular there; in
        that case (stable models only) the image is taken along the
        section: [a*x1 + b*x2, x2, 1, 0].
        """
        if P.n != self.n:
            raise ValueError(f"point lives on F_{P.n}, model on F_{self.n}")
        x1, x2, x3, x4 = P.coords
        c1 = self.a * x1 + self.b * x2
        c2 = x2
        c3 = self.Ah.evaluate(x1, x2) * x3 + self.Bh.evaluate(x1, x2) * x4
        c4 = x2**self.d * x4
        if c3 == 0 and c4 == 0:
            if x2 == 0 and x3 == 0:
                raise IndeterminacyError(
                    f"{P} is the indeterminate point of the extension", point=P
                )
            if self.is_stable and x4 == 0:
                return FnPoint(self.n, (c1, c2, 1, 0))
            raise IndeterminacyError(
                f"extension formula degenerates at {P}; the model is below "
                "the stability threshold so the locus is not asserted",
                point=P,
            )
        return FnPoint(self.n, (c1, c2, c3, c4))

    def __str__(self) -> str:
        return (
            f"FnModel(n={self.n}, a={self.a}, b={self.b}, "
            f"A={self.A}, B={self.B}, d={self.d})"
        )

    __repr__ = __str__


def apply_fn(m: FnModel, P: FnPoint) -> FnPoint:
    return m.apply(P)


# -- symbolic locus checks ---------------------------------------------------

class IndeterminacyInfo:
    """Descriptor for I(f_n) with a membership test and consistency flags."""

    __slots__ = ("model", "description", "fiber_check_passed")

    def __init__(self, model: FnModel):
        model.require_stable("the indeterminacy descriptor")
        self.model = model
        self.description = "x2 = 0 and x3 = 0 (single point [1, 0, 0, 1])"
        self.fiber_check_passed = self._verify_fiber()

    def _verify_fiber(self) -> bool:
        """Symbolic check on the x2 = 0 fiber.

        The image quadruple there is (a*x1, 0, Ah(x1,0)*x3 + Bh(x1,0)*x4,
        0); the map is undefined exactly where the fiber pair vanishes.
        Stability forces Bh(x1, 0) = 0 identically and Ah(x1, 0) =
        lc(A)*x1^d != 0, so the fiber pair vanishes precisely at x3 = 0.
        """
        m = self.model
        if not restrict_y0(m.Bh).is_zero:
            return False
        lead = m.A.coeff(int(m.A.total_degree()), 0)
        if restrict_y0(m.Ah) != Poly2.from_terms({(m.d, 0): lead}):
            return False
        # base pair (a*x1, 0) cannot vanish on the fiber since x1 != 0 there
        return m.d >= 1

    def contains(self, P: FnPoint) -> bool:
        return self.model.is_indeterminate(P)


def indeterminacy_fn(m: FnModel) -> IndeterminacyInfo:
    return IndeterminacyInfo(m)


def contracted_image_check(m: FnModel) -> bool:
    """Verify that the fiber at base infinity contracts to fixed [1, 0, 1, 0].

    Symbolic part: on x2 = 0 the image quadruple reduces to
    (a*x1, 0, lc(A)*x1^d*x3, 0), which canonicalizes to [1, 0, 1, 0]
    off the indeterminate point.  Numeric part: [1, 0, 1, 0] is fixed.
    """
    m.require_stable("the contraction structure")
    info = indeterminacy_fn(m)
    if not info.fiber_check_passed:
        return False
    q = fixed_point_Q(m.n)
    return m.apply(q) == q
