"""Plane curves: fixedness, periodicity, transforms, and intersections.

Curves are reduced: the stored equation is the product of the distinct
irreducible factors (primitive, positive leading coefficient), so curve
equality is plain equation equality.  Everything dynamical (transforms,
divisibility, the multiplicity recursion) is computed on our own exact
polynomials.

Irreducible factorization over Q is exact here for three shapes of p,
and delegated to sympy (imported on first use) for every other one:

1. Total degree 1.  A factorization has a factor of degree 0, a
   constant, so p is irreducible.
2. a(x)*y + b(x).  In (Q[x])[y], Gauss's lemma makes p the product of
   its content g = gcd(a, b) and a primitive part of y-degree 1; a
   primitive polynomial of y-degree 1 is irreducible, since any proper
   factor would lie in Q[x] and divide the content.  So p is irreducible
   iff g is constant; a nonconstant g still has to be factored in Q[x],
   and that goes to sympy.
3. c*y^2 + B(x)*y + E(x) with c a nonzero constant.  A factor of
   y-degree 0 divides the y-leading coefficient c, so it is constant:
   p is reducible iff it splits as c*(y - r1)*(y - r2) with r1, r2 in
   Q[x].  Then B^2 - 4cE = (c*(r1 - r2))^2, so p is reducible iff
   D = B^2 - 4cE is a square S^2 in Q[x], and the factors are
   2c*y + B - S and 2c*y + B + S (one factor of multiplicity 2 when
   D = 0).  Each has y-degree 1 and a constant y-leading coefficient,
   hence is irreducible.  The square root is computed coefficient by
   coefficient from the top and accepted only when S*S == D holds
   exactly.

Strict transforms follow the substitute-and-strip recipe: substitute
the supplied rational map, clear denominators minimally, and remove the
irreducible factors of the numerator that divide the cleared
denominator.  Detecting that a map genuinely contracts a curve is a
separate test (the image equation can look like a curve even then), so
callers that need the hypothesis "f does not contract C" check it via
is_contracted_factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import ContractionError, DmlwbError, MissingInverseError
from .hirzebruch import FnModel
from .maps import Point, PolyMap, RationalMap
from .parsing import parse_poly
from .poly import (
    Poly2,
    compose_rational,
    divide_by_y,
    divides,
    is_constant_mod,
    normalize_primitive,
    poly_gcd,
    restrict_y0,
    sqrt_x,
    x_order,
    y_coefficients,
)

def _to_sympy(p: Poly2):
    import sympy

    rep = {
        (i, j): sympy.Rational(c.numerator, c.denominator) for (i, j), c in p.terms()
    }
    return sympy.Poly.from_dict(rep, *sympy.symbols("x y"), domain="QQ")


def _from_sympy(sp) -> Poly2:
    import sympy

    terms = {}
    for monom, coeff in sp.terms():
        q = sympy.Rational(coeff)
        terms[(int(monom[0]), int(monom[1]))] = Fraction(int(q.p), int(q.q))
    return Poly2.from_terms(terms)


def _factor_exact(p: Poly2) -> Optional[list[tuple[Poly2, int]]]:
    """Factors of p for the three shapes of the module docstring, else None."""
    if p.total_degree() == 1:
        return [(normalize_primitive(p), 1)]
    cs = y_coefficients(p)
    zero = Poly2.zero()
    if p.deg_y() == 1:
        if poly_gcd(cs[1], cs.get(0, zero)).is_constant():
            return [(normalize_primitive(p), 1)]
        return None
    if p.deg_y() != 2 or not cs[2].is_constant():
        return None
    c = cs[2].constant_value()
    B, E = cs.get(1, zero), cs.get(0, zero)
    D = B * B - E * (4 * c)
    lin = Poly2.variable("y") * (2 * c) + B
    if D.is_zero:
        return [(normalize_primitive(lin), 2)]
    S = sqrt_x(D)
    if S is None:
        return [(normalize_primitive(p), 1)]
    return [(normalize_primitive(lin - S), 1), (normalize_primitive(lin + S), 1)]


def factor_poly(p: Poly2) -> list[tuple[Poly2, int]]:
    """Irreducible factorization over Q (constants dropped, factors normalized)."""
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    out = _factor_exact(p)
    if out is None:
        import sympy

        out = []
        for fac, mult in sympy.factor_list(_to_sympy(p))[1]:
            q = normalize_primitive(_from_sympy(fac))
            if not q.is_constant():
                out.append((q, int(mult)))
    out.sort(key=lambda fm: sorted(fm[0].terms()))
    return out


@dataclass(frozen=True, slots=True)
class Curve:
    """Reduced plane curve over Q.

    Curve(equation) stores the primitive product of the distinct
    irreducible factors of equation; equality compares that equation.
    """

    equation: Poly2
    factors: tuple[Poly2, ...] = field(init=False, compare=False)

    def __post_init__(self):
        if self.equation.is_zero or self.equation.is_constant():
            raise ValueError("a curve equation must be a nonconstant polynomial")
        self._set_factors([f for f, _ in factor_poly(self.equation)])

    @classmethod
    def _from_factors(cls, factors) -> "Curve":
        """Curve of distinct irreducible factors already in factor_poly form."""
        C = object.__new__(cls)
        C._set_factors(factors)
        return C

    def _set_factors(self, factors) -> None:
        eq = Poly2.one()
        for f in factors:
            eq = eq * f
        object.__setattr__(self, "factors", tuple(factors))
        object.__setattr__(self, "equation", normalize_primitive(eq))

    @classmethod
    def from_string(cls, text: str) -> "Curve":
        return cls(parse_poly(text))

    @property
    def is_irreducible(self) -> bool:
        return len(self.factors) == 1

    def degree(self) -> int:
        return int(self.equation.total_degree())

    def contains(self, p: Point) -> bool:
        return self.equation.vanishes_at(p.x, p.y)

    def irreducible_components(self) -> list["Curve"]:
        return [Curve._from_factors((f,)) for f in self.factors]

    def __str__(self) -> str:
        return str(self.equation)


# -- fixedness and periodicity ------------------------------------------------

def is_fixed_curve(C: Curve, f: PolyMap) -> bool:
    """True iff C's equation divides C composed with f.

    For a polynomial morphism of the plane and a reduced equation this
    is exactly f(C) being contained in C (components may permute).
    """
    pulled = C.equation.compose(f.f1, f.f2)
    return divides(C.equation, pulled)


def is_periodic_curve(C: Curve, f: PolyMap, K: int) -> Optional[int]:
    """Least period k <= K with C's equation dividing C after f^k, else None."""
    if K < 1:
        raise ValueError("period bound must be at least 1")
    comp = C.equation
    for k in range(1, K + 1):
        comp = comp.compose(f.f1, f.f2)
        if divides(C.equation, comp):
            return k
    return None


# -- contraction detection -----------------------------------------------------

def is_contracted_factor(D: Poly2, f: PolyMap) -> bool:
    """True iff f maps the irreducible curve D = 0 to a single point.

    Both components of f must reduce to constants modulo D; a single
    irreducible equation is its own normal-form divisor, so the test is
    exact.
    """
    return is_constant_mod(f.f1, D) and is_constant_mod(f.f2, D)


def contracts_curve(C: Curve, f: PolyMap) -> bool:
    """True iff every point of some component of C has the same f-image."""
    return any(is_contracted_factor(F, f) for F in C.factors)


# -- strict transforms ---------------------------------------------------------

def strict_transform_inverse(C: Curve, g: RationalMap) -> Curve:
    """Image curve of C under the inverse description g.

    Substitutes g into the equation, clears denominators minimally, and
    strips numerator factors dividing the cleared denominator (the
    exceptional components introduced by clearing).
    """
    num, den = compose_rational(
        C.equation, g.g1.num, g.g1.den, g.g2.num, g.g2.den
    )
    if num.is_zero:
        raise ContractionError("substituted equation vanishes identically")
    kept = []
    for fac, _ in factor_poly(num):
        if den.is_constant() or not divides(fac, den):
            kept.append(fac)
    if not kept:
        raise ContractionError(
            "every factor of the substituted equation is exceptional"
        )
    return Curve._from_factors(kept)


def push_forward_curve(C: Curve, f: PolyMap) -> Curve:
    """The image curve f(C), computed through the verified inverse."""
    if f.inverse is None:
        raise MissingInverseError("push-forward needs the inverse of the map")
    return strict_transform_inverse(C, f.inverse)


def pullback_curve(C: Curve, f: PolyMap) -> Curve:
    """The preimage curve f^(-1)(C) minus the f-contracted components."""
    pulled = C.equation.compose(f.f1, f.f2)
    if pulled.is_zero or pulled.is_constant():
        raise ContractionError("preimage equation is constant")
    kept = [fac for fac, _ in factor_poly(pulled) if not is_contracted_factor(fac, f)]
    if not kept:
        raise ContractionError("preimage consists of contracted components only")
    return Curve._from_factors(kept)


# -- closures on the ruled surface ---------------------------------------------

def fn_closure_data(C: Curve, n: int) -> tuple[int, int]:
    """Clearing exponents (M, J) for the closure of C in F_n.

    With x = x1/x2 and y = x3/(x2^n * x4), multiplying C by x2^M * x4^J
    where M = max(i + n*j) and J = deg_y clears denominators minimally.
    """
    eq = C.equation
    M = max(i + n * j for (i, j), _ in eq.terms())
    return M, eq.deg_y()


def fn_chart_equation(C: Curve, n: int) -> Poly2:
    """Closure of C in F_n written in the chart at Q = [1, 0, 1, 0].

    Chart coordinates (u, w) = (x2/x1, x1^n * x4/x3) occupy the (x, y)
    slots of the returned polynomial; Q sits at the origin.
    """
    M, J = fn_closure_data(C, n)
    return Poly2.from_terms(
        {(M - i - n * j, J - j): c for (i, j), c in C.equation.terms()}
    )


def closure_passes_through_Q(C: Curve, n: int) -> bool:
    """Whether the F_n closure of C contains the fixed point [1, 0, 1, 0]."""
    return fn_chart_equation(C, n).evaluate(0, 0) == 0


def closure_meets_indeterminacy(C: Curve, n: int) -> bool:
    """Whether the F_n closure of C contains the point [1, 0, 0, 1].

    Evaluating the cleared closure equation at (1, 0, 0, 1) leaves the
    coefficient of the monomial x^M (pure base direction), so membership
    is that coefficient vanishing.
    """
    M, _ = fn_closure_data(C, n)
    return C.equation.coeff(M, 0) == 0


# -- local intersection multiplicities -------------------------------------------

def _fulton_at_origin(F: Poly2, G: Poly2):
    """Fulton's recursion for the multiplicity of (F, G) at the origin.

    Assumes no common component through the origin (screened by the
    caller); returns a nonnegative integer.
    """
    total = 0
    while True:
        if F.evaluate(0, 0) != 0 or G.evaluate(0, 0) != 0:
            return total
        f0 = restrict_y0(F)
        g0 = restrict_y0(G)
        if f0.is_zero and g0.is_zero:
            return math.inf
        if f0.is_zero:
            F = divide_by_y(F)
            total += x_order(g0)
            continue
        if g0.is_zero:
            G = divide_by_y(G)
            total += x_order(f0)
            continue
        r, s = f0.deg_x(), g0.deg_x()
        if r > s:
            F, G = G, F
            f0, g0 = g0, f0
            r, s = s, r
        scale = g0.coeff(s, 0) / f0.coeff(r, 0)
        G = G - F * Poly2.from_terms({(s - r, 0): scale})


def multiplicity_at_origin(F: Poly2, G: Poly2):
    """Local intersection multiplicity of two (possibly reducible) equations."""
    if F.is_zero or G.is_zero:
        raise ValueError("multiplicity needs two nonzero equations")
    g = poly_gcd(F, G)
    if not g.is_constant() and g.evaluate(0, 0) == 0:
        return math.inf
    return _fulton_at_origin(F, G)


def intersection_multiplicity(C: Curve, D: Curve, p: Point):
    """Local multiplicity of C and D at the rational point p.

    0 off the curves, infinity when a shared component passes through p,
    and the usual finite count otherwise (1 exactly for transverse
    smooth branches).
    """
    x = Poly2.variable("x")
    y = Poly2.variable("y")
    F = C.equation.compose(x + p.x, y + p.y)
    G = D.equation.compose(x + p.x, y + p.y)
    return multiplicity_at_origin(F, G)


def _restrict_x(p: Poly2, x0: Fraction) -> Poly2:
    """p(x0, y) with the y powers moved into the x slot (univariate form)."""
    out = {}
    for j, cj in y_coefficients(p).items():
        v = cj.evaluate(x0, 0)
        if v != 0:
            out[(j, 0)] = v
    return Poly2.from_terms(out)


def _rational_roots_x(p: Poly2) -> tuple[list[Fraction], bool]:
    """Rational roots of a univariate-in-x polynomial plus an
    irrational-factor flag."""
    if p.is_zero:
        raise ValueError("the zero polynomial has every root")
    roots: list[Fraction] = []
    has_irrational = False
    for fac, _ in factor_poly(p):
        if fac.deg_x() == 1:
            roots.append(-fac.coeff(0, 0) / fac.coeff(1, 0))
        elif fac.deg_x() >= 2:
            has_irrational = True
    return sorted(set(roots)), has_irrational


def resultant_y(F: Poly2, G: Poly2) -> Poly2:
    """Resultant eliminating y, as a univariate-in-x polynomial."""
    import sympy

    x, y = sympy.symbols("x y")
    r = sympy.resultant(_to_sympy(F).as_expr(), _to_sympy(G).as_expr(), y)
    return _from_sympy(sympy.Poly(r, x, y))


def rational_intersection_points(C: Curve, D: Curve) -> tuple[list[Point], bool]:
    """All rational intersection points, plus a flag for detected
    non-rational intersections (resultant factors without rational roots).

    Requires coprime curves (no shared component).
    """
    if not poly_gcd(C.equation, D.equation).is_constant():
        raise ValueError("curves share a component; intersection is not finite")
    ce, de = C.equation, D.equation
    flag = False
    xs: list[Fraction] = []
    if ce.deg_y() == 0 and de.deg_y() == 0:
        return [], False
    if ce.deg_y() == 0 or de.deg_y() == 0:
        vertical = ce if ce.deg_y() == 0 else de
        xs, flag = _rational_roots_x(vertical)
    else:
        res = resultant_y(ce, de)
        if res.is_zero:
            raise ValueError("resultant vanished despite coprime inputs")
        if res.is_constant():
            return [], False
        xs, flag = _rational_roots_x(res)
    points: list[Point] = []
    for x0 in xs:
        common = poly_gcd(_restrict_x(ce, x0), _restrict_x(de, x0))
        if common.is_constant():
            continue
        ys, yflag = _rational_roots_x(common)
        flag = flag or yflag
        for y0 in ys:
            points.append(Point(x0, y0))
    points.sort()
    return points, flag


# -- probes around the fixed point at infinity ----------------------------------

@dataclass(frozen=True)
class PeriodicityProbeReport:
    """Outcome of the meets-indeterminacy periodicity probe.

    meets[k] records whether the closure of the k-th push-forward
    contains the indeterminacy point.  When every step meets it, the
    curve is predicted periodic; flag is set when no period <= K was
    found despite that (either K is too small or something is wrong).
    """

    verdict: str
    meets: tuple[bool, ...]
    curves: tuple[str, ...]
    fail_at: Optional[int] = None
    period: Optional[int] = None
    flag: bool = False
    notes: str = ""


def periodicity_probe_thm13(
    model: FnModel, C: Curve, N: int, K: int
) -> PeriodicityProbeReport:
    """Push C forward N times; if every image closure meets the
    indeterminacy point of the stable model, search for a period <= K.

    Contracted curves fall outside the hypotheses and are reported as
    such rather than pushed through.
    """
    if not model.is_stable:
        raise DmlwbError(
            "periodicity probe needs the model at or above the stability threshold"
        )
    if N < 1 or K < 1:
        raise ValueError("N and K must be at least 1")
    f = model.affine_map()
    meets: list[bool] = []
    trail: list[str] = []

    def report(verdict: str, **fields) -> PeriodicityProbeReport:
        return PeriodicityProbeReport(verdict, tuple(meets), tuple(trail), **fields)

    current = C
    for k in range(N + 1):
        trail.append(str(current))
        hit = closure_meets_indeterminacy(current, model.n)
        meets.append(hit)
        if not hit:
            return report(
                "hypothesis_fails", fail_at=k,
                notes=f"push-forward {k} misses the indeterminacy point; no claim",
            )
        if k == N:
            break
        if contracts_curve(current, f):
            return report(
                "contracted", fail_at=k,
                notes=f"the map contracts push-forward {k}; outside the hypotheses",
            )
        current = push_forward_curve(current, f)
    period = is_periodic_curve(C, f, K)
    if period is not None:
        return report("consistent_periodic", period=period)
    return report(
        "period_not_found", flag=True,
        notes=f"all {N + 1} push-forwards meet the indeterminacy point "
        f"but no period <= {K} was found",
    )


@dataclass(frozen=True)
class DecreasingChainReport:
    """Multiplicity chain a_m = I_Q(f^-m C, f^-(m+1) C) in the chart at Q."""

    status: str
    sequence: tuple[int, ...]
    strictly_decreasing: bool
    fail_at: Optional[int] = None
    notes: str = ""


def decreasing_intersection_experiment(
    model: FnModel, C: Curve, M: int
) -> DecreasingChainReport:
    """Compute the chain of local multiplicities at Q between successive
    pullbacks of C.

    Hypotheses: stable model, C passes through Q, C not fixed.  The
    chain is expected to drop by at least 1 each step while the
    pullbacks keep passing through Q.  Only the first two hypotheses
    are checked.  Near Q a stable model acts on a branch with orders
    (p, q) in the chart (u, w) as (p, q) -> (p, q + deg(A)*p), so no
    curve through Q is fixed.  A curve through Q also involves y, so
    its pullback has a component the map does not contract.
    """
    if not model.is_stable:
        raise DmlwbError(
            "the chain experiment needs the model at or above the stability threshold"
        )
    if M < 0:
        raise ValueError("M must be nonnegative")
    f = model.plane_map()
    seq: list[int] = []

    def report(status: str, notes: str, fail_at=None) -> DecreasingChainReport:
        return DecreasingChainReport(
            status=status,
            sequence=tuple(seq),
            strictly_decreasing=all(b <= a - 1 for a, b in zip(seq, seq[1:])),
            fail_at=fail_at,
            notes=notes,
        )

    if not closure_passes_through_Q(C, model.n):
        return report(
            "hypothesis_failed", "the closure of C does not pass through Q", 0
        )
    pullbacks = [C]
    left_at = None
    for k in range(1, M + 2):
        pullbacks.append(pullback_curve(pullbacks[-1], f))
        if not closure_passes_through_Q(pullbacks[-1], model.n):
            left_at = k
            break
    for m in range(len(pullbacks) - 1):
        a = multiplicity_at_origin(
            fn_chart_equation(pullbacks[m], model.n),
            fn_chart_equation(pullbacks[m + 1], model.n),
        )
        if a == math.inf:
            return report(
                "degenerate", "successive pullbacks share a component through Q", m
            )
        seq.append(a)
    if left_at is None:
        return report("completed", "")
    # expected terminal behavior: the chain forces the curve off Q
    return report("left_Q", f"pullback {left_at} no longer passes through Q", left_at)


def prop52_flag(model: FnModel, C: Curve, K: int) -> bool:
    """Flag a contradiction: a curve through Q that is periodic with
    period >= 2 under a stable model.

    The supporting result says periodic curves through Q must already
    be fixed, so True here means something is inconsistent.
    """
    if not model.is_stable:
        raise DmlwbError("the flag is only meaningful for a stable model")
    if not closure_passes_through_Q(C, model.n):
        return False
    period = is_periodic_curve(C, model.plane_map(), K)
    return period is not None and period >= 2
