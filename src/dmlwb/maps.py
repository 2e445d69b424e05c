"""Polynomial self-maps of the affine plane and their rational inverses.

A PolyMap holds two polynomial components and, optionally, a verified
rational inverse.  Verification composes the two maps symbolically in
both orders and insists on the identity, so a PolyMap carrying an
inverse is certified birational.

Composition convention: compose_map(f, g) is the map p -> f(g(p)).

Orbits without gcds
-------------------
PolyMap.iterates(p) yields f(p), f^2(p), ... as reduced Fractions, equal
to repeated PolyMap.apply, but it never normalises a Fraction: the
quadratic-time gcd of Fraction arithmetic is replaced by a prediction of
each denominator and a few single-digit divisions.

Let m = lcm(den p.x, den p.y, d1, d2), where fk = (1/dk) * sum of
c_ij x^i y^j with integers c_ij.

(a) Every iterate lies in Z[1/m]^2.  Z[1/m] is a ring that contains
p.x, p.y and every coefficient c_ij/dk (dk divides m), so it contains
f1(p) and f2(p), and by induction every iterate.  The reduced
denominator of every orbit coordinate is therefore prod_{q | m} q^e
over the primes q of m.

(b) The predicted exponent.  Carry a coordinate as (X, alpha), meaning
x = X / prod q^alpha_q with X an integer; likewise (Y, beta) for y.
Split c_ij = u_ij * prod q^gamma_ijq with u_ij prime to m.  Then the term
c_ij x^i y^j / d of a component with denominator d equals
u_ij X^i Y^j / prod q^e_ijq with

    e_ijq = i*alpha_q + j*beta_q + v_q(d) - gamma_ijq.

With E_q = max(0, max_ij e_ijq) every exponent E_q - e_ijq is >= 0, so

    f(x, y) = N / prod q^E_q,   N = sum_ij u_ij X^i Y^j prod q^(E_q - e_ijq)

with N an integer built from products and sums alone: no common
denominator of the arguments is ever multiplied out.

(c) Coprimality.  Let s_q = min(E_q, v_q(N)); for N != 0 it is found by
dividing N by q while q | N, at most E_q times (a bounded number of
single-digit tests, then math.gcd with the remaining power of q).  In
N' / prod q^(E_q - s_q), every prime of the denominator has
E_q - s_q > 0 and so does not divide N', and by (a) no other prime can
divide it: the pair is coprime, hence the unique reduced form of
f(x, y), and a Fraction built from it without normalising equals the one
PolyMap.apply returns.  N = 0 gives 0/1.  The pair (N', E - s) is again
of the form assumed in (b), which needs X to be an integer and nothing
more, so the step repeats.

When m has more than 64 bits the iterator steps with PolyMap.apply
instead, so factoring m stays within the proven range of arith.factorize.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .arith import factorize, valuation
from .errors import (
    IndeterminacyError,
    InverseVerificationError,
    ZeroDenominatorError,
)
from .parsing import parse_poly, parse_ratfunc_pair
from .poly import (
    Poly2,
    compose_rational,
    exact_div,
    normalize_primitive,
    poly_gcd,
    power_table,
)

# m above this many bits is not factored: PolyMap.iterates steps with apply
KERNEL_MAX_BITS = 64
# single-digit divisions by q before one gcd with the remaining power of q
STRIP_STEPS = 8

if sys.version_info >= (3, 12):
    coprime_fraction = Fraction._from_coprime_ints
else:
    def coprime_fraction(n: int, d: int) -> Fraction:
        return Fraction(n, d, _normalize=False)


class Point(NamedTuple):
    x: Fraction
    y: Fraction

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


def point(x, y) -> Point:
    """Coerce a coordinate pair to an exact rational Point."""
    return Point(Fraction(x), Fraction(y))


@dataclass(frozen=True, slots=True)
class RatFunc:
    """Rational function num/den in lowest terms with canonical denominator.

    The denominator is primitive with positive leading coefficient in
    graded lexicographic order, so equal functions compare equal.
    """

    num: Poly2
    den: Poly2

    def __post_init__(self):
        num, den = self.num, self.den
        if den.is_zero:
            raise ZeroDenominatorError("rational function with zero denominator")
        if num.is_zero:
            num, den = Poly2.zero(), Poly2.one()
        else:
            g = poly_gcd(num, den)
            if not g.is_constant():
                num = exact_div(num, g)
                den = exact_div(den, g)
            den_norm = normalize_primitive(den)
            scale = den.coeff(*den.leading_monomial()) / den_norm.coeff(
                *den_norm.leading_monomial()
            )
            num, den = num * (1 / scale), den_norm
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_poly(cls, p: Poly2) -> "RatFunc":
        return cls(p, Poly2.one())

    @classmethod
    def parse(cls, text: str) -> "RatFunc":
        return cls(*parse_ratfunc_pair(text))

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

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num})/({self.den})"


@dataclass(frozen=True, slots=True)
class RationalMap:
    """Pair of rational functions acting as a map of the plane."""

    g1: RatFunc
    g2: RatFunc

    def apply(self, p: Point) -> Point:
        return Point(self.g1.evaluate(p), self.g2.evaluate(p))

    def compose(self, other: "RationalMap") -> "RationalMap":
        """self after other: (self . other)(p) = self(other(p))."""
        return RationalMap(
            self.g1.substitute(other.g1, other.g2),
            self.g2.substitute(other.g1, other.g2),
        )

    def __str__(self) -> str:
        return f"({self.g1}, {self.g2})"


_IDENTITY = RationalMap(RatFunc.from_poly(Poly2.variable("x")),
                        RatFunc.from_poly(Poly2.variable("y")))


@dataclass(slots=True)
class PolyMap:
    """Polynomial endomorphism of the affine plane, optionally birational.

    When an inverse is supplied it is verified symbolically; failure
    raises InverseVerificationError.  Equality compares f1 and f2 only;
    a PolyMap is mutable and unhashable.
    """

    f1: Poly2
    f2: Poly2
    inverse: Optional[RationalMap] = field(default=None, compare=False)

    def __post_init__(self):
        if self.inverse is not None and not verify_inverse(
            self.f1, self.f2, self.inverse
        ):
            raise InverseVerificationError(
                "claimed inverse does not invert the map"
            )

    def apply(self, p: Point) -> Point:
        return Point(self.f1.evaluate(p.x, p.y), self.f2.evaluate(p.x, p.y))

    def iterates(self, p: Point) -> Iterator[Point]:
        """f(p), f^2(p), ... without end, equal to repeated apply.

        The arithmetic runs in Z[1/m] with predicted denominators (module
        docstring), so no coordinate is normalised by a gcd.
        """
        primes = self.orbit_primes(p)
        if primes is None:
            while True:
                p = self.apply(p)
                yield p
        (n1, d1), (n2, d2) = self.f1.integer_form(), self.f2.integer_form()
        t1, t2 = _term_table(n1, d1, primes), _term_table(n2, d2, primes)
        monomials = [*n1, *n2]
        top_i = max((i for i, _ in monomials), default=0)
        top_j = max((j for _, j in monomials), default=0)
        (X, alpha), (Y, beta) = _split(p.x, primes), _split(p.y, primes)
        while True:
            px, py = power_table(X, top_i), power_table(Y, top_j)
            (X, alpha), (Y, beta) = (
                _component(t1, px, py, alpha, beta, primes),
                _component(t2, px, py, alpha, beta, primes),
            )
            yield Point(_as_fraction(X, alpha, primes), _as_fraction(Y, beta, primes))

    def orbit_primes(self, p: Point) -> Optional[tuple[int, ...]]:
        """The ascending primes of m = lcm(den p.x, den p.y, d1, d2), which
        alone can divide an iterate's denominator (step (a) above); None
        when m has more than KERNEL_MAX_BITS bits."""
        m = math.lcm(p.x.denominator, p.y.denominator,
                     self.f1.integer_form()[1], self.f2.integer_form()[1])
        if m.bit_length() > KERNEL_MAX_BITS:
            return None
        return tuple(factorize(m))

    def algebraic_degree(self) -> int:
        """max(deg f1, deg f2); a constant map, (0, 0) included, has degree 0."""
        return int(max(0, self.f1.total_degree(), self.f2.total_degree()))

    def __str__(self) -> str:
        return f"({self.f1}, {self.f2})"


def _split(value: Fraction, primes: tuple[int, ...]) -> tuple[int, list[int]]:
    """(X, alpha) with value = X / prod q^alpha_q (the denominator's primes)."""
    return value.numerator, [valuation(value.denominator, q) for q in primes]


def _term_table(nums: dict, d: int, primes: tuple[int, ...]):
    """([(u_ij, i, j)], offsets) with c_ij = u_ij * prod q^gamma_ijq and
    offsets[k][t] = v_q(d) - gamma_ijq for the k-th prime q and the t-th
    term, so that e_ijq = i*alpha_q + j*beta_q + offsets[k][t]."""
    terms = []
    offsets = [[] for _ in primes]
    for (i, j), c in nums.items():
        for q, offs in zip(primes, offsets):
            g = valuation(c, q)
            c //= q**g
            offs.append(valuation(d, q) - g)
        terms.append((c, i, j))
    return terms, offsets


def _component(table, px, py, alpha, beta, primes) -> tuple[int, list[int]]:
    """(N', E - s): one polynomial component at (x, y) in lowest terms."""
    terms, offsets = table
    values = [u * px[i] * py[j] for u, i, j in terms]
    exps = []
    for q, a, b, offs in zip(primes, alpha, beta, offsets):
        es = [i * a + j * b + o for (_, i, j), o in zip(terms, offs)]
        top = max([0, *es])
        for t, e in enumerate(es):
            if e < top:
                values[t] *= q ** (top - e)
        exps.append(top)
    n = sum(values)
    if n == 0:
        return 0, [0] * len(primes)
    for k, q in enumerate(primes):
        left, steps = exps[k], 0
        while left and n % q == 0:
            if steps == STRIP_STEPS:
                g = math.gcd(n, q**left)
                n //= g
                left -= valuation(g, q)
                break
            n //= q
            left -= 1
            steps += 1
        exps[k] = left
    return n, exps


def _as_fraction(n: int, exps: list[int], primes) -> Fraction:
    return coprime_fraction(n, math.prod(q**e for q, e in zip(primes, exps)))


def verify_inverse(f1: Poly2, f2: Poly2, g: RationalMap) -> bool:
    """Check that g inverts (f1, f2): both compositions reduce to the identity."""
    f = RationalMap(RatFunc.from_poly(f1), RatFunc.from_poly(f2))
    return g.compose(f) == _IDENTITY and f.compose(g) == _IDENTITY


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


def iterate_map(f: PolyMap, k: int) -> PolyMap:
    """k-th compositional power, with no inverse; k = 0 gives the identity.

    Inverse components grow quickly under composition, so the iterates
    start from the identity without an inverse and compose_map carries
    none along.
    """
    if k < 0:
        raise ValueError("iterate_map expects k >= 0")
    result = PolyMap(Poly2.variable("x"), Poly2.variable("y"))
    for _ in range(k):
        result = compose_map(f, result)
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
