"""Escape certificates: finitely many visits for Hénon-type orbits, proved.

A Hénon-type map is f(x, y) = (y, p(y) - delta*x) with p(y) = a*y^k + q(y),
k >= 2, deg q < k and delta != 0; it is an automorphism with inverse
(x, y) -> ((p(x) - y)/delta, x).  Write (x_n, y_n) = f^n(P), so that
x_{n+1} = y_n.  A certificate names a place v, the first step n0 at
which the orbit lies in the escape region V+_v below, and a step n1
such that the orbit meets the curve C at no n >= n1.  It is found on
the exact orbit up to n1 and on nothing else.

Places
------
By step (a) of the maps module docstring, only the primes of
PolyMap.orbit_primes(P) can divide the denominator of an iterate.  At
any other prime every iterate is p-integral and |y_n|_p <= 1: the orbit
never enters V+_p, which asks |y|_p > 1.  So the candidates are inf and
those primes (only inf when orbit_primes gives None).  The places are
tried in that order (primes ascending) at n = 0, 1, ...; the first that
holds the point is the place of the certificate.

At infinity (the Bedford-Smillie filtration, with rational bounds)
-------------------------------------------------------------------
Let s = |q|_1 + |delta| (|q|_1 the sum of the |q_i|), R = (s + 2)/|a| and
V+ = {|y| >= max(|x|, R, 1)}.  For (x, y) in V+ and Y = |y| >= 1, k >= 2:

    |y'| >= |a| Y^k - |q|_1 Y^(k-1) - |delta| Y >= Y^(k-1) (|a| Y - s)
         >= 2 Y^(k-1) >= 2 Y,

since |a| Y >= |a| R = s + 2.  With |x'| = Y <= |y'| the region is
forward invariant and |y| at least doubles on every step in it.  Also
|a|Y - s >= 2|a|Y/(s + 2) and s Y^(k-1) <= |a| Y^k, so for n > n0, with
X = |x_n| = |y_{n-1}| >= 1,

    c1 X^k <= |y_n| <= c2 X^k,   c1 = 2/R,  c2 = 2|a|,

and X at least doubles from one step to the next.

At a prime p (with valuations only)
-----------------------------------
Write e(t) = v_p(den t), so |t|_p = p^e(t) when e(t) > 0, and let
T = max(0, v(a), v(a) - v(delta), v(a) - v(q_i) for q_i != 0).  Then
V+_p = {e(y) > max(T, e(x))} is
|y|_p > max(|x|_p, 1, 1/|a|_p, |delta|_p/|a|_p, |q_i|_p/|a|_p).  In it,
with Y = |y|_p > 1,

    |q_i y^i|_p < |a|_p Y^(i+1) <= |a|_p Y^k,
    |delta x|_p < |delta|_p Y < |a|_p Y^2 <= |a|_p Y^k,

so |y'|_p = |a|_p Y^k exactly, and |a|_p Y^(k-1) >= |a|_p Y > 1 gives
|y'|_p > Y = |x'|_p: V+_p is forward invariant.  The 1/|a|_p term keeps
it so when p divides a.  For n > n0, |y_n|_p = |a|_p |x_n|_p^k and
e(x_n) strictly increases.

The curve
---------
Give the term c_ij x^i y^j of D = sum c_ij x^i y^j the weight i + j*k.
Suppose one term c* x^i* y^j* has the largest weight W.  For n > n0:

- at inf, |c* x^i* y^j*| >= |c*| c1^j* X^W while the other terms sum
  to at most X^(W-1) sum |c_ij| c2^j, so D(x_n, y_n) != 0 once
  X > B = sum |c_ij| c2^j / (|c*| c1^j*);
- at p, with e = e(x_n), the term c_ij x^i y^j has valuation
  v(c_ij) + j v(a) - (i + jk) e, and the top one is strictly the
  smallest, so D != 0, once (W - w) e > v(c*) - v(c_ij) + (j* - j) v(a)
  for every other term of weight w.

X and e grow with n, so n1 is the first n > n0 at which the test holds
on the exact x_n.  If the top weight is tied, D = C o f is tried once:
C(f^(n+1)(P)) = D(f^n(P)), so D != 0 from step n on proves that C has
no visit from n + 1 on.  For k = 2, y - x^2 - e pulls back to the
vertical line -delta*x + (p(0) - e).  If D is tied too there is no
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .arith import valuation
from .maps import Point, PolyMap
from .places import ord_p
from .poly import Poly2

_Y = Poly2.variable("y")


@dataclass(frozen=True)
class Escape:
    """The orbit is in V+ at place from step entry on and meets the
    curve at no step n >= bound; pullback says the bound was proved on
    C o f."""

    place: str
    entry: int
    bound: int
    pullback: bool

    def note(self) -> str:
        via = "; proved on the pullback of C by f" if self.pullback else ""
        return (f"escape certificate at {self.place}: the orbit enters the "
                f"escape region at n0 = {self.entry} and has no visit from "
                f"n1 = {self.bound} on{via}")


def henon_form(f: PolyMap) -> Optional[tuple[Fraction, int, dict[int, Fraction], Fraction]]:
    """(a, k, q, delta) with f = (y, a*y^k + q(y) - delta*x), k >= 2 and
    delta != 0, q as {exponent: coefficient}; None for any other map."""
    if f.f1 != _Y:
        return None
    terms = dict(f.f2.terms())
    delta = -terms.pop((1, 0), 0)
    if not delta or any(i for i, _ in terms):
        return None
    k = max((j for _, j in terms), default=0)
    if k < 2:
        return None
    a = terms.pop((0, k))
    return a, k, {j: c for (_, j), c in terms.items()}, delta


def _split_top(D: Poly2, k: int):
    """(top, others) as (weight, j, coefficient) triples under the weight
    i + j*k, or None when the top weight is tied."""
    weighted = sorted(((i + j * k, j, c) for (i, j), c in D.terms()), reverse=True)
    if len(weighted) > 1 and weighted[0][0] == weighted[1][0]:
        return None
    return weighted[0], weighted[1:]


@dataclass(frozen=True)
class _Infinity:
    radius: Fraction  # max(R, 1)
    bound: Fraction  # B

    def __str__(self) -> str:
        return "inf"

    def entered(self, pt: Point) -> bool:
        return abs(pt.y) >= max(abs(pt.x), self.radius)

    def past(self, pt: Point) -> bool:
        return abs(pt.x) > self.bound


@dataclass(frozen=True)
class _Prime:
    p: int
    threshold: int  # T
    bound: int  # E: the top term is strictly the smallest once e(x) > E

    def __str__(self) -> str:
        return str(self.p)

    def entered(self, pt: Point) -> bool:
        e = valuation(pt.y.denominator, self.p)
        return e > self.threshold and e > valuation(pt.x.denominator, self.p)

    def past(self, pt: Point) -> bool:
        return valuation(pt.x.denominator, self.p) > self.bound


def _places(form, top, others, primes: Optional[tuple[int, ...]]) -> list:
    a, k, q, delta = form
    W, j0, c0 = top
    R = (sum(abs(c) for c in q.values()) + abs(delta) + 2) / abs(a)
    c1, c2 = 2 / R, 2 * abs(a)
    B = sum(abs(c) * c2**j for _, j, c in others) / (abs(c0) * c1**j0)
    out = [_Infinity(max(R, Fraction(1)), B)]
    for p in primes or ():
        va = ord_p(a, p)
        T = max(0, va, va - ord_p(delta, p), *(va - ord_p(c, p) for c in q.values()))
        E = max(((ord_p(c0, p) - ord_p(c, p) + (j0 - j) * va) // (W - w)
                 for w, j, c in others), default=0)
        out.append(_Prime(p, T, E))
    return out


class EscapeWatch:
    """Fed p, f(p), f^2(p), ... in order, a call returns True at the first
    point that completes the certificate, which is then .certificate.
    escape_watch feeds p."""

    def __init__(self, places: list, pullback: bool):
        self._places = places
        self._pullback = pullback
        self._n = -1
        self._place = None
        self._entry = 0
        self.certificate: Optional[Escape] = None

    def __call__(self, pt: Point) -> bool:
        self._n += 1
        if self._place is None:
            self._place = next((v for v in self._places if v.entered(pt)), None)
            self._entry = self._n
            return False
        if not self._place.past(pt):
            return False
        self.certificate = Escape(
            str(self._place), self._entry, self._n + self._pullback, self._pullback
        )
        return True


def escape_watch(f: PolyMap, C: Poly2, p: Point) -> Optional[EscapeWatch]:
    """A watch for the orbit of p against the curve C = 0, already fed p,
    or None when f is not Hénon-type or the top weight of C and of C o f
    is tied."""
    form = henon_form(f)
    if form is None:
        return None
    split, pullback = _split_top(C, form[1]), False
    if split is None:
        split, pullback = _split_top(C.compose(f.f1, f.f2), form[1]), True
        if split is None:
            return None
    watch = EscapeWatch(_places(form, *split, f.orbit_primes(p)), pullback)
    watch(p)
    return watch


def certify(f: PolyMap, C: Poly2, points: Sequence[Point]) -> Optional[Escape]:
    """The certificate for the orbit prefix points = (p, f(p), ...), if it
    completes within the prefix."""
    watch = escape_watch(f, C, points[0])
    if watch is not None:
        for pt in points[1:]:
            if watch(pt):
                return watch.certificate
    return None
