"""Degree sequences, dynamical-degree estimates, and projective stability.

Degree growth under iteration separates the map classes studied here:
stable maps on the projective plane satisfy deg f^n = (deg f)^n exactly,
while triangular maps grow linearly and have dynamical degree 1.  All
growth labels are finite-horizon heuristics and say so; the degrees
themselves are exact.

Plane algebraic stability takes one exact step.  Let d = deg f and
F = f_d, the degree-d part of f (a component of lower degree counts as
0); put h_1 = F and h_n = F(h_{n-1}).  While h_1, ..., h_n are nonzero,
f^n = F(f^{n-1}) + f_{<d}(f^{n-1}) = h_n + (terms of degree < d^n) by
induction, so deg f^n = d^n; and h_2 = 0 means deg f^2 < d^2.  Every h_n
is nonzero exactly when h_2 is.  Over an algebraic closure write
F = G*(g_1, g_2), with G = gcd(F_1, F_2) and g_1, g_2 coprime forms of
degree e.

- e >= 1: the line at infinity is not contracted.  A coprime pair u of
  positive degree maps P^1 onto itself, so g(u) is again one and
  G(u) != 0; by induction h_n = c_n*u_n with c_n a nonzero form and u_n
  such a pair (c_1 = G, u_1 = g, c_{n+1} = c_n^d*G(u_n), u_{n+1} = g(u_n)).
- e = 0: F = P*(a, b), and h_n = lambda_n*P^(d^(n-1))*(a, b) with
  lambda_1 = 1 and lambda_{n+1} = lambda_n^d*P(a, b): all are nonzero
  exactly when P(a, b) != 0, that is when h_2 != 0.

For d = 1, F is the linear part L, and h_2 = L^2 = 0 exactly when L is
nilpotent.  So f is algebraically stable (deg f^n = d^n for all n) iff
h_2 != 0 (Fornaess-Sibony 1995, Diller-Favre 2001); otherwise the first
drop is at n = 2, and only full compositions say by how much.

Triangular maps take a closed form instead (Diller-Favre 2001;
Friedland-Milnor 1989 for the elementary automorphisms).  Let
f = (a*x + b, A(x)*y + B(x)) with a != 0 and A != 0, put e = deg B
(e = 0 for B = 0) and x_i = a^i*x + (constant), the first component of
f^i.  Since f(f^n) = (x_{n+1}, A(x_n)*(A_n*y + B_n) + B(x_n)),

    f^n = (x_n, A_n(x)*y + B_n(x)),  A_n = prod_{i<n} A(x_i),
    B_n = sum_{k<n} B(x_k) * prod_{k<i<n} A(x_i).

A_n*y and B_n share no monomial, so deg f^n = max(deg A_n + 1, deg B_n).

- dA = deg A >= 1: A(x_i) has degree dA and leading coefficient
  lc(A)*a^(i*dA), so lc(A_n) = lc(A)^n * a^(dA*n(n-1)/2) != 0 and
  deg A_n = n*dA.  Summand k of B_n has degree e + (n-1-k)*dA, so for
  B != 0 the summand k = 0 is the unique top one.  Hence
  deg f^n = max(n*dA + 1, (n-1)*dA + e), which is n*dA + 1 for B = 0.
- A = c constant, e >= 2: A_n = c^n, and the x^e coefficient of B_n is
  lc(B)*c^(n-1)*sum_{k<n} r^k with r = a^e/c.  The sum is n for r = 1
  and (r^n - 1)/(r - 1) otherwise, and for rational r != 1 that vanishes
  iff r^n = 1, that is r = -1 and n even.  So deg f^n = e for every n
  unless a^e = -c, where deg f^2 < e and full compositions take over.
  For e <= 1 the map is affine and the h_2 test decides it.

With sigma(x, y) = (y, x), (sigma f sigma)^n = sigma f^n sigma has the
degree of f^n, so a map that is triangular after this swap takes the
same forms; the elementary maps (x + p(y), y) are among them, with
a = c = 1 and deg f^n = deg p.  Every such map has h_2 = 0 (F_1 = 0, and
F_2(0, y) = 0 since f_2 has y-degree <= 1).  Composing f with f^(n-1)
forms no product above degree deg f^n (the term x^dA*y of f_2 against
the second component of f^(n-1) reaches it), so checking the degree cap
on deg f^n for each n >= 2 trips it at the same first n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from . import poly
from .errors import NotTriangularError
from .hirzebruch import triangular_parts
from .maps import PolyMap, compose_map

GROWTH_BOUNDED = "bounded"
GROWTH_LINEAR = "linear"
GROWTH_EXPONENTIAL = "exponential"
GROWTH_UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class DegreeProfile:
    degrees: tuple[int, ...]  # deg f^n for n = 1..N
    lambda_estimate: float
    growth_class: str


class DegreeEstimate(NamedTuple):
    estimate: float
    last_ratio: float


@dataclass(frozen=True)
class StabilityVerdict:
    horizon: int
    unstable_at: Optional[int]

    @property
    def is_stable(self) -> bool:
        return self.unstable_at is None

    def __str__(self) -> str:
        if self.is_stable:
            return f"stable_up_to_{self.horizon}"
        return f"unstable_at({self.unstable_at})"


def _mirror(f: PolyMap) -> PolyMap:
    """sigma f sigma with sigma(x, y) = (y, x), without an inverse."""
    def swap(p: poly.Poly2) -> poly.Poly2:
        nums, den = p.integer_form()
        return poly.Poly2({(j, i): v for (i, j), v in nums.items()}, den)

    return PolyMap(swap(f.f2), swap(f.f1))


def _triangular_degrees(f: PolyMap) -> Optional[Callable[[int], int]]:
    """n -> deg f^n when f or its mirror is triangular (module docstring).

    None for every other map, and for the affine and the cancelling
    (a^e = -c) triangular maps.
    """
    for g in (f, _mirror(f)):
        try:
            a, _, A, B = triangular_parts(g)
        except NotTriangularError:
            continue
        dA = int(A.total_degree())
        e = 0 if B.is_zero else int(B.total_degree())
        if dA >= 1:
            return lambda n: max(n * dA + 1, (n - 1) * dA + e)
        if e >= 2 and a**e != -A.constant_value():
            return lambda n: e
    return None


def _raw_degree_sequence(f: PolyMap, N: int) -> list[int]:
    """deg f^n for n = 1..N, exact; a constant f is rejected.

    A closed form for triangular maps in either orientation, else d^n
    unless N >= 2 and h_2 = F(F) = 0 (module docstring); then full
    compositions f^n = f(f^{n-1}), where a constant iterate (possible only
    when f is not dominant) has degree 0.  A closed-form degree is checked
    against the cap as it is produced, so the first n above it raises
    before any later degree is computed.
    """
    if N < 1:
        raise ValueError("degree horizon must be at least 1")
    # inverses are dropped: composing them is wasted work here
    base = PolyMap(f.f1, f.f2)
    d = base.algebraic_degree()
    if d == 0:
        raise ValueError("degree is undefined for a constant map")
    degree = _triangular_degrees(base)
    if degree is None:
        F = [poly.Poly2.from_terms({k: c for k, c in p.terms() if sum(k) == d})
             for p in (base.f1, base.f2)]
        if N >= 2 and all(Fk.compose(*F).is_zero for Fk in F):
            acc = base
            out = [d]
            for _ in range(N - 1):
                acc = compose_map(base, acc)
                out.append(acc.algebraic_degree())
            return out
    out = [d]
    for n in range(2, N + 1):
        dn = d**n if degree is None else degree(n)
        poly._check_cap(dn)  # via the module, which tracers patch
        out.append(dn)
    return out


def _lambda_estimate(degrees: list[int], deg_f: int) -> float:
    N = len(degrees)
    last = degrees[-1]
    if last == deg_f**N:
        # stability gives exact equality; avoid float roots
        return float(deg_f)
    if last <= 1:
        return float(last)
    return math.exp(math.log(last) / N)


def _growth_class(degrees: list[int]) -> str:
    """Finite-horizon growth label over the tail window of the sequence.

    Window is the last max(2, ceil(N/2)) entries.  Checks run in order:
    constant window -> bounded; vanishing second differences (where
    computable) -> linear; ratios non-decreasing with last ratio at
    least 1 + 1/N -> exponential; otherwise undetermined.
    """
    N = len(degrees)
    if N == 1:
        return GROWTH_BOUNDED if degrees[0] == 1 else GROWTH_UNDETERMINED
    w = min(N, max(2, (N + 1) // 2))
    start = N - w
    window = degrees[start:]
    if all(d == window[0] for d in window):
        return GROWTH_BOUNDED
    sec = [
        degrees[k] - 2 * degrees[k - 1] + degrees[k - 2]
        for k in range(max(start, 2), N)
    ]
    if sec and all(s == 0 for s in sec):
        return GROWTH_LINEAR
    ratios = [
        Fraction(degrees[k], degrees[k - 1]) for k in range(max(start, 1), N)
    ]
    if (
        ratios
        and ratios[-1] >= 1 + Fraction(1, N)
        and all(r1 <= r2 for r1, r2 in zip(ratios, ratios[1:]))
    ):
        return GROWTH_EXPONENTIAL
    return GROWTH_UNDETERMINED


def degree_sequence(f: PolyMap, N: int) -> DegreeProfile:
    """deg f^n for n = 1..N with growth label and N-th root estimate."""
    degrees = _raw_degree_sequence(f, N)
    return DegreeProfile(
        degrees=tuple(degrees),
        lambda_estimate=_lambda_estimate(degrees, degrees[0]),
        growth_class=_growth_class(degrees),
    )


def dynamical_degree_estimate(f: PolyMap, N: int) -> DegreeEstimate:
    """(deg f^N)^(1/N) plus the last-ratio diagnostic deg f^N / deg f^(N-1)."""
    if N < 2:
        raise ValueError("estimate horizon must be at least 2")
    degrees = _raw_degree_sequence(f, N)
    if degrees[-2] == 0:
        raise ValueError(f"last ratio is undefined: deg f^{N - 1} = 0")
    return DegreeEstimate(
        estimate=_lambda_estimate(degrees, degrees[0]),
        last_ratio=degrees[-1] / degrees[-2],
    )


def stability_verdict(degrees: Sequence[int]) -> StabilityVerdict:
    """Degree criterion on the projective plane from deg f^n, n = 1..N.

    The map is unstable at the least n with deg f^n < (deg f)^n; the
    horizon N is the length of the sequence and must be at least 2.
    """
    N = len(degrees)
    if N < 2:
        raise ValueError("stability horizon must be at least 2")
    d = degrees[0]
    unstable_at = next(
        (n for n, dn in enumerate(degrees, start=1) if dn < d**n), None
    )
    return StabilityVerdict(horizon=N, unstable_at=unstable_at)


def is_algebraically_stable_P2(f: PolyMap, N: int) -> StabilityVerdict:
    """Degree criterion on the projective plane: deg f^n = (deg f)^n.

    Returns the least n <= N where the equality fails, if any.  That n is
    always 2 (module docstring), so f is composed at most twice.
    """
    # a horizon below 2 is rejected by stability_verdict before any work
    verdict = stability_verdict(_raw_degree_sequence(f, 2) if N >= 2 else ())
    return StabilityVerdict(horizon=N, unstable_at=verdict.unstable_at)


def profile_to_json_dict(profile: DegreeProfile) -> dict:
    return {
        "degrees": list(profile.degrees),
        "lambda_estimate": profile.lambda_estimate,
        "growth_class": profile.growth_class,
    }
