"""Degree sequences, dynamical-degree estimates, and projective stability.

Degree growth under iteration separates the map classes studied here:
stable maps on the projective plane satisfy deg f^n = (deg f)^n exactly,
while triangular maps grow linearly and have dynamical degree 1.  All
growth labels are finite-horizon heuristics and say so; the degrees
themselves are exact.

Degrees come from the top homogeneous part of f rather than from full
iterates.  Let d = deg f and let f_d be the degree-d part of f (a
component of lower degree contributes 0).  Put h_1 = f_d and
h_n = f_d(h_{n-1}).  If h_1, ..., h_n are all nonzero then
deg f^n = d^n and h_n is the top part of f^n: inductively
f^{n-1} = h_{n-1} + (terms of degree < d^{n-1}), and in
f^n = f(f^{n-1}) = f_d(f^{n-1}) + f_{<d}(f^{n-1}) every term other than
f_d(h_{n-1}) = h_n has degree below d^n.  At the first n with h_n = 0
the degree drops below d^n by an amount the top parts cannot see, so
the sequence is recomputed from full compositions (the path unstable
maps have always taken).  This follows the algebraic-stability
viewpoint of Fornaess-Sibony (1995) and Diller-Favre (2001).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .maps import PolyMap, compose_map
from .poly import Poly2

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


def _top_part(p: Poly2, d: int) -> Poly2:
    """The homogeneous degree-d part of p (zero when deg p < d)."""
    return Poly2.from_terms({k: c for k, c in p.terms() if k[0] + k[1] == d})


def _raw_degree_sequence(f: PolyMap, N: int) -> list[int]:
    """deg f^n for n = 1..N, exact.

    While the top-part iterates h_n = f_d(h_{n-1}) stay nonzero,
    deg f^n = d^n (module docstring); each step composes only the
    degree-d part of f with a homogeneous pair.  At the first vanishing
    h_n, and for affine maps (d = 1), the whole sequence is taken from
    full compositions f^n = f(f^{n-1}) instead, where a constant
    iterate (possible only when f is not dominant) has degree 0.  A
    constant f is rejected.  Both paths multiply through Poly2, so on a
    stable prefix the degree cap trips at the first n with d^n above the
    cap, as full composition does.
    """
    if N < 1:
        raise ValueError("degree horizon must be at least 1")
    # inverses are dropped: composing them is wasted work here
    base = PolyMap(f.f1, f.f2)
    d = base.algebraic_degree()
    if d == 0:
        raise ValueError("degree is undefined for a constant map")
    if d > 1:
        top1, top2 = _top_part(base.f1, d), _top_part(base.f2, d)
        h1, h2 = top1, top2
        for _ in range(N - 1):
            h1, h2 = top1.compose(h1, h2), top2.compose(h1, h2)
            if h1.is_zero and h2.is_zero:
                break  # deg f^n < d^n; only full iterates say by how much
        else:
            return [d**n for n in range(1, N + 1)]
    acc = base
    out = [d]
    for _ in range(N - 1):
        acc = compose_map(base, acc)
        out.append(acc.algebraic_degree())
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

    Returns the least n <= N where the equality fails, if any.
    """
    # a horizon below 2 is rejected by stability_verdict before any work
    return stability_verdict(_raw_degree_sequence(f, N) if N >= 2 else ())


def profile_to_json_dict(profile: DegreeProfile) -> dict:
    return {
        "degrees": list(profile.degrees),
        "lambda_estimate": profile.lambda_estimate,
        "growth_class": profile.growth_class,
    }
