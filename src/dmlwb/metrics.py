"""Projective metrics per place, basin probes, and the local DML probe.

The metric on projective space at a place v is

    d_v([x], [y]) = max_{i,j} |x_i y_j - x_j y_i|_v
                    / (max_i |x_i|_v * max_j |y_j|_v),

independent of representatives.  Near the F_n fixed point [1, 0, 1, 0]
distances are measured in the canonical chart (u, w) = (x2/x1,
x1^n*x4/x3) as max(|u|_v, |w|_v); metrics from different embeddings are
equivalent, so the chart metric is a legitimate stand-in.

No probe steps a map: basin_on_orbit reads a bit-guarded orbit from
dml.orbit, and on an F_n model reads the chart at embed_A2 of its points.

Every distance is an exact rational, and the basin probe decides
"below eps" and "strictly decreasing" on those exact values.  At the
archimedean place metric_dv and the JSON form of a sample report the
distance as a float (relative error well below 1e-14); that float is
never compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .curves import is_fixed_curve
from .dml import DEFAULT_BIT_GUARD, OrbitResult, orbit, orbit_visits
from .errors import ChartDomainError
from .hirzebruch import FnModel, chart_around_Q, embed_A2, fixed_point_Q
from .maps import Point, PolyMap
from .places import Place, ProjPoint, abs_value, embed_P2
from .poly import as_fraction

DEFAULT_EPS = Fraction(1, 2**20)
DEFAULT_LOCAL_HORIZON = 50  # orbit horizon of the basin and local probes
VISIT_THRESHOLD = 8  # visits to C that the local probe reads as infinitely many

CoordsLike = Union[ProjPoint, Sequence]


def _coords(p: CoordsLike) -> list[Fraction]:
    if isinstance(p, ProjPoint):
        return [Fraction(c) for c in p.coords]
    return [as_fraction(c) for c in p]


def metric_dv(p: CoordsLike, q: CoordsLike, v: Place):
    """d_v between two projective points (raw coordinates accepted).

    Returns an exact Fraction at finite places and a float at the
    archimedean place.
    """
    value = _metric_exact(p, q, v)
    return float(value) if v.is_archimedean else value


def _metric_exact(p: CoordsLike, q: CoordsLike, v: Place) -> Fraction:
    xs, ys = _coords(p), _coords(q)
    if len(xs) != len(ys):
        raise ValueError("points must have the same projective dimension")
    if all(c == 0 for c in xs) or all(c == 0 for c in ys):
        raise ValueError("all-zero coordinates are not a projective point")
    cross = Fraction(0)
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            term = abs_value(xs[i] * ys[j] - xs[j] * ys[i], v)
            if term > cross:
                cross = term
    den = max(abs_value(c, v) for c in xs) * max(abs_value(c, v) for c in ys)
    return cross / den


@dataclass(frozen=True)
class MetricSample:
    n: int
    distance: Optional[Fraction]  # None when outside the chart
    below_epsilon: bool

    def to_json_dict(self, place: Place) -> dict:
        """JSON form; the distance is a float at the archimedean place, an
        exact string at a prime, and None (JSON null) when there is none to
        show: the point is outside the chart, the distance is past the float
        range, or its numerator or denominator has more digits than the
        interpreter's int-to-str limit (a tiny p-adic distance too)."""
        d = self.distance
        if d is not None:
            try:
                d = float(d) if place.is_archimedean else str(d)
            except (OverflowError, ValueError):
                d = None
        return {"n": self.n, "distance": d, "below_epsilon": self.below_epsilon}


@dataclass(frozen=True)
class BasinReport:
    verdict: str  # converged_at | not_converged | reached_Q
    at: Optional[int]
    samples: tuple[MetricSample, ...]
    place: Place
    eps: Fraction
    notes: tuple[str, ...] = ()

    @property
    def converged(self) -> bool:
        return self.verdict in ("converged_at", "reached_Q")

    def __str__(self) -> str:
        tag = self.verdict if self.at is None else f"{self.verdict}({self.at})"
        return f"basin probe at v={self.place}: {tag}"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "at": self.at,
            "place": str(self.place),
            "eps": str(self.eps),
            "samples": [s.to_json_dict(self.place) for s in self.samples],
            "notes": list(self.notes),
        }


_WINDOW = 5  # consecutive strictly decreasing below-eps samples certify convergence


def _certified_at(samples: list[MetricSample]) -> Optional[int]:
    if len(samples) < _WINDOW:
        return None
    tail = samples[-_WINDOW:]
    if any(s.distance is None or not s.below_epsilon for s in tail):
        return None
    for s1, s2 in zip(tail, tail[1:]):
        if not s2.distance < s1.distance:
            return None
    return tail[-1].n


def basin_on_orbit(model, res: OrbitResult, Q, v: Place, eps=DEFAULT_EPS) -> BasinReport:
    """Measure d_v toward the fixed point Q along res, the orbit of the
    probed point under the model's plane map.

    model: FnModel (Q None; the chart around [1, 0, 1, 0] at embed_A2 of
    each orbit point) or PolyMap (Q a fixed Point; through embed_P2).
    Samples run to res.horizon through a certified cycle, or end at the
    guard with a note.  eps is exact: a float raises TypeError.
    Convergence is certified by 5 consecutive strictly decreasing
    samples below eps.
    """
    return _probe(model, lambda: res, Q, v, eps)


def basin_probe(model, p: Point, Q, v: Place, N: int, eps=DEFAULT_EPS) -> BasinReport:
    """basin_on_orbit along orbit(f, p, N) under the model's plane map f,
    coordinates capped at DEFAULT_BIT_GUARD bits.  The orbit is computed
    only after eps, the model and Q pass their checks."""
    f = model.plane_map() if isinstance(model, FnModel) else model
    return _probe(model, lambda: orbit(f, p, N), Q, v, eps)


def _probe(model, orbit_of: Callable[[], OrbitResult], Q, v: Place, eps) -> BasinReport:
    """basin_on_orbit on orbit_of(), which it calls after its checks."""
    eps = as_fraction(eps)
    notes: list[str] = []
    if isinstance(model, FnModel):
        if Q is not None:
            raise ValueError("F_n probes converge to [1, 0, 1, 0]; pass Q=None")
        if not model.is_stable:  # Q is fixed unless apply raises there
            model.apply(fixed_point_Q(model.n))

        def distance(P):
            try:
                u, w = chart_around_Q(embed_A2(P, model.n))
            except ChartDomainError:
                return None
            return max(abs_value(u, v), abs_value(w, v))

    elif isinstance(model, PolyMap):
        if Q is None:
            raise ValueError("planar probes need an explicit fixed point Q")
        if model.apply(Q) != Q:
            raise ValueError(f"{Q} is not fixed by the map")
        q_proj = embed_P2(Q)
        notes.append(
            "planar probe: indeterminacy-side hypotheses on Q are unverified"
        )

        def distance(P):
            return _metric_exact(embed_P2(P), q_proj, v)

    else:
        raise TypeError("basin probes expect an FnModel or a PolyMap")

    res = orbit_of()
    samples: list[MetricSample] = []

    def report(verdict: str, at: Optional[int]) -> BasinReport:
        return BasinReport(verdict, at, tuple(samples), v, eps, tuple(notes))

    for n in range(res.last_known + 1):
        current = res.point_at(n)
        if current == Q:
            return report("reached_Q", n)
        dist = distance(current)
        if dist is None:
            notes.append(f"step {n}: point outside the chart around Q")
        samples.append(MetricSample(n, dist, dist is not None and dist < eps))
        at = _certified_at(samples)
        if at is not None:
            return report("converged_at", at)
    if res.guard_hit:
        notes.append(f"orbit guard ended the probe after step {res.last_known}")
    return report("not_converged", None)


@dataclass(frozen=True)
class LocalDmlReport:
    verdict: str  # curve_fixed_confirmed | orbit_hits_Q | hypotheses_not_met | violation
    violation: bool
    basin: BasinReport
    visit_set: tuple[int, ...]
    visit_threshold: int
    notes: tuple[str, ...] = field(default=())

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "violation": self.violation,
            "basin": self.basin.to_json_dict(),
            "visit_set": list(self.visit_set),
            "visit_threshold": self.visit_threshold,
            "notes": list(self.notes),
        }


def local_dml_probe(
    model,
    C,
    p,
    Q=None,
    v: Place = Place.archimedean(),
    N: int = DEFAULT_LOCAL_HORIZON,
    eps=DEFAULT_EPS,
    bit_guard: int = DEFAULT_BIT_GUARD,
) -> LocalDmlReport:
    """Empirical local dichotomy: attraction to Q plus many visits to C
    force either an orbit landing on Q exactly or a fixed curve.

    Computes the orbit of p up to N (coordinates capped at bit_guard
    bits) once, and hands it to basin_on_orbit and local_verdict.
    """
    f = model.plane_map() if isinstance(model, FnModel) else model
    res = orbit(f, p, N, bit_guard)
    basin = basin_on_orbit(model, res, Q, v, eps)
    return local_verdict(f, C, basin, res, Q)


def local_verdict(
    f: PolyMap,
    C,
    basin: BasinReport,
    res: OrbitResult,
    q: Optional[Point] = None,
) -> LocalDmlReport:
    """The curve-dependent half of local_dml_probe.

    basin and res (the orbit of the probed point under the affine map f)
    do not depend on C, so one of each serves every curve.  An exact hit
    on Q counts when the basin probe reached Q, or when the orbit passes
    through the affine point q.  When convergence is certified and the
    visit count reaches VISIT_THRESHOLD,
    checks is_fixed_curve / exact Q-hits and raises the violation flag
    if both fail (no known map does this; the flag marks an anomaly).
    """
    notes: list[str] = []
    visits = orbit_visits(res, C)
    if res.guard_hit:
        notes.append("orbit guard truncated the visit scan")
    hits_q = basin.verdict == "reached_Q" or (q is not None and q in res.points)
    if basin.converged and len(visits) >= VISIT_THRESHOLD:
        if hits_q:
            verdict, violation = "orbit_hits_Q", False
        elif is_fixed_curve(C, f):
            verdict, violation = "curve_fixed_confirmed", False
        else:
            verdict, violation = "violation", True
            notes.append(
                "convergence and infinite-looking visits without a fixed "
                "curve or an exact Q-hit: contradicts the local dichotomy"
            )
    else:
        verdict, violation = "hypotheses_not_met", False
        if not basin.converged:
            notes.append("no convergence certificate at this horizon")
        if len(visits) < VISIT_THRESHOLD:
            notes.append(
                f"visit set has {len(visits)} entries, below threshold "
                f"{VISIT_THRESHOLD}"
            )
    return LocalDmlReport(
        verdict=verdict,
        violation=violation,
        basin=basin,
        visit_set=tuple(visits),
        visit_threshold=VISIT_THRESHOLD,
        notes=tuple(notes),
    )
