"""Orbits, visit sets, arithmetic-progression structure, and the
dichotomy classifier.

For Hénon-type maps, f = (y, p(y) - delta*x) with deg p >= 2, the
classifier first looks for an escape certificate (module escape): a
place where the orbit enters a forward-invariant escape region, and a
step after which it provably never meets the curve.  Such a report is
finite_visits, proved, and rests only on the orbit up to that step.

Otherwise the classifier is empirical: at a finite horizon "infinite
visits" is operationally a periodic tail observed on the prefix
(membership a-periodic over a window of at least 3a).  When such a tail
is observed the classifier hunts for the two admissible explanations,
an exactly repeating orbit or a periodic curve, and only reports
VIOLATION when both searches ran to completion and found nothing.  On a
reducible curve the periodic curve may be a component: when the whole
curve has no period, the components that carry an observed tail are
searched.  Guard-truncated data never produces a VIOLATION verdict; it
is reported as undetermined with the guard on record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

from .curves import Curve, is_periodic_curve
from .errors import DegreeCapError
from .escape import certify, escape_watch
from .maps import Point, PolyMap
from .places import height_affine
from .poly import get_degree_cap, set_degree_cap

DEFAULT_HORIZON = 200
DEFAULT_MAX_PERIOD = 12
DEFAULT_BIT_GUARD = 10**6
# compose-based period searches blow up on quadratic maps; this cap
# bounds the curve-search degree independently of the module-wide cap
DEFAULT_CURVE_SEARCH_CAP = 128


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _key(p: Point) -> tuple[int, int, int, int]:
    return p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator


@dataclass(frozen=True)
class OrbitResult:
    """Exact orbit prefix with optional cycle certificate.

    cycle = (tail, period) means points[tail + k] repeats with the given
    period forever; it is certified by an exact coordinate repetition.
    guard_hit records that the coefficient-size guard stopped iteration
    early, so the prefix is all we know.  Fewer than horizon + 1 points
    with neither means that the caller's stop ended the run (see orbit).
    """

    points: tuple[Point, ...]
    cycle: Optional[tuple[int, int]]
    guard_hit: bool
    horizon: int

    def point_at(self, n: int) -> Point:
        """f^n(p) for any n covered by the prefix or the cycle."""
        if n < len(self.points):
            return self.points[n]
        if self.cycle is None:
            raise IndexError(f"orbit only computed up to n = {len(self.points) - 1}")
        tail, period = self.cycle
        return self.points[tail + (n - tail) % period]

    @property
    def last_computed(self) -> int:
        return len(self.points) - 1

    @property
    def last_known(self) -> int:
        """The last n that point_at answers (past the prefix via the cycle)."""
        return self.horizon if self.cycle is not None else self.last_computed

    def prefix(self, M: int) -> "OrbitResult":
        """The orbit to M <= horizon, equal to orbit(f, p, M, bit_guard).

        The shorter run computes the same points up to step M.  It meets
        the repetition, the guard or the stop that ended this run only
        when that step is at most M, which is when fewer than M + 1
        points were kept; otherwise it ends at M with none of them.  A
        run ended by a stop is a prefix of the run with the same stop.
        """
        if not 0 <= M <= self.horizon:
            raise ValueError(f"prefix length must lie in [0, {self.horizon}]")
        if M < len(self.points):
            return OrbitResult(self.points[:M + 1], None, False, M)
        return replace(self, horizon=M)


def orbit(
    f: PolyMap,
    p: Point,
    N: int,
    bit_guard: int = DEFAULT_BIT_GUARD,
    stop: Optional[Callable[[Point], bool]] = None,
) -> OrbitResult:
    """Exact orbit p, f(p), ..., f^N(p) with cycle detection.

    Iteration stops at the first exact repetition (the rest of the
    orbit is determined) or when a coordinate exceeds bit_guard bits.
    stop, if given, is called on f(p), f^2(p), ... as each is kept; the
    run ends after the first point on which it returns True.
    """
    if N < 0:
        raise ValueError("orbit length must be nonnegative")
    # reduced coordinates are equal exactly when their integer pairs are,
    # and a tuple of ints hashes faster than a Fraction
    seen = {_key(p): 0}
    points = [p]
    guard_hit = False
    cycle = None
    for k, current in zip(range(1, N + 1), f.iterates(p)):
        if _bits(current.x) > bit_guard or _bits(current.y) > bit_guard:
            guard_hit = True
            break
        key = _key(current)
        hit = seen.get(key)
        if hit is not None:
            cycle = (hit, k - hit)
            break
        seen[key] = k
        points.append(current)
        if stop is not None and stop(current):
            break
    return OrbitResult(
        points=tuple(points), cycle=cycle, guard_hit=guard_hit, horizon=N
    )


def orbit_visits(res: OrbitResult, C: Curve) -> list[int]:
    """Visit times within [0, horizon], cycle-extended when possible."""
    member = [C.contains(pt) for pt in res.points]
    computed = len(member)
    tail, period = res.cycle or (0, 1)
    return [n for n in range(res.last_known + 1)
            if member[n if n < computed else tail + (n - tail) % period]]


def visit_set(
    f: PolyMap,
    p: Point,
    C: Curve,
    N: int,
    bit_guard: int = DEFAULT_BIT_GUARD,
) -> list[int]:
    """Sorted n in [0, N] with f^n(p) on C (exact vanishing).

    Cycling orbits are extended symbolically to the full horizon; a
    tripped orbit guard propagates as truncated data, so when the
    completeness of the scan matters, call orbit and orbit_visits and
    read the orbit's guard_hit.
    """
    return orbit_visits(orbit(f, p, N, bit_guard), C)


class GrowthSample(NamedTuple):
    n: int
    height: int
    log_ratio: Optional[float]


def height_growth_probe(f: PolyMap, p: Point, N: int) -> list[GrowthSample]:
    """Heights along the orbit with log H(f^(n+1)p) / log H(f^n p) diagnostics.

    Reads orbit(f, p, N + 1): when its default bit guard stops it at step
    L <= N, the list ends early, at n = L - 1.  The ratio is None when
    either height is 1, since the logarithm quotient degenerates there.
    """
    res = orbit(f, p, N + 1)
    heights = [height_affine(res.point_at(n)) for n in range(res.last_known + 1)]
    return [
        GrowthSample(n, h, math.log(h1) / math.log(h) if h > 1 and h1 > 1 else None)
        for n, (h, h1) in enumerate(zip(heights, heights[1:]))
    ]


@dataclass(frozen=True)
class APSet:
    """Finite union of arithmetic progressions plus exceptional points.

    progressions is a tuple of (a, b) pairs meaning {b, b+a, b+2a, ...}
    with a >= 1 and b the least member inside the periodic tail (so
    b < n0 + a for the cut n0); singleton progressions (a = 0) are
    folded into the exceptional set.  Progressions are pairwise
    disjoint and disjoint from the exceptional set over [0, horizon].
    """

    progressions: tuple[tuple[int, int], ...]
    exceptional: tuple[int, ...]
    horizon: int

    def members(self, upto: Optional[int] = None) -> set[int]:
        """The decoded subset of [0, upto] (defaults to the horizon)."""
        bound = self.horizon if upto is None else upto
        out = set(s for s in self.exceptional if s <= bound)
        for a, b in self.progressions:
            out.update(range(b, bound + 1, a))
        return out

    def to_json_dict(self) -> dict:
        return {
            "progressions": [list(pr) for pr in self.progressions],
            "exceptional": list(self.exceptional),
            "horizon": self.horizon,
        }


def ap_decompose(S, N: int) -> APSet:
    """Decompose S as progressions over a periodic tail observed on
    [n0, N] plus exceptional points.

    Finds the least difference a in [1, N//4] and then the least cut n0
    such that membership is a-periodic on [n0, N] and the tail window
    has length >= 3a.  One progression is emitted per residue class of
    S in the tail; members before the cut are exceptional.  Without
    such an a the whole set is exceptional.
    """
    S = set(S)
    if any(not isinstance(s, int) or s < 0 or s > N for s in S):
        raise ValueError("S must be a set of integers inside [0, N]")
    member = [False] * (N + 1)
    for s in S:
        member[s] = True
    for a in range(1, N // 4 + 1):
        last_bad = -1
        for n in range(N - a, -1, -1):
            if member[n] != member[n + a]:
                last_bad = n
                break
        n0 = last_bad + 1
        if N - n0 + 1 < 3 * a:
            continue
        progressions = tuple(
            (a, b) for b in range(n0, n0 + a) if b <= N and member[b]
        )
        exceptional = tuple(sorted(s for s in S if s < n0))
        return APSet(progressions=progressions, exceptional=exceptional, horizon=N)
    return APSet(progressions=(), exceptional=tuple(sorted(S)), horizon=N)


VERDICT_FINITE = "finite_visits"
VERDICT_PREPERIODIC = "dichotomy_confirmed_preperiodic"
VERDICT_CURVE_PERIODIC = "dichotomy_confirmed_curve_periodic"
VERDICT_UNDETERMINED = "undetermined"
VERDICT_VIOLATION = "VIOLATION"


@dataclass(frozen=True)
class DmlReport:
    """Classification of one (map, curve, point) instance.

    Invariant: verdict is VIOLATION only when a periodic visit tail is
    observed at the full horizon and both witness searches (exact
    orbit cycle, curve period up to max_period) ran to completion
    without success; on a reducible curve the period search must also
    have failed, uncapped, on a component carrying an observed tail.
    A reducible curve's witness may be the lcm of the periods of those
    components, a period of their union.  A finite_visits report whose
    notes hold an escape certificate is proved for every n, not only up
    to the horizon.
    """

    visit_set: tuple[int, ...]
    ap: APSet
    preperiodic_witness: Optional[tuple[int, int]]
    curve_period_witness: Optional[int]
    height_trace: tuple[int, ...]
    verdict: str
    horizon: int
    max_period: int
    orbit_guard_hit: bool = False
    curve_search_capped: bool = False
    notes: tuple[str, ...] = field(default=())

    def to_json_dict(self) -> dict:
        return {
            "visit_set": list(self.visit_set),
            "ap": self.ap.to_json_dict(),
            "preperiodic_witness": (
                list(self.preperiodic_witness)
                if self.preperiodic_witness is not None
                else None
            ),
            "curve_period_witness": self.curve_period_witness,
            "height_trace": list(self.height_trace),
            "verdict": self.verdict,
            "horizon": self.horizon,
            "max_period": self.max_period,
            "guards": {
                "orbit_guard_hit": self.orbit_guard_hit,
                "curve_search_capped": self.curve_search_capped,
            },
            "notes": list(self.notes),
        }


def _curve_period_capped(
    C: Curve, f: PolyMap, K: int, search_cap: int
) -> tuple[Optional[int], bool]:
    """is_periodic_curve under a temporary degree cap; (period, capped)."""
    saved = get_degree_cap()
    set_degree_cap(min(saved, search_cap))
    try:
        return is_periodic_curve(C, f, K), False
    except DegreeCapError:
        return None, True
    finally:
        set_degree_cap(saved)


def _tail_components(
    C: Curve, res: OrbitResult, visits: list[int], N: int
) -> list[Curve]:
    """Irreducible components of C whose own visits have an observed tail."""
    out = []
    for D in C.irreducible_components():
        on_D = {n for n in visits if D.contains(res.point_at(n))}
        if ap_decompose(on_D, N).progressions:
            out.append(D)
    return out


def dml_classify(
    f: PolyMap,
    C: Curve,
    p: Point,
    N: int = DEFAULT_HORIZON,
    K: int = DEFAULT_MAX_PERIOD,
    bit_guard: int = DEFAULT_BIT_GUARD,
    curve_search_cap: int = DEFAULT_CURVE_SEARCH_CAP,
) -> DmlReport:
    """Classify the visit structure of the orbit of p against C.

    Computes the exact visit set, decomposes it into progressions, and
    when an infinite pattern is observed searches for the two
    admissible explanations.  Guards are recorded in the report, never
    silently dropped.  The orbit stops at the step that completes an
    escape certificate, the last one the report reads.
    """
    res = orbit(f, p, N, bit_guard, stop=escape_watch(f, C.equation, p))
    return classify_orbit(f, C, res, K=K, curve_search_cap=curve_search_cap)


def classify_orbit(
    f: PolyMap,
    C: Curve,
    res: OrbitResult,
    K: int = DEFAULT_MAX_PERIOD,
    curve_search_cap: int = DEFAULT_CURVE_SEARCH_CAP,
) -> DmlReport:
    """dml_classify on an orbit already computed, res = orbit(f, p, N, ...).

    The orbit depends on neither C nor K, so one orbit serves every
    curve; the horizon N is res.horizon.  An escape certificate is read
    from the points up to its bound n1 alone, so the report is the same
    for every orbit that reaches n1.
    """
    N = res.horizon
    escape = certify(f, C.equation, res.points) if res.cycle is None else None
    if escape is not None:
        visits = [n for n in range(escape.bound) if C.contains(res.points[n])]
        return DmlReport(
            visit_set=tuple(visits),
            ap=ap_decompose(set(visits), N),
            preperiodic_witness=None,
            curve_period_witness=None,
            height_trace=tuple(height_affine(res.points[n]) for n in visits),
            verdict=VERDICT_FINITE,
            horizon=N,
            max_period=K,
            notes=(escape.note(),),
        )
    visits = orbit_visits(res, C)
    notes: list[str] = []
    truncated = res.guard_hit and res.cycle is None
    if truncated:
        # visit data only covers the computed prefix; decompose over it
        ap = ap_decompose(set(visits), res.last_computed)
        notes.append(
            f"orbit guard hit at n = {res.last_computed + 1}; "
            f"visit data truncated, no claim beyond n = {res.last_computed}"
        )
    else:
        ap = ap_decompose(set(visits), N)
    heights = tuple(
        height_affine(res.point_at(n)) for n in visits
    )
    pre_witness = res.cycle
    curve_witness: Optional[int] = None
    curve_capped = False
    tail_observed = bool(ap.progressions) and not truncated
    if tail_observed:
        curve_witness, curve_capped = _curve_period_capped(
            C, f, K, curve_search_cap
        )
        if curve_capped:
            notes.append(
                f"curve period search hit the degree cap before reaching K = {K}"
            )
    no_tail_component = False
    if (tail_observed and pre_witness is None and curve_witness is None
            and not curve_capped and not C.is_irreducible):
        # e.g. a line pair whose one line has period 2 and carries every
        # second point of the orbit: the pair itself has no period
        tails = _tail_components(C, res, visits, N)
        no_tail_component = not tails
        if no_tail_component:
            notes.append("no single component carries an observed visit tail")
        for D in tails:
            k, curve_capped = _curve_period_capped(D, f, K, curve_search_cap)
            if k is None:
                outcome = ("hit the degree cap" if curve_capped
                           else f"found no period <= {K}")
                notes.append(f"component {D} carries an observed visit tail; "
                             f"its period search {outcome}")
                curve_witness = None
                break
            notes.append(f"component {D} carries an observed visit tail "
                         f"and has period {k}")
            curve_witness = math.lcm(curve_witness or 1, k)
    if truncated:
        verdict = VERDICT_UNDETERMINED
    elif not tail_observed:
        verdict = VERDICT_FINITE
    elif pre_witness is not None:
        verdict = VERDICT_PREPERIODIC
    elif curve_witness is not None:
        verdict = VERDICT_CURVE_PERIODIC
    elif curve_capped or no_tail_component:
        verdict = VERDICT_UNDETERMINED
    else:
        verdict = VERDICT_VIOLATION
        notes.append(
            "observed periodic visit tail with no preperiodic orbit and "
            "no curve period <= K: contradicts the dichotomy"
        )
    return DmlReport(
        visit_set=tuple(visits),
        ap=ap,
        preperiodic_witness=pre_witness,
        curve_period_witness=curve_witness,
        height_trace=heights,
        verdict=verdict,
        horizon=N,
        max_period=K,
        orbit_guard_hit=res.guard_hit,
        curve_search_capped=curve_capped,
        notes=tuple(notes),
    )
