"""Orbits, visit sets, progression decomposition, dichotomy classification."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmlwb import dml
from dmlwb.curves import Curve
from dmlwb.dml import (
    APSet,
    OrbitResult,
    _curve_period_capped,
    ap_decompose,
    dml_classify,
    orbit,
    orbit_visits,
    visit_set,
)
from dmlwb.errors import DegreeCapError
from dmlwb.maps import Point, PolyMap, iterate_map, point
from dmlwb.parsing import parse_poly
from dmlwb.poly import Poly2, get_degree_cap, set_degree_cap


def pmap(f1: str, f2: str) -> PolyMap:
    return PolyMap(parse_poly(f1), parse_poly(f2))


def curve(text: str) -> Curve:
    return Curve.from_string(text)


class TestOrbit:
    def test_two_cycle(self):
        res = orbit(pmap("-x", "-y"), point(1, 1), 10)
        assert res.cycle == (0, 2)
        assert res.points == (Point(1, 1), Point(-1, -1))
        assert res.point_at(7) == Point(-1, -1)
        assert not res.guard_hit

    def test_fixed_point(self):
        res = orbit(pmap("y", "y^2 - x"), point(0, 0), 5)
        assert res.cycle == (0, 1)
        assert res.point_at(1000) == Point(0, 0)

    def test_preperiodic_tail(self):
        # x -> x^2 on the first slot: 0 <- -1 -> 1 -> 1
        res = orbit(pmap("x^2", "y"), point(-1, 0), 8)
        assert res.cycle == (1, 1)
        assert res.points[:2] == (Point(-1, 0), Point(1, 0))

    def test_no_cycle_full_prefix(self):
        res = orbit(pmap("x + 1", "y"), point(0, 0), 6)
        assert res.cycle is None
        assert not res.guard_hit
        assert res.last_computed == 6
        assert res.points[-1] == Point(6, 0)
        with pytest.raises(IndexError):
            res.point_at(7)

    def test_guard_truncation(self):
        # squaring doubles the bit length every step
        res = orbit(pmap("x^2", "y"), point(2, 0), 100, bit_guard=16)
        assert res.guard_hit
        assert res.cycle is None
        assert res.last_computed < 100

    @given(st.integers(0, 6), st.integers(1, 6), st.integers(0, 60))
    def test_index_equals_the_cycle_formula(self, tail, period, n):
        # the formula point_at and orbit_visits each spelled out before index
        pts = tuple(point(k, 0) for k in range(tail + period))
        res = OrbitResult(pts, (tail, period), False, 60)
        want = n if n < len(pts) else tail + (n - tail) % period
        assert res.index(n) == want
        assert res.point_at(n) == pts[want]
        on = curve("x - 1")
        assert orbit_visits(res, on) == [
            m for m in range(61)
            if on.contains(pts[m if m < len(pts) else tail + (m - tail) % period])
        ]

    def test_orbit_matches_iterated_map(self):
        f = pmap("y", "y^2 - x")
        res = orbit(f, point(1, 2), 6)
        for n in range(7):
            assert res.point_at(n) == iterate_map(f, n).apply(point(1, 2))


def orbit_by_apply(f: PolyMap, p: Point, N: int, bit_guard: int) -> OrbitResult:
    """The orbit loop with one PolyMap.apply per step, for reference."""
    seen, points, current = {p: 0}, [p], p
    for k in range(1, N + 1):
        current = f.apply(current)
        if any(max(q.numerator.bit_length(), q.denominator.bit_length()) > bit_guard
               for q in current):
            return OrbitResult(tuple(points), None, True, N)
        if current in seen:
            return OrbitResult(tuple(points), (seen[current], k - seen[current]), False, N)
        seen[current] = k
        points.append(current)
    return OrbitResult(tuple(points), None, False, N)


small_coeffs = st.fractions(min_value=-2, max_value=2, max_denominator=6)


@st.composite
def quadratic_maps(draw):
    monomials = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    return PolyMap(*(
        Poly2.from_terms({k: draw(small_coeffs) for k in monomials
                          if draw(st.booleans())})
        for _ in range(2)
    ))


# one cycling, one guard-hit and one plain (horizon-bounded) orbit
PREFIX_CASES = [
    (pmap("x^2 - 1", "1 - y"), point(1, 3), 12, 10**6),
    (pmap("y", "y^2 - x + 1/3"), point(1, 2), 30, 200),
    (pmap("x + 1", "1/2*y"), point(0, 3), 9, 10**6),
]


class TestOrbitKernel:
    @settings(max_examples=120, deadline=None)
    @given(quadratic_maps(), small_coeffs, small_coeffs,
           st.integers(0, 10), st.sampled_from([4, 16, 64, 10**6]))
    def test_matches_the_apply_loop(self, f, x0, y0, N, bit_guard):
        p = Point(x0, y0)
        assert orbit(f, p, N, bit_guard) == orbit_by_apply(f, p, N, bit_guard)

    @pytest.mark.parametrize("f, p, N, bit_guard", PREFIX_CASES)
    def test_prefix_equals_the_shorter_orbit(self, f, p, N, bit_guard):
        full = orbit(f, p, N, bit_guard)
        for M in range(N + 1):
            assert full.prefix(M) == orbit(f, p, M, bit_guard)

    def test_prefix_cases_cover_cycle_guard_and_plain(self):
        kinds = [(res.cycle is not None, res.guard_hit)
                 for res in (orbit(*case) for case in PREFIX_CASES)]
        assert kinds == [(True, False), (False, True), (False, False)]

    def test_prefix_outside_the_horizon(self):
        res = orbit(pmap("x + 1", "y"), point(0, 0), 5)
        for M in (-1, 6):
            with pytest.raises(ValueError):
                res.prefix(M)


class TestVisitSet:
    def test_sign_flip_on_line(self):
        # (x+1, -y) visits y = 1 at even times
        visits = visit_set(pmap("x + 1", "-y"), point(0, 1), curve("y - 1"), 10)
        assert visits == [0, 2, 4, 6, 8, 10]

    def test_two_cycle_on_line(self):
        visits = visit_set(pmap("-x", "-y"), point(1, 1), curve("x - 1"), 9)
        assert visits == [0, 2, 4, 6, 8]

    def test_sparse_visits(self):
        # 2^n = 2n has exactly the solutions n = 1, 2
        visits = visit_set(pmap("x + 1", "2*y"), point(0, 1), curve("y - 2*x"), 20)
        assert visits == [1, 2]

    def test_cycle_extension_beyond_prefix(self):
        # the orbit repeats after 2 steps but the horizon is far larger
        visits = visit_set(pmap("-x", "-y"), point(1, 1), curve("x - 1"), 1001)
        assert visits == list(range(0, 1002, 2))

    def test_with_orbit_exposes_guard(self):
        res = orbit(pmap("x^2", "y"), point(2, 1), 50, bit_guard=16)
        visits = orbit_visits(res, curve("y - 1"))
        assert res.guard_hit
        assert visits == list(range(res.last_computed + 1))

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=40))
    def test_cycling_orbit_oracle(self, N):
        # brute force against point_at for a cycling orbit
        f = pmap("-x", "-y")
        C = curve("x - 1")
        res = orbit(f, point(1, 1), N)
        expected = [n for n in range(N + 1) if C.contains(res.point_at(n))]
        assert visit_set(f, point(1, 1), C, N) == expected


class TestAPDecompose:
    def test_pure_even(self):
        ap = ap_decompose({0, 2, 4, 6, 8, 10}, 10)
        assert ap.progressions == ((2, 0),)
        assert ap.exceptional == ()

    def test_offset_parity_with_exception(self):
        s = {0} | set(range(1, 20, 2))
        ap = ap_decompose(s, 19)
        assert ap.progressions == ((2, 1),)
        assert ap.exceptional == (0,)

    def test_sporadic_set(self):
        ap = ap_decompose({0, 1, 4, 9}, 20)
        assert ap.progressions == ()
        assert ap.exceptional == (0, 1, 4, 9)

    def test_empty_set(self):
        ap = ap_decompose(set(), 12)
        # the empty set is 1-periodic with no residue classes occupied
        assert ap.progressions == ()
        assert ap.exceptional == ()
        assert ap.members() == set()

    def test_full_interval(self):
        ap = ap_decompose(set(range(13)), 12)
        assert ap.progressions == ((1, 0),)
        assert ap.exceptional == ()

    def test_members_decodes(self):
        ap = APSet(progressions=((3, 1),), exceptional=(0,), horizon=10)
        assert ap.members() == {0, 1, 4, 7, 10}
        assert ap.members(5) == {0, 1, 4}

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ap_decompose({5, 30}, 20)
        with pytest.raises(ValueError):
            ap_decompose({-1}, 20)

    def test_least_difference_wins(self):
        # multiples of 2 are also 4-periodic; a = 2 must be chosen
        ap = ap_decompose(set(range(0, 41, 2)), 40)
        assert ap.progressions == ((2, 0),)

    def test_window_rule(self):
        # a = 1 tail of length 2 at the end is too short to certify
        ap = ap_decompose({18, 19, 20}, 20)
        assert ap.progressions == ((1, 18),)
        # horizon 20, cut 18: window 3 >= 3*1 certifies exactly at the rule edge

    @settings(max_examples=200)
    @given(
        st.integers(min_value=1, max_value=6),
        st.sets(st.integers(min_value=0, max_value=11), max_size=8),
        st.data(),
    )
    def test_reconstruction(self, a, residues_raw, data):
        # build an eventually periodic set, decompose, decode, compare
        N = data.draw(st.integers(min_value=40, max_value=120))
        n0 = data.draw(st.integers(min_value=0, max_value=10))
        residues = {r % a for r in residues_raw}
        head = data.draw(st.sets(st.integers(min_value=0, max_value=max(0, n0 - 1)), max_size=5))
        S = set(head)
        for n in range(n0, N + 1):
            if n % a in residues:
                S.add(n)
        ap = ap_decompose(S, N)
        assert ap.members() == S


def test_capped_curve_search_restores_degree_cap():
    saved = get_degree_cap()
    set_degree_cap(2048)
    try:
        got = _curve_period_capped(curve("x"), pmap("y", "y^2 - x"), 12, 128)
        assert got == (None, True)
        assert get_degree_cap() == 2048
    finally:
        set_degree_cap(saved)


class TestDmlClassify:
    def test_curve_periodic_case(self):
        rep = dml_classify(
            pmap("x + 1", "-y"), curve("y - 1"), point(0, 1), N=10, K=4
        )
        assert rep.verdict == "dichotomy_confirmed_curve_periodic"
        assert rep.visit_set == (0, 2, 4, 6, 8, 10)
        assert rep.ap.progressions == ((2, 0),)
        assert rep.preperiodic_witness is None
        assert rep.curve_period_witness == 2
        assert rep.height_trace == (1, 2, 4, 6, 8, 10)

    def test_preperiodic_case(self):
        rep = dml_classify(pmap("-x", "-y"), curve("x - 1"), point(1, 1), N=9, K=4)
        assert rep.verdict == "dichotomy_confirmed_preperiodic"
        assert rep.visit_set == (0, 2, 4, 6, 8)
        assert rep.ap.progressions == ((2, 0),)
        assert rep.preperiodic_witness == (0, 2)

    def test_finite_visits_case(self):
        rep = dml_classify(
            pmap("x + 1", "2*y"), curve("y - 2*x"), point(0, 1), N=20, K=4
        )
        assert rep.verdict == "finite_visits"
        assert rep.visit_set == (1, 2)
        assert rep.ap.progressions == ()
        assert rep.ap.exceptional == (1, 2)

    def test_truncated_is_undetermined(self):
        rep = dml_classify(
            pmap("x^2", "y"), curve("y - 1"), point(2, 1), N=100, K=3, bit_guard=16
        )
        assert rep.verdict == "undetermined"
        assert rep.orbit_guard_hit
        assert any("guard" in s for s in rep.notes)

    def test_truncated_never_violation_even_with_dense_visits(self):
        # every computed point is on the curve, then the guard trips
        rep = dml_classify(
            pmap("2*x", "y"), curve("y - 1"), point(1, 1), N=500, K=3, bit_guard=24
        )
        assert rep.orbit_guard_hit
        assert rep.verdict == "undetermined"

    def test_curve_search_cap_gives_undetermined(self):
        # visits certify an AP but the curve search explodes in degree:
        # orbit of (1,1) under the squaring map stays on y = x forever
        rep = dml_classify(
            pmap("x^2", "x^2"),
            curve("y - x"),
            point(2, 2),
            N=12,
            K=12,
            bit_guard=10**6,
            curve_search_cap=32,
        )
        assert rep.visit_set == tuple(range(13))
        assert rep.preperiodic_witness is None
        if rep.curve_search_capped:
            assert rep.verdict == "undetermined"
        else:
            # cap not reached: the fixed curve must have been found
            assert rep.verdict == "dichotomy_confirmed_curve_periodic"

    def test_curve_search_trips_a_small_cap(self):
        # cap 1 leaves no room to form C(f) for the fixed curve y = x
        rep = dml_classify(
            pmap("x^2", "x^2"),
            curve("y - x"),
            point(2, 2),
            N=12,
            K=12,
            curve_search_cap=1,
        )
        assert rep.curve_search_capped
        assert rep.verdict == "undetermined"
        assert rep.notes == (
            "curve period search hit the degree cap before reaching K = 12",
        )

    def test_fixed_curve_found_without_cap(self):
        rep = dml_classify(
            pmap("x^2", "x^2"), curve("y - x"), point(2, 2), N=12, K=3
        )
        assert rep.verdict == "dichotomy_confirmed_curve_periodic"
        assert rep.curve_period_witness == 1

    def test_reducible_curve_with_periodic_component(self):
        # x alternates 0, 2: the line x = 0 has period 2 and carries every
        # second point, while the pair x*y has no period at all
        rep = dml_classify(
            pmap("-x + 2", "2*x*y - 2*y - 2"),
            curve("x*y"),
            point(0, -4),
            N=200,
            K=12,
            bit_guard=5 * 10**4,
        )
        assert rep.verdict == "dichotomy_confirmed_curve_periodic"
        assert rep.curve_period_witness == 2
        assert rep.ap.progressions == ((2, 0),)
        assert rep.preperiodic_witness is None
        assert not rep.curve_search_capped

    def test_no_component_carries_a_tail(self):
        # each of the five vertical lines is visited once, so the union
        # has an observed tail while no single component has one
        rep = dml_classify(
            pmap("x + 1", "y"),
            curve("x*(x - 1)*(x - 2)*(x - 3)*(x - 4)"),
            point(0, 0),
            N=4,
            K=2,
        )
        assert rep.visit_set == (0, 1, 2, 3, 4)
        assert rep.ap.progressions == ((1, 0),)
        assert rep.curve_period_witness is None
        assert not rep.curve_search_capped
        assert rep.verdict == "undetermined"
        assert rep.notes == ("no single component carries an observed visit tail",)

    def test_heights_follow_visits(self):
        rep = dml_classify(pmap("x + 1", "-y"), curve("y - 1"), point(0, 1), N=6)
        assert len(rep.height_trace) == len(rep.visit_set)
        assert all(isinstance(h, int) and h >= 1 for h in rep.height_trace)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=2, max_value=3))
    def test_iterate_consistency(self, m):
        # visits of f^m at horizon N//m are the f-visits divisible by m, scaled
        f = pmap("x + 1", "-y")
        C = curve("y - 1")
        p = point(0, 1)
        N = 24
        rep = dml_classify(f, C, p, N=N, K=6)
        fm = iterate_map(f, m)
        rep_m = dml_classify(fm, C, p, N=N // m, K=6)
        expected = [n // m for n in rep.visit_set if n % m == 0 and n // m <= N // m]
        assert list(rep_m.visit_set) == expected
        # dichotomy verdicts agree in kind on this fully periodic instance
        assert rep.verdict.startswith("dichotomy_confirmed")
        assert rep_m.verdict.startswith("dichotomy_confirmed") or (
            rep_m.verdict == "finite_visits"
        )

    @pytest.mark.parametrize("text", ["x", "y - x^2", "x*y - x + y"])
    def test_capped_search_never_overrides_a_cycle(self, text):
        # (0, 0) is fixed by the Hénon map, so every curve through it has
        # a tail; each real period search trips the default degree cap
        rep = dml_classify(pmap("y", "y^2 - x"), curve(text), point(0, 0))
        assert rep.verdict == "dichotomy_confirmed_preperiodic"
        assert rep.preperiodic_witness == (0, 1)
        assert rep.curve_search_capped
        assert rep.notes == (
            "curve period search hit the degree cap before reaching K = 12",
        )

    def test_report_json_shape(self):
        rep = dml_classify(pmap("-x", "-y"), curve("x - 1"), point(1, 1), N=9)
        d = rep.to_json_dict()
        assert set(d) == {
            "visit_set", "ap", "preperiodic_witness", "curve_period_witness",
            "height_trace", "verdict", "horizon", "max_period", "guards", "notes",
        }
        assert d["guards"] == {
            "orbit_guard_hit": False,
            "curve_search_capped": False,
        }
        assert d["preperiodic_witness"] == [0, 2]


def no_period(C, f, K):
    return None


def capped(C, f, K):
    raise DegreeCapError("degree cap in a test")


class TestVerdictPaths:
    """The verdicts after a certified visit tail when the curve period
    search caps or finds nothing, forced by replacing that search.
    f = (x + 1, -y) puts the orbit of (0, 1) on y = 1 at every even step
    and on y = -1 at every odd one."""

    def classify(self, monkeypatch, search, text):
        monkeypatch.setattr(dml, "is_periodic_curve", search)
        return dml_classify(pmap("x + 1", "-y"), curve(text), point(0, 1), N=10, K=4)

    def test_capped_search_is_undetermined(self, monkeypatch):
        rep = self.classify(monkeypatch, capped, "y - 1")
        assert rep.ap.progressions == ((2, 0),)
        assert rep.curve_search_capped
        assert rep.verdict == "undetermined"
        assert rep.notes == (
            "curve period search hit the degree cap before reaching K = 4",
        )

    def test_no_period_is_a_violation(self, monkeypatch):
        rep = self.classify(monkeypatch, no_period, "y - 1")
        assert rep.preperiodic_witness is None
        assert rep.curve_period_witness is None
        assert not rep.curve_search_capped
        assert rep.verdict == "VIOLATION"
        assert rep.notes == (
            "observed periodic visit tail with no preperiodic orbit and "
            "no curve period <= K: contradicts the dichotomy",
        )

    def test_component_without_a_period_is_a_violation(self, monkeypatch):
        rep = self.classify(monkeypatch, no_period, "y^2 - 1")
        D = curve("y^2 - 1").irreducible_components()[0]
        assert rep.ap.progressions == ((1, 0),)
        assert rep.verdict == "VIOLATION"
        assert rep.notes[0] == (
            f"component {D} carries an observed visit tail; "
            "its period search found no period <= 4"
        )
        assert len(rep.notes) == 2 and "contradicts the dichotomy" in rep.notes[1]

    def test_capped_component_search_is_undetermined(self, monkeypatch):
        def search(C, f, K):
            return capped(C, f, K) if C.is_irreducible else no_period(C, f, K)

        rep = self.classify(monkeypatch, search, "y^2 - 1")
        D = curve("y^2 - 1").irreducible_components()[0]
        assert rep.curve_search_capped
        assert rep.curve_period_witness is None
        assert rep.verdict == "undetermined"
        assert rep.notes == (
            f"component {D} carries an observed visit tail; "
            "its period search hit the degree cap",
        )

    def test_capped_search_on_a_cycling_orbit_is_preperiodic(self, monkeypatch):
        # the search still runs on a cycling orbit, and its cap is recorded
        monkeypatch.setattr(dml, "is_periodic_curve", capped)
        rep = dml_classify(pmap("-x", "-y"), curve("x - 1"), point(1, 1), N=9, K=4)
        assert rep.preperiodic_witness == (0, 2)
        assert rep.curve_search_capped
        assert rep.verdict == "dichotomy_confirmed_preperiodic"
        assert rep.notes == (
            "curve period search hit the degree cap before reaching K = 4",
        )

    @pytest.mark.parametrize("search", [no_period, capped])
    def test_truncated_orbit_is_never_a_violation(self, monkeypatch, search):
        # every computed point lies on y = 1 until the guard trips
        monkeypatch.setattr(dml, "is_periodic_curve", search)
        rep = dml_classify(
            pmap("2*x", "y"), curve("y - 1"), point(1, 1), N=500, K=3, bit_guard=24
        )
        assert rep.orbit_guard_hit
        assert rep.verdict == "undetermined"
        assert not rep.curve_search_capped
        assert len(rep.notes) == 1 and rep.notes[0].startswith("orbit guard hit")
