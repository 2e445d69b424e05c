"""Valuations, absolute values, heights, point enumeration."""

import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmlwb.arith import factorize, is_prime
from dmlwb.dml import height_growth_probe
from dmlwb.errors import ResourceCapError
from dmlwb.maps import PolyMap, point
from dmlwb.parsing import parse_poly
from dmlwb.places import (
    Place,
    ProjPoint,
    abs_value,
    embed_P2,
    height_affine,
    northcott_enumerate,
    ord_p,
    product_formula_check,
    relevant_places,
)

nonzero_fractions = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**6
).filter(lambda q: q != 0)


class TestArith:
    def test_is_prime_small(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]
        assert not is_prime(1)
        assert not is_prime(0)

    def test_is_prime_large(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**67 - 1)  # Mersenne composite

    def test_factorize(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(1) == {}
        n = 10403  # 101 * 103
        assert factorize(n) == {101: 1, 103: 1}

    @settings(max_examples=50)
    @given(st.integers(min_value=2, max_value=10**9))
    def test_factorize_reconstructs(self, n):
        prod = 1
        for p, e in factorize(n).items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


class TestPlace:
    def test_parse(self):
        assert Place.parse("inf").is_archimedean
        assert Place.parse("7") == Place.finite(7)

    def test_parse_rejects_composite(self):
        with pytest.raises(ValueError):
            Place.parse("6")

    def test_str(self):
        assert str(Place.archimedean()) == "inf"
        assert str(Place.finite(5)) == "5"

    def test_ord_p(self):
        assert ord_p(Fraction(12), 2) == 2
        assert ord_p(Fraction(1, 8), 2) == -3
        assert ord_p(Fraction(5, 3), 2) == 0

    def test_abs_value(self):
        assert abs_value(Fraction(-3, 2), Place.archimedean()) == Fraction(3, 2)
        assert abs_value(Fraction(12), Place.finite(2)) == Fraction(1, 4)
        assert abs_value(Fraction(1, 8), Place.finite(2)) == 8
        assert abs_value(0, Place.finite(3)) == 0

    def test_relevant_places(self):
        places = relevant_places(Fraction(12, 35))
        assert places[0].is_archimedean
        assert [v.p for v in places[1:]] == [2, 3, 5, 7]

    @settings(max_examples=100)
    @given(nonzero_fractions)
    def test_product_formula(self, q):
        assert product_formula_check(q)

    @settings(max_examples=50)
    @given(nonzero_fractions, nonzero_fractions)
    def test_abs_multiplicative(self, a, b):
        for v in relevant_places(a * b):
            assert abs_value(a * b, v) == abs_value(a, v) * abs_value(b, v)


class TestProjPoint:
    def test_canonical_form(self):
        assert ProjPoint([Fraction(1, 2), Fraction(3, 4)]).coords == (2, 3)
        assert ProjPoint([-1, 2]).coords == (1, -2)
        assert ProjPoint([0, -5]).coords == (0, 1) or ProjPoint([0, -5]).coords == (0, -1)

    def test_leading_sign(self):
        # first nonzero coordinate is normalized positive
        assert ProjPoint([0, -5]).coords[1] > 0

    def test_equality_is_projective(self):
        assert ProjPoint([2, 4, 6]) == ProjPoint([1, 2, 3])
        assert ProjPoint([1, 2]) != ProjPoint([2, 1])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            ProjPoint([0, 0, 0])

    @settings(max_examples=50)
    @given(
        nonzero_fractions,
        st.fractions(min_value=-100, max_value=100, max_denominator=100),
        st.fractions(min_value=-100, max_value=100, max_denominator=100),
    )
    def test_scaling_invariance(self, t, a, b):
        assert ProjPoint([a, b, 1]) == ProjPoint([t * a, t * b, t])


class TestHeights:
    def test_height_examples(self):
        assert height_affine(point("3/2", 5)) == 10
        assert height_affine(point(0, 0)) == 1
        assert ProjPoint([1, 1]).height() == 1
        assert ProjPoint([Fraction(2, 3), 5]).height() == 15

    def test_embed(self):
        assert embed_P2(point("1/2", "1/3")).coords == (6, 3, 2)

    @settings(max_examples=50)
    @given(nonzero_fractions)
    def test_height_from_places(self, q):
        # H([1:q]) = prod_v max(1, |q|_v) over relevant places
        h = Fraction(1)
        for v in relevant_places(q):
            h *= max(Fraction(1), abs_value(q, v))
        assert h == ProjPoint([1, q]).height()


class TestNorthcott:
    def test_p1_height_1(self):
        pts = northcott_enumerate(1, 1)
        assert len(pts) == 4
        assert set(map(str, pts)) == {"[0:1]", "[1:0]", "[1:1]", "[1:-1]"}

    def test_p1_height_2(self):
        pts = northcott_enumerate(2, 1)
        assert len(pts) == 8

    def test_counts_match_direct_filter(self):
        # independent oracle: canonical pairs with |a|,|b| <= B and gcd 1
        for B in (1, 2, 3, 5):
            pts = northcott_enumerate(B, 1)
            assert len(pts) == len(set(pts))
            assert all(q.height() <= B for q in pts)
            bigger = northcott_enumerate(B + 1, 1)
            assert set(pts) == {q for q in bigger if q.height() <= B}

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("B", [0, 1, 2, 3])
    def test_equals_filter_over_the_full_cube(self, B, dim):
        # every nonzero integer tuple in [-B, B]^(dim+1), canonicalized
        cube = itertools.product(range(-B, B + 1), repeat=dim + 1)
        expected = {ProjPoint(t) for t in cube if any(t)}
        assert northcott_enumerate(B, dim) == sorted(expected, key=lambda q: q.coords)

    def test_p2_contains_affine_lattice(self):
        pts = set(northcott_enumerate(2, 2))
        for x in range(-2, 3):
            for y in range(-2, 3):
                assert ProjPoint([1, x, y]) in pts

    def test_cap_guards_scan(self):
        with pytest.raises(ResourceCapError):
            northcott_enumerate(10**9, 2)


class TestGrowthProbe:
    def test_henon_heights_square(self):
        f = PolyMap(parse_poly("y"), parse_poly("y^2 - x"))
        samples = height_growth_probe(f, point(0, 3), 3)
        # orbit: (0,3) -> (3,9) -> (9,78) -> (78,6075)
        assert [s.height for s in samples] == [3, 9, 78, 6075]
        assert samples[1].log_ratio == pytest.approx(1.983, abs=1e-3)

    def test_bit_guard_ends_the_samples_early(self):
        f = PolyMap(parse_poly("y"), parse_poly("y^2 - x"))
        start = time.perf_counter()
        samples = height_growth_probe(f, point(1, 2), 30)
        assert time.perf_counter() - start < 1.0
        assert 0 < len(samples) < 31
        assert [s.n for s in samples] == list(range(len(samples)))

    def test_ratio_omitted_at_height_one(self):
        f = PolyMap(parse_poly("x + 1"), parse_poly("y"))
        samples = height_growth_probe(f, point(0, 0), 2)
        assert samples[0].log_ratio is None

    @pytest.mark.parametrize("f1, f2, x0, y0", [
        ("y", "y^2 - x", "0", "3"),
        ("y", "y^2 - x + 1/3", "1", "2"),
        ("2*x + 1", "x^3*y + x^5", "-1/2", "2/3"),
        ("1/6*x + 1/4*y", "3/2*x*y - 5/9", "2/3", "-3/2"),
        ("-x", "-y", "5/7", "1"),
    ])
    def test_matches_the_apply_loop(self, f1, f2, x0, y0):
        f = PolyMap(parse_poly(f1), parse_poly(f2))
        p = point(Fraction(x0), Fraction(y0))
        pts = [p]
        for _ in range(7):
            pts.append(f.apply(pts[-1]))
        heights = [height_affine(q) for q in pts]
        samples = height_growth_probe(f, p, 6)
        assert [(s.n, s.height) for s in samples] == list(enumerate(heights[:7]))
        for s in samples:
            h, h_next = heights[s.n], heights[s.n + 1]
            if h > 1 and h_next > 1:
                assert s.log_ratio == math.log(h_next) / math.log(h)
            else:
                assert s.log_ratio is None
