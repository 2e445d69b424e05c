"""Plane maps, rational inverses, composition, serialization."""

import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmlwb.errors import (
    IndeterminacyError,
    InverseVerificationError,
    ZeroDenominatorError,
)
from dmlwb.maps import (
    KERNEL_MAX_BITS,
    STRIP_STEPS,
    Point,
    PolyMap,
    RatFunc,
    RationalMap,
    compose_map,
    coprime_fraction,
    iterate_map,
    map_from_json_dict,
    map_to_json_dict,
    point,
    verify_inverse,
)
from dmlwb.parsing import parse_poly
from dmlwb.poly import Poly2

X = Poly2.variable("x")
Y = Poly2.variable("y")


def henon() -> PolyMap:
    inv = RationalMap(RatFunc.parse("(x^2 - y)/(1)"), RatFunc.parse("(x)/(1)"))
    return PolyMap(parse_poly("y"), parse_poly("y^2 - x"), inv)


def triangular() -> PolyMap:
    # f = (2x, x^3 y + x^5), inverse = ((x/2), (32y - x^5)/(4x^3))
    inv = RationalMap(
        RatFunc.parse("(x/2)/(1)"),
        RatFunc.parse("(32*y - x^5)/(4*x^3)"),
    )
    return PolyMap(parse_poly("2*x"), parse_poly("x^3*y + x^5"), inv)


class TestRatFunc:
    def test_reduction(self):
        r = RatFunc(X * X - Y * Y, X - Y)
        assert r.num == X + Y
        assert r.den == Poly2.one()

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominatorError):
            RatFunc(X, Poly2.zero())

    def test_evaluate(self):
        r = RatFunc.parse("(x + y)/(x - y)")
        assert r.evaluate(point(3, 1)) == 2

    def test_pole_raises(self):
        r = RatFunc.parse("(1)/(x)")
        with pytest.raises(IndeterminacyError):
            r.evaluate(point(0, 5))

    def test_denominator_normalized_positive_primitive(self):
        r = RatFunc(X, Poly2.const(-2) * Y)
        assert r.den == Y
        assert r.num == Poly2.const(Fraction(-1, 2)) * X


class TestPolyMap:
    def test_apply(self):
        h = henon()
        assert h.apply(point(0, 0)) == Point(Fraction(0), Fraction(0))
        assert h.apply(point(1, 2)) == Point(Fraction(2), Fraction(3))

    def test_inverse_verified_on_construction(self):
        with pytest.raises(InverseVerificationError):
            PolyMap(
                parse_poly("y"),
                parse_poly("y^2 - x"),
                RationalMap(RatFunc.parse("(x)/(1)"), RatFunc.parse("(y)/(1)")),
            )

    def test_verify_inverse_both_directions(self):
        h = henon()
        assert verify_inverse(h.f1, h.f2, h.inverse)

    def test_inverse_round_trip_on_points(self):
        f = triangular()
        p = point("3/2", "-7")
        q = f.apply(p)
        back = Point(f.inverse.g1.evaluate(q), f.inverse.g2.evaluate(q))
        assert back == p

    def test_algebraic_degree(self):
        assert henon().algebraic_degree() == 2
        assert triangular().algebraic_degree() == 5


class TestComposition:
    def test_compose_is_f_after_g(self):
        f = PolyMap(parse_poly("x + 1"), parse_poly("y"))
        g = PolyMap(parse_poly("2*x"), parse_poly("y - x"))
        h = compose_map(f, g)
        p = point(3, 10)
        assert h.apply(p) == f.apply(g.apply(p))

    def test_composed_inverse_carried_and_valid(self):
        f, g = henon(), triangular()
        h = compose_map(f, g)
        assert h.inverse is not None
        assert verify_inverse(h.f1, h.f2, h.inverse)

    def test_iterate_matches_repeated_apply(self):
        h = henon()
        h3 = iterate_map(h, 3)
        p = point("1/2", "1/3")
        expect = h.apply(h.apply(h.apply(p)))
        assert h3.apply(p) == expect

    def test_iterate_zero_is_identity(self):
        e = iterate_map(henon(), 0)
        assert e.f1 == X and e.f2 == Y

    @settings(max_examples=20)
    @given(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
    def test_compose_associative_on_points(self, x0, y0):
        f = PolyMap(parse_poly("x + y"), parse_poly("y"))
        g = PolyMap(parse_poly("x"), parse_poly("y + 1"))
        h = PolyMap(parse_poly("2*x"), parse_poly("3*y"))
        p = Point(x0, y0)
        lhs = compose_map(compose_map(f, g), h)
        rhs = compose_map(f, compose_map(g, h))
        assert lhs.apply(p) == rhs.apply(p)


def pmap(f1: str, f2: str) -> PolyMap:
    return PolyMap(parse_poly(f1), parse_poly(f2))


def applied(f: PolyMap, p: Point, n: int) -> list[Point]:
    out = []
    for _ in range(n):
        p = f.apply(p)
        out.append(p)
    return out


def assert_reduced_equal(got: list[Point], want: list[Point]) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for u, v in zip(a, b):
            assert (u.numerator, u.denominator) == (v.numerator, v.denominator)
            assert u.denominator > 0 and math.gcd(u.numerator, u.denominator) == 1
            assert hash(u) == hash(v)


coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=12)
coordinates = st.builds(
    Fraction,
    st.integers(min_value=-40, max_value=40),
    st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 2**10, 3**5 * 7]),
)


@st.composite
def small_maps(draw):
    """Degree <= 2 maps with rational coefficients whose denominators share
    the primes 2 and 3 with the coordinates drawn above."""
    components = []
    for _ in range(2):
        monomials = draw(st.sets(
            st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
            max_size=4,
        ))
        components.append(Poly2.from_terms(
            {k: draw(coefficients) for k in monomials}
        ))
    return PolyMap(*components)


class TestIterates:
    """PolyMap.iterates against repeated apply: the same reduced Fractions."""

    @settings(max_examples=150, deadline=None)
    @given(small_maps(), coordinates, coordinates, st.integers(1, 5))
    def test_matches_repeated_apply(self, f, x0, y0, n):
        p = Point(x0, y0)
        got = list(itertools.islice(f.iterates(p), n))
        assert_reduced_equal(got, applied(f, p, n))

    @pytest.mark.parametrize("f1, f2, x0, y0, n", [
        # coefficient denominators share primes with the point
        ("1/6*x + 1/4*y", "3/2*x*y - 5/9", "2/3", "-3/2", 8),
        # coefficients carrying the point's primes in their numerators
        ("4*x^2 + 1/2", "9*y - 12*x*y", "1/2", "5/3", 8),
        # Hénon-like, denominators 3^(2^n)
        ("y", "y^2 - x + 1/3", "1", "2", 12),
        ("y", "y^2 - x", "1/2", "-3/4", 10),
        # integer arithmetic only (m = 1)
        ("2*x + 1", "x^3*y + x^5", "-1", "2", 10),
        # zero values: x - y vanishes on the diagonal, y - y^2 at y = 1
        ("x - y", "x*y + 1/3", "1/3", "1/3", 4),
        ("y - y^2", "x", "5/6", "1", 4),
        # tied top valuations whose sum cancels some of the prime
        ("x^2 + y", "y", "1/4", "3/16", 3),
    ])
    def test_known_orbits(self, f1, f2, x0, y0, n):
        f, p = pmap(f1, f2), point(Fraction(x0), Fraction(y0))
        got = list(itertools.islice(f.iterates(p), n))
        assert_reduced_equal(got, applied(f, p, n))

    @pytest.mark.parametrize("y_num, expected", [
        # 1/2^20 + (2^20 - 1)/2^20 = 1: twenty factors of 2 cancel
        (2**20 - 1, Fraction(1)),
        # 1/2^20 + (3 * 2^12 - 1)/2^20 = 3/2^8: twelve cancel
        (3 * 2**12 - 1, Fraction(3, 2**8)),
    ])
    def test_strip_bound_fallback(self, y_num, expected, monkeypatch):
        # more cancelled factors than single-digit strips: math.gcd finishes
        assert STRIP_STEPS < 12
        f = pmap("x^2 + y", "y")
        p = point(Fraction(1, 2**10), Fraction(y_num, 2**20))
        want = applied(f, p, 1)
        gcds = []
        original = math.gcd

        def counted(*args):
            gcds.append(args)
            return original(*args)

        monkeypatch.setattr(math, "gcd", counted)
        got = next(f.iterates(p))
        monkeypatch.undo()
        assert got.x == expected
        assert_reduced_equal([got], want)
        # one gcd, with the power of 2 left after STRIP_STEPS divisions
        assert [b for _, b in gcds] == [2**(20 - STRIP_STEPS)]

    def test_zero_component(self):
        f = PolyMap(Poly2.zero(), parse_poly("1/2*x"))
        got = list(itertools.islice(f.iterates(point(Fraction(1, 3), 0)), 3))
        assert got == [Point(0, Fraction(1, 6)), Point(0, 0), Point(0, 0)]

    def test_kernel_does_not_call_apply(self, monkeypatch):
        f = pmap("y", "y^2 - x + 1/3")
        want = applied(f, point(1, 2), 6)
        monkeypatch.setattr(PolyMap, "apply", None)
        assert list(itertools.islice(f.iterates(point(1, 2)), 6)) == want

    def test_wide_m_steps_with_apply(self, monkeypatch):
        # lcm of the denominators above 64 bits: no factoring, plain apply
        big = 2**KERNEL_MAX_BITS + 1
        f = pmap("y + 1/3", "x*y")
        p = point(Fraction(1, big), Fraction(5, 2))
        want = applied(f, p, 5)
        calls = []
        original = PolyMap.apply

        def counted(self, q):
            calls.append(q)
            return original(self, q)

        monkeypatch.setattr(PolyMap, "apply", counted)
        got = list(itertools.islice(f.iterates(p), 5))
        assert_reduced_equal(got, want)
        assert len(calls) == 5


@pytest.mark.parametrize("n, d", [
    (0, 1), (1, 1), (-7, 3), (3, 7), (2**70 + 1, 3**40), (-(3**50), 2**80 + 1),
])
def test_coprime_fraction_equals_fraction(n, d):
    q = coprime_fraction(n, d)
    assert type(q) is Fraction
    assert (q.numerator, q.denominator) == (n, d)
    assert q == Fraction(n, d) and hash(q) == hash(Fraction(n, d))
    assert str(q) == str(Fraction(n, d))


class TestSerialization:
    def test_round_trip_with_inverse(self):
        f = triangular()
        data = json.loads(json.dumps(map_to_json_dict(f)))
        g = map_from_json_dict(data)
        assert g.f1 == f.f1 and g.f2 == f.f2
        assert g.inverse is not None
        p = point("5/3", 2)
        assert g.apply(p) == f.apply(p)

    def test_round_trip_without_inverse(self):
        f = PolyMap(parse_poly("x + 1"), parse_poly("-y"))
        g = map_from_json_dict(map_to_json_dict(f))
        assert g.inverse is None
        assert g.apply(point(0, 1)) == Point(Fraction(1), Fraction(-1))
