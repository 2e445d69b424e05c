"""Exact polynomial arithmetic: ring laws, divisibility, parsing."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dmlwb.errors import DegreeCapError, PolyParseError
from dmlwb.parsing import parse_point, parse_poly, parse_ratfunc_pair
from dmlwb.poly import (
    RESIDUE_PRIME,
    Poly2,
    _divmod_x,
    _from_x_coeff_list,
    _pseudo_rem_y,
    _x_coeff_list,
    as_fraction,
    compose_rational,
    divides,
    exact_div,
    get_degree_cap,
    normalize_primitive,
    poly_gcd,
    poly_sum,
    set_degree_cap,
    squarefree_part,
    y_coefficients,
)

X = Poly2.variable("x")
Y = Poly2.variable("y")


def sp(p: Poly2):
    x, y = sympy.symbols("x y")
    return sympy.expand(
        sum(
            sympy.Rational(c.numerator, c.denominator) * x**i * y**j
            for (i, j), c in p.terms()
        )
    )


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def polys(draw, max_terms=5, max_deg=3):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        i = draw(st.integers(min_value=0, max_value=max_deg))
        j = draw(st.integers(min_value=0, max_value=max_deg))
        terms[(i, j)] = draw(small_fracs)
    return Poly2.from_terms(terms)


class TestConstruction:
    def test_zero_and_one(self):
        assert Poly2.zero().is_zero
        assert Poly2.one().is_constant()
        assert Poly2.one().evaluate(5, 7) == 1

    def test_canonical_drops_zero_coefficients(self):
        p = Poly2.from_terms({(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert p == 2 * Y
        assert p.total_degree() == 1

    def test_as_fraction_forms(self):
        assert as_fraction(3) == 3
        assert as_fraction("3/4") == Fraction(3, 4)
        assert as_fraction(Fraction(-1, 2)) == Fraction(-1, 2)

    def test_variable_names(self):
        assert str(X) == "x"
        assert str(Y) == "y"
        with pytest.raises(ValueError):
            Poly2.variable("z")


class TestArithmetic:
    def test_known_product(self):
        p = (X + Y) * (X - Y)
        assert p == X * X - Y * Y

    def test_power(self):
        assert (X + 1) ** 3 == X**3 + 3 * X**2 + 3 * X + 1

    def test_evaluate_exact(self):
        p = parse_poly("3*x^2*y - y + 1/2")
        assert p.evaluate(Fraction(1, 3), Fraction(3)) == 1 - 3 + Fraction(1, 2)

    def test_compose_matches_substitution(self):
        p = parse_poly("x^2 + y")
        q = p.compose(X + Y, X * Y)
        assert q == (X + Y) ** 2 + X * Y

    @settings(max_examples=60)
    @given(polys(), polys(), polys())
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + Poly2.zero() == a
        assert a * Poly2.one() == a

    @settings(max_examples=40)
    @given(polys(), polys())
    def test_matches_sympy_oracle(self, a, b):
        assert sp(a * b) == sympy.expand(sp(a) * sp(b))
        assert sp(a + b) == sp(a) + sp(b)

    @settings(max_examples=30)
    @given(polys(max_deg=2), st.fractions(min_value=-3, max_value=3, max_denominator=4),
           st.fractions(min_value=-3, max_value=3, max_denominator=4))
    def test_evaluate_is_ring_hom(self, p, x0, y0):
        q = p * p + p
        assert q.evaluate(x0, y0) == p.evaluate(x0, y0) ** 2 + p.evaluate(x0, y0)

    @settings(max_examples=60)
    @given(polys(), small_fracs, small_fracs)
    def test_vanishes_at_matches_evaluate(self, p, x0, y0):
        # p minus its value at (x0, y0) is a curve through that point
        through = p - p.evaluate(x0, y0)
        for q in (p, through, through * p):
            assert q.vanishes_at(x0, y0) == (q.evaluate(x0, y0) == 0)
        assert through.vanishes_at(x0, y0)

    @settings(max_examples=100)
    @given(polys(), st.data())
    def test_vanishes_at_with_residue_collisions(self, p, data):
        # coordinates and values that are 0 modulo Q but not 0
        Q = RESIDUE_PRIME
        special = st.sampled_from([
            Fraction(Q), Fraction(-2 * Q), Fraction(1, Q), Fraction(Q, 2),
            Fraction(3, 2 * Q), Fraction(Q + 1, Q), Fraction(0),
        ])
        x0 = data.draw(st.one_of(special, small_fracs))
        y0 = data.draw(st.one_of(special, small_fracs))
        shift = data.draw(st.sampled_from([0, Q, -Q, Fraction(Q, 3), 2**61]))
        for q in (p, p - p.evaluate(x0, y0), p - p.evaluate(x0, y0) + shift):
            assert q.vanishes_at(x0, y0) == (q.evaluate(x0, y0) == 0)

    def test_residue_collision_is_not_a_zero(self):
        # x - Q is 0 modulo Q at x = 0, and -Q != 0
        q = parse_poly(f"x - {RESIDUE_PRIME}")
        assert not q.vanishes_at(0, 5)
        assert q.vanishes_at(RESIDUE_PRIME, 5)

    def test_denominator_divisible_by_the_residue_prime(self):
        Q = RESIDUE_PRIME
        q = parse_poly(f"{Q}*x*y - y")
        assert q.vanishes_at(Fraction(1, Q), 7)
        assert not q.vanishes_at(Fraction(2, Q), 7)
        assert not q.vanishes_at(Fraction(1, 3 * Q), Fraction(5, 2 * Q))

    def test_nonzero_residue_skips_the_integer_sum(self, monkeypatch):
        q = parse_poly("y^2 - x^3 + 1/3")
        x0, y0 = Fraction(3**40 + 1, 2**50), Fraction(-(7**30), 5**20)
        expected = q.evaluate(x0, y0) == 0

        def no_exact_sum(*args):
            raise AssertionError("exact path taken")

        monkeypatch.setattr(Poly2, "_scaled_value", no_exact_sum)
        assert q.vanishes_at(x0, y0) is expected is False

    def test_degree_bookkeeping(self):
        p = parse_poly("x^3*y^2 + x")
        assert p.deg_x() == 3
        assert p.deg_y() == 2
        assert p.total_degree() == 5


nonzero_dens = polys(max_terms=3, max_deg=1).filter(lambda q: not q.is_zero)


class TestSummation:
    @settings(max_examples=80)
    @given(st.lists(polys(), max_size=6))
    def test_sum_matches_fraction_oracle(self, ps):
        expected: dict = {}
        for p in ps:
            for k, c in p.terms():
                expected[k] = expected.get(k, 0) + c
        total = poly_sum(p for p in ps)
        assert dict(total.terms()) == {k: c for k, c in expected.items() if c}
        # canonical: content and denominator coprime, so == sees equal sums
        nums, den = total.integer_form()
        assert math.gcd(den, *nums.values()) == 1
        assert total == Poly2.from_terms(expected)

    @settings(max_examples=40)
    @given(polys())
    def test_full_cancellation_is_zero_over_one(self, p):
        parts = [p * Fraction(1, 2), p * Fraction(1, 3), p * Fraction(-5, 6)]
        for total in (poly_sum([p, -p]), poly_sum(parts)):
            assert total.is_zero
            assert total.integer_form() == ({}, 1)

    def test_empty_sum_is_zero(self):
        assert poly_sum([]).integer_form() == ({}, 1)

    @settings(max_examples=40)
    @given(polys(max_deg=2), polys(max_terms=3, max_deg=2),
           polys(max_terms=3, max_deg=2), small_fracs, small_fracs)
    def test_compose_matches_evaluation(self, p, gx, gy, x0, y0):
        value = p.evaluate(gx.evaluate(x0, y0), gy.evaluate(x0, y0))
        assert p.compose(gx, gy).evaluate(x0, y0) == value

    @settings(max_examples=40)
    @given(polys(max_deg=2), polys(max_terms=3, max_deg=2), nonzero_dens,
           polys(max_terms=3, max_deg=2), nonzero_dens, small_fracs, small_fracs)
    def test_compose_rational_matches_evaluation(self, p, nx, dx, ny, dy, x0, y0):
        dxv, dyv = dx.evaluate(x0, y0), dy.evaluate(x0, y0)
        assume(dxv != 0 and dyv != 0)
        num, den = compose_rational(p, nx, dx, ny, dy)
        value = p.evaluate(nx.evaluate(x0, y0) / dxv, ny.evaluate(x0, y0) / dyv)
        assert num.evaluate(x0, y0) == value * den.evaluate(x0, y0)
        if not p.is_zero:
            assert den == dx ** p.deg_x() * dy ** p.deg_y()


class TestDegreeCap:
    def test_cap_blocks_large_products(self):
        set_degree_cap(8)
        try:
            p = X**4
            with pytest.raises(DegreeCapError):
                _ = (p * p) * p
        finally:
            set_degree_cap(4096)

    def test_cap_restored(self):
        assert get_degree_cap() == 4096

    def test_power_cap_triggers_before_computing(self):
        set_degree_cap(16)
        try:
            with pytest.raises(DegreeCapError):
                _ = (X + Y) ** 17
        finally:
            set_degree_cap(4096)


class TestDivisibility:
    def test_exact_div_recovers_factor(self):
        a = (X**2 + Y) * (X * Y - 3)
        assert exact_div(a, X**2 + Y) == X * Y - 3
        assert exact_div(a, X + 1) is None

    @settings(max_examples=40)
    @given(polys(max_terms=4, max_deg=2), polys(max_terms=4, max_deg=2))
    def test_product_always_divisible(self, a, b):
        if a.is_zero or b.is_zero:
            return
        prod = a * b
        q = exact_div(prod, b)
        assert q is not None and q * b == prod

    def test_divides_handles_constants(self):
        assert divides(Poly2.const("2/3"), X + Y)
        assert not divides(X, Poly2.one())

    def test_poly_gcd_common_factor(self):
        g = X + Y
        a = g * (X - 1)
        b = g * (Y**2 + 2)
        got = poly_gcd(a, b)
        assert got == normalize_primitive(g)

    @settings(max_examples=25)
    @given(polys(max_terms=3, max_deg=2), polys(max_terms=3, max_deg=2),
           polys(max_terms=3, max_deg=1))
    def test_gcd_divides_both(self, a, b, g):
        a, b = a * g, b * g
        if a.is_zero or b.is_zero:
            return
        d = poly_gcd(a, b)
        assert divides(d, a) and divides(d, b)
        if not g.is_constant():
            assert divides(g, d)

    def test_squarefree_part(self):
        p = (X + Y) ** 3 * (X - 1)
        s = squarefree_part(p)
        assert s == normalize_primitive((X + Y) * (X - 1))

    def test_normalize_primitive_sign(self):
        p = normalize_primitive(parse_poly("-2*x - 4"))
        assert p == X + 2


class TestDivisionKernels:
    @settings(max_examples=60)
    @given(st.lists(small_fracs, max_size=7).map(_from_x_coeff_list),
           st.lists(small_fracs, min_size=1, max_size=4).map(_from_x_coeff_list))
    def test_divmod_x_is_euclidean_division(self, a, b):
        assume(not b.is_zero)
        q, r = _divmod_x(_x_coeff_list(a), _x_coeff_list(b))
        assert not r or r[-1]
        q, r = _from_x_coeff_list(q), _from_x_coeff_list(r)
        assert q * b + r == a
        assert r.is_zero or r.deg_x() < b.deg_x()

    @settings(max_examples=40)
    @given(polys(max_terms=4, max_deg=3), polys(max_terms=3, max_deg=2))
    def test_pseudo_rem_y_certificate(self, a, b):
        assume(b.deg_y() >= 1)
        r, s = _pseudo_rem_y(a, b)
        lead = y_coefficients(b)[b.deg_y()]
        assert divides(b, lead**s * a - r)
        assert r.is_zero or r.deg_y() < b.deg_y()


class TestYStructure:
    def test_y_coefficients_round_trip(self):
        p = parse_poly("x^2*y^2 - 3*y + x")
        cs = y_coefficients(p)
        assert cs[2] == X**2
        assert cs[0] == X
        assert set(cs) == {0, 1, 2}


class TestParsing:
    def test_rational_literal(self):
        assert parse_poly("1/2") == Poly2.const(Fraction(1, 2))

    def test_grammar_round_trip(self):
        for text in ["3*x^2*y - y + 1/2", "x^5 - 32*y", "-x", "y^2 - x",
                     "2*x", "x*y - 1"]:
            p = parse_poly(text)
            assert parse_poly(str(p)) == p

    @settings(max_examples=50)
    @given(polys())
    def test_print_parse_round_trip(self, p):
        assert parse_poly(str(p)) == p

    def test_error_position(self):
        with pytest.raises(PolyParseError) as info:
            parse_poly("x + * y")
        assert "position" in str(info.value)

    def test_adjacency_needs_star(self):
        with pytest.raises(PolyParseError) as info:
            parse_poly("2x")
        assert "'*'" in str(info.value)

    def test_poly_mode_rejects_general_division(self):
        with pytest.raises(PolyParseError):
            parse_poly("x/y")

    def test_poly_mode_divides_like_ratfunc_mode(self):
        assert parse_poly("3/4^2") == Poly2.const(Fraction(3, 16))
        for text in ["3/4^2", "2^3/4", "1/2/3", "x/2"]:
            num, den = parse_ratfunc_pair(text)
            assert parse_poly(text) == num * (1 / den.constant_value()), text
        for text in ["x/y", "x/(y - 1)"]:
            with pytest.raises(PolyParseError, match="position 1"):
                parse_poly(text)

    def test_ratfunc_pair_division(self):
        num, den = parse_ratfunc_pair("(y - 1)/(x^3)")
        assert num == Y - 1
        assert den == X**3

    def test_exponent_cap(self):
        with pytest.raises(DegreeCapError):
            parse_poly("x^100000")

    def test_parse_point(self):
        assert parse_point("3/2,-5") == (Fraction(3, 2), Fraction(-5))
        with pytest.raises(PolyParseError):
            parse_point("3/2")
