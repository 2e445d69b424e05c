"""Ruled-surface models of triangular maps: points, extension, loci."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmlwb.errors import (
    DmlwbError,
    ExcludedLocusError,
    IndeterminacyError,
    NotTriangularError,
)
from dmlwb.hirzebruch import (
    FnModel,
    FnPoint,
    apply_fn,
    chart_around_Q,
    contracted_image_check,
    embed_A2,
    fixed_point_Q,
    indeterminacy_fn,
    indeterminacy_point,
    stability_threshold,
    triangular_parts,
)
from dmlwb.maps import PolyMap, point
from dmlwb.parsing import parse_poly
from dmlwb.poly import Poly2


def tri_map() -> PolyMap:
    return PolyMap(parse_poly("2*x"), parse_poly("x^3*y + x^5"))


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def x_poly(coeffs) -> Poly2:
    """sum of coeffs[i] * x^i."""
    return Poly2.from_terms({(i, 0): c for i, c in enumerate(coeffs)})


# the coefficients of A(x), of degree 1 to 4 (nonzero top coefficient)
a_coeffs = st.builds(
    lambda low, top: [*low, top],
    st.lists(small_fracs, min_size=1, max_size=4),
    small_fracs.filter(lambda q: q != 0),
)


class TestFnPoint:
    def test_normalization_example(self):
        # [2, 4, 1, 8] on F_2: dividing the base pair by 2 twists x4 by 2^2
        P = FnPoint(2, [2, 4, 1, 8])
        assert P.coords == (1, 2, 1, 32)
        assert P == FnPoint(2, [1, 2, 1, 32])

    def test_twist_weight(self):
        # scaling (x1, x2) by lambda multiplies x4 by lambda^(-n)
        P = FnPoint(3, (2, 2, 1, 1))
        Q = FnPoint(3, (1, 1, 1, 8))
        assert P == Q

    def test_fiber_scaling(self):
        assert FnPoint(1, (1, 0, 3, 6)) == FnPoint(1, (1, 0, 1, 2))

    def test_excluded_locus(self):
        with pytest.raises(ExcludedLocusError):
            FnPoint(2, (0, 0, 1, 1))
        with pytest.raises(ExcludedLocusError):
            FnPoint(2, (1, 1, 0, 0))

    def test_embed(self):
        P = embed_A2(point("1/2", 7), 3)
        assert P.coords == (1, 2, 1, Fraction(1, 56))
        assert P == FnPoint(3, (Fraction(1, 2), 1, 7, 1))
        assert chart_around_Q(P) == (2, Fraction(1, 56))

    @settings(max_examples=40)
    @given(
        st.integers(min_value=0, max_value=4),
        small_fracs.filter(lambda q: q != 0),
        small_fracs.filter(lambda q: q != 0),
        small_fracs,
        small_fracs,
    )
    def test_scaling_invariance(self, n, lam, mu, x, y):
        # base scaling with the x4 twist, fiber scaling without one
        base = FnPoint(n, (x, 1, y, 1))
        scaled = FnPoint(n, (lam * x, lam, mu * y, mu * lam ** (-n)))
        assert base == scaled

    def test_chart_example(self):
        P = FnPoint(2, [1, 2, 1, 32])
        assert chart_around_Q(P) == (2, 32)

    def test_chart_at_Q_is_origin(self):
        assert chart_around_Q(fixed_point_Q(5)) == (0, 0)

    def test_chart_class_invariant(self):
        u1 = chart_around_Q(FnPoint(2, (2, 4, 1, 8)))
        u2 = chart_around_Q(FnPoint(2, (1, 2, Fraction(1, 32), 1)))
        assert u1 == u2


class TestThreshold:
    def test_example_values(self):
        x = parse_poly("x")
        assert stability_threshold(x**3, x**5) == 3
        assert stability_threshold(x**2, parse_poly("0")) == 0
        assert stability_threshold(x**4, x**2) == 0
        assert stability_threshold(x, x) == 1

    def test_rejects_constant_A(self):
        with pytest.raises(ValueError):
            stability_threshold(parse_poly("2"), parse_poly("x"))

    def test_triangular_parts(self):
        a, b, A, B = triangular_parts(tri_map())
        assert (a, b) == (2, 0)
        assert A == parse_poly("x^3")
        assert B == parse_poly("x^5")

    def test_rejects_henon(self):
        with pytest.raises(NotTriangularError):
            triangular_parts(PolyMap(parse_poly("y"), parse_poly("y^2 - x")))

    def test_constant_A_has_parts_but_no_model(self):
        f = PolyMap(parse_poly("x + 1"), parse_poly("2*y + x^3"))
        assert triangular_parts(f)[2] == parse_poly("2")
        with pytest.raises(NotTriangularError, match="degree >= 1"):
            FnModel.from_map(f)


class TestFnModel:
    def test_from_map_defaults_to_threshold(self):
        m = FnModel.from_map(tri_map())
        assert m.n == 3 and m.threshold == 3 and m.is_stable

    def test_extension_components(self):
        m = FnModel.from_map(tri_map())
        # d = max(3, 5 - 3) = 3; Bh homogenized to degree d + n = 6
        assert m.d == 3
        assert m.Ah == parse_poly("x^3")
        assert m.Bh == parse_poly("x^5*y")

    def test_agrees_with_affine_map_via_embedding(self):
        m = FnModel.from_map(tri_map())
        f = m.affine_map()
        p = point("3/2", "-1/7")
        assert m.apply(embed_A2(p, m.n)) == embed_A2(f.apply(p), m.n)

    @settings(max_examples=60, deadline=None)
    @given(small_fracs.filter(lambda q: q != 0), small_fracs)
    def test_commutes_with_embedding(self, x, y):
        for n in (3, 4):
            m = FnModel.from_map(tri_map(), n)
            f = m.affine_map()
            p = point(x, y)
            assert apply_fn(m, embed_A2(p, n)) == embed_A2(f.apply(p), n)

    def test_indeterminate_point_raises(self):
        m = FnModel.from_map(tri_map())
        with pytest.raises(IndeterminacyError):
            m.apply(indeterminacy_point(3))

    def test_invariant_section_at_A_zero(self):
        # A(0) = 0 but the section {x4 = 0} maps through regularly
        m = FnModel.from_map(tri_map())
        P = FnPoint(3, (0, 1, 1, 0))
        assert m.apply(P) == FnPoint(3, (0, 1, 1, 0))

    def test_fiber_contraction(self):
        m = FnModel.from_map(tri_map())
        P = FnPoint(3, (1, 0, 5, 3))
        assert m.apply(P) == fixed_point_Q(3)

    def test_below_threshold_locus_not_asserted(self):
        m = FnModel.from_map(tri_map(), 1)
        assert not m.is_stable
        with pytest.raises(DmlwbError):
            m.is_indeterminate(indeterminacy_point(1))
        with pytest.raises(DmlwbError):
            indeterminacy_fn(m)
        with pytest.raises(DmlwbError):
            contracted_image_check(m)

    def test_below_threshold_still_acts_on_affine_points(self):
        m = FnModel.from_map(tri_map(), 1)
        f = m.affine_map()
        p = point(2, 3)
        assert m.apply(embed_A2(p, 1)) == embed_A2(f.apply(p), 1)

    @settings(max_examples=60, deadline=None)
    @given(
        small_fracs.filter(lambda q: q != 0),
        small_fracs,
        a_coeffs,
        st.one_of(st.just([]), st.lists(small_fracs, min_size=1, max_size=6)),
    )
    def test_affine_map_rebuilds_the_map(self, a, b, A, B):
        # run_batch relies on this: its local probe steps f itself
        x, y = Poly2.variable("x"), Poly2.variable("y")
        f = PolyMap(x * a + b, x_poly(A) * y + x_poly(B))
        m = FnModel.from_map(f)
        assert m.affine_map() == f and m.affine_map().inverse is not None
        assert m.plane_map() == f and m.plane_map().inverse is None

    def test_point_model_surface_mismatch(self):
        m = FnModel.from_map(tri_map(), 3)
        with pytest.raises(ValueError):
            m.apply(FnPoint(2, (1, 1, 1, 1)))


class TestLoci:
    def test_indeterminacy_info(self):
        info = indeterminacy_fn(FnModel.from_map(tri_map()))
        assert info.fiber_check_passed
        assert info.contains(indeterminacy_point(3))
        assert not info.contains(fixed_point_Q(3))
        assert "x2 = 0" in info.description and "x3 = 0" in info.description

    def test_contracted_image_check(self):
        assert contracted_image_check(FnModel.from_map(tri_map()))

    def test_contracted_image_check_above_threshold(self):
        assert contracted_image_check(FnModel.from_map(tri_map(), 5))

    def test_constructor_matches_from_map(self):
        x = parse_poly("x")
        m1 = FnModel(2, 0, x**3, x**5, 3)
        m2 = FnModel.from_map(tri_map(), 3)
        assert (m1.a, m1.b, m1.A, m1.B, m1.n) == (m2.a, m2.b, m2.A, m2.B, m2.n)

    def test_pure_A_case(self):
        # B = 0: threshold 0, model on F_0 already stable
        m = FnModel(1, 0, parse_poly("x^2"), parse_poly("0"), 0)
        assert m.is_stable and m.threshold == 0
        assert contracted_image_check(m)
