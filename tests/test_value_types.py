"""Value semantics of the exact objects: canonical equality, hashing,
printed forms and immutability."""

from fractions import Fraction

import pytest

from dmlwb.curves import Curve
from dmlwb.hirzebruch import FnPoint
from dmlwb.maps import PolyMap, RatFunc, RationalMap
from dmlwb.parsing import parse_poly
from dmlwb.places import ProjPoint


def rf(num: str, den: str = "1") -> RatFunc:
    return RatFunc(parse_poly(num), parse_poly(den))


def swap_map() -> PolyMap:
    return PolyMap(parse_poly("y"), parse_poly("x"))


def assert_same_value(a, b):
    assert a == b
    assert hash(a) == hash(b)


class TestProjPoint:
    def test_scaled_coordinates_are_one_value(self):
        assert_same_value(ProjPoint([2, 4]), ProjPoint([1, 2]))
        assert_same_value(ProjPoint([Fraction(-1, 2), 3]), ProjPoint([1, -6]))
        assert ProjPoint([1, 2]) != ProjPoint([1, 3])

    def test_str(self):
        assert str(ProjPoint([2, 4])) == "[1:2]"
        assert str(ProjPoint([Fraction(-1, 2), 3])) == "[1:-6]"

    def test_immutable(self):
        P = ProjPoint([1, 2])
        with pytest.raises(AttributeError):
            P.coords = (1, 3)
        assert P.coords == (1, 2)


class TestFnPoint:
    def test_scaled_coordinates_are_one_value(self):
        # (l*x1, l*x2, m*x3, m*l^(-n)*x4) with l = 2, m = 5, n = 2
        assert_same_value(
            FnPoint(2, (2, 4, 5, Fraction(15, 4))), FnPoint(2, (1, 2, 1, 3))
        )
        assert FnPoint(2, (1, 2, 1, 3)) != FnPoint(3, (1, 2, 1, 3))

    def test_str(self):
        assert str(FnPoint(2, (2, 4, 5, Fraction(15, 4)))) == "[1, 2, 1, 3] on F_2"

    def test_immutable(self):
        P = FnPoint(2, (1, 2, 1, 3))
        for name, value in (("n", 3), ("coords", (1, 0, 1, 0))):
            with pytest.raises(AttributeError):
                setattr(P, name, value)
        assert P == FnPoint(2, (1, 2, 1, 3))


class TestRatFunc:
    def test_reduced_forms_are_one_value(self):
        assert_same_value(rf("2*x*y", "2*y^2"), rf("x", "y"))
        assert_same_value(rf("x^2 - 1", "-3"), rf("-1/3*x^2 + 1/3"))
        assert_same_value(rf("0", "x + y"), rf("0"))
        assert rf("x", "y") != rf("y", "x")

    def test_str(self):
        assert str(rf("2*x*y", "2*y^2")) == "(x)/(y)"
        assert str(rf("x^2 - 1", "-3")) == "-1/3*x^2 + 1/3"

    def test_immutable(self):
        g = rf("x", "y")
        for name in ("num", "den"):
            with pytest.raises(AttributeError):
                setattr(g, name, parse_poly("x + 1"))
        assert g == rf("x", "y")


class TestRationalMap:
    def test_componentwise_value(self):
        assert_same_value(
            RationalMap(rf("2*x*y", "2*y^2"), rf("x")),
            RationalMap(rf("x", "y"), rf("x")),
        )
        assert RationalMap(rf("x"), rf("y")) != RationalMap(rf("y"), rf("x"))

    def test_str(self):
        assert str(RationalMap(rf("2*x*y", "2*y^2"), rf("x"))) == "((x)/(y), x)"

    def test_immutable(self):
        g = RationalMap(rf("x"), rf("y"))
        for name in ("g1", "g2"):
            with pytest.raises(AttributeError):
                setattr(g, name, rf("x + 1"))
        assert g == RationalMap(rf("x"), rf("y"))


class TestPolyMap:
    def test_equality_ignores_the_inverse(self):
        inverse = RationalMap(rf("y"), rf("x"))
        f = PolyMap(parse_poly("y"), parse_poly("x"), inverse)
        assert f.inverse == inverse
        assert f == swap_map()
        assert swap_map() != PolyMap(parse_poly("x"), parse_poly("y"))

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(swap_map())

    def test_str(self):
        assert str(swap_map()) == "(y, x)"


class TestCurve:
    def test_equality_is_the_reduced_equation(self):
        C = Curve(parse_poly("2*x^2*y - 2*x*y"))
        assert_same_value(C, Curve(parse_poly("x^2*y - x*y")))
        assert_same_value(C, Curve(parse_poly("x^3*y^2 - 2*x^2*y^2 + x*y^2")))
        assert C != Curve(parse_poly("x*y"))

    def test_factor_order_does_not_matter(self):
        C = Curve(parse_poly("x^2*y - x*y"))
        D = Curve._from_factors(tuple(reversed(C.factors)))
        assert D.factors != C.factors
        assert_same_value(C, D)

    def test_str(self):
        assert str(Curve(parse_poly("2*x^2*y - 2*x*y"))) == "x^2*y - x*y"

    def test_immutable(self):
        C = Curve(parse_poly("x*y"))
        for name, value in (("equation", parse_poly("x")), ("factors", ())):
            with pytest.raises(AttributeError):
                setattr(C, name, value)
        assert C == Curve(parse_poly("x*y"))
