"""Plane curves: reduction, transforms, closures, local multiplicities, probes."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmlwb import curves
from dmlwb.curves import (
    Curve,
    closure_meets_indeterminacy,
    closure_passes_through_Q,
    contracts_curve,
    decreasing_intersection_experiment,
    factor_poly,
    fn_chart_equation,
    fn_closure_data,
    intersection_multiplicity,
    is_contracted_factor,
    is_fixed_curve,
    is_periodic_curve,
    multiplicity_at_origin,
    periodicity_probe_thm13,
    prop52_flag,
    pullback_curve,
    push_forward_curve,
    rational_intersection_points,
    resultant_y,
    strict_transform_inverse,
)
from dmlwb.errors import ContractionError, MissingInverseError
from dmlwb.hirzebruch import FnModel
from dmlwb.maps import Point, PolyMap, RatFunc, RationalMap, point
from dmlwb.parsing import parse_poly
from dmlwb.poly import Poly2, normalize_primitive

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def pmap(f1: str, f2: str) -> PolyMap:
    return PolyMap(parse_poly(f1), parse_poly(f2))


def curve(text: str) -> Curve:
    return Curve.from_string(text)


def tri_map() -> PolyMap:
    return FnModel.from_map(pmap("2*x", "x^3*y + x^5")).affine_map()


class TestCurve:
    def test_scalar_normalization(self):
        assert curve("2*y - 2*x") == curve("y - x")
        assert curve("-x + y") == curve("y - x")

    def test_multiplicity_collapse(self):
        c = curve("x^2*y")
        assert c.equation == parse_poly("x*y")
        assert {str(k) for k in c.irreducible_components()} == {"x", "y"}

    def test_components_reuse_stored_factors(self, monkeypatch):
        c = curve("x*y*(y - 1)")
        expected = [Curve(f) for f in c.factors]
        calls = []
        monkeypatch.setattr(curves, "factor_poly", lambda p: calls.append(p))
        comps = c.irreducible_components()
        assert calls == []
        assert comps == expected
        assert [k.factors for k in comps] == [(f,) for f in c.factors]

    def test_is_irreducible(self):
        assert curve("y - x^2").is_irreducible
        assert not curve("y^2 - x^2").is_irreducible

    def test_degree_and_contains(self):
        c = curve("y^2 - x^3")
        assert c.degree() == 3
        assert c.contains(point(1, 1)) and c.contains(point(4, 8))
        assert not c.contains(point(1, 2))

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            curve("5")

    def test_factor_poly_multiplicities(self):
        facs = factor_poly(parse_poly("x^2*(y - x)^3"))
        # factors are sign-normalized on the graded-lex leading coefficient
        assert sorted((str(f), m) for f, m in facs) == [
            ("x", 2),
            ("x - y", 3),
        ]


def sympy_factors(p: Poly2) -> list[tuple[Poly2, int]]:
    """Reference: sympy's factor_list in factor_poly's normal form and order."""
    import sympy

    out = []
    for fac, mult in sympy.factor_list(curves._to_sympy(p))[1]:
        q = normalize_primitive(curves._from_sympy(fac))
        if not q.is_constant():
            out.append((q, int(mult)))
    return sorted(out, key=lambda fm: sorted(fm[0].terms()))


coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
nonzero = coeffs.filter(lambda q: q != 0)
Y = Poly2.variable("y")


def x_polys(max_degree: int):
    return st.lists(coeffs, max_size=max_degree + 1).map(
        lambda cs: Poly2.from_terms({(i, 0): c for i, c in enumerate(cs)})
    )


linear = st.tuples(coeffs, coeffs, coeffs).map(
    lambda t: Poly2.from_terms({(1, 0): t[0], (0, 1): t[1], (0, 0): t[2]})
)
y_linear = st.builds(lambda a, b: a * Y + b, x_polys(3), x_polys(3))
const_lead_line = st.builds(lambda c, b: Y * c + b, nonzero, x_polys(2))
y_quadratic = st.builds(lambda c, b, e: Y * Y * c + b * Y + e, nonzero, x_polys(2), x_polys(4))
shapes = st.one_of(linear, y_linear, y_quadratic)
products = st.one_of(
    st.builds(lambda f, g: f * g, const_lead_line, const_lead_line),
    st.builds(lambda f, g: f * g, shapes, shapes),
)


class TestExactFactorization:
    """The exact branch of factor_poly against sympy (module docstring)."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(shapes, products))
    def test_matches_sympy(self, p):
        if p.is_zero or p.is_constant():
            return
        # factor_poly sorts what the exact branch returns, or asks sympy
        assert factor_poly(p) == sympy_factors(p)

    @pytest.mark.parametrize(
        "text, expected, exact",
        [
            ("x*y", [("x", 1), ("y", 1)], False),
            ("x*y + x", [("x", 1), ("y + 1", 1)], False),
            ("x^2*y - 1", [("x^2*y - 1", 1)], True),
            ("y^2 - x^2", [("x + y", 1), ("x - y", 1)], True),
            ("(y - x)^2", [("x - y", 2)], True),
            ("2*y^2 + 3*x*y + x^2", [("x + 2*y", 1), ("x + y", 1)], True),
            ("1/3*y^2 - 1/12*x^2", [("x + 2*y", 1), ("x - 2*y", 1)], True),
            ("y^2 - 1/4", [("2*y + 1", 1), ("2*y - 1", 1)], True),
            ("y^2 + x*y + 1/4*x^2", [("x + 2*y", 2)], True),
            ("y^2 + 1", [("y^2 + 1", 1)], True),
            ("y^2 - x^2 - 1", [("x^2 - y^2 + 1", 1)], True),
            ("x^2 + y^2 - 3", [("x^2 + y^2 - 3", 1)], True),
            ("y^2 - x^3 - 1", [("x^3 - y^2 + 1", 1)], True),
            ("y^2 - 2", [("y^2 - 2", 1)], True),
            ("x - 1/2", [("2*x - 1", 1)], True),
        ],
    )
    def test_worked_cases(self, text, expected, exact):
        p = parse_poly(text)
        facs = factor_poly(p)
        assert sorted((str(f), m) for f, m in facs) == expected
        assert facs == sympy_factors(p)
        assert (curves._factor_exact(p) is not None) == exact

    def test_cli_runs_without_sympy(self):
        # sympy is blocked, so any import of it fails the call
        script = """
import contextlib, io, sys
sys.modules["sympy"] = None
from dmlwb.cli import main
curves = ["x + 2*y - 1", "y - x^2 + 1", "x*y - 2", "x^2 + y^2 - 3", "y^2 - x^3 - 1"]
calls = [["degrees", "--map", "perfbench/batch/henon.json", "--horizon", "6"]]
calls += [["dml", "scan", "--map", "perfbench/batch/triangular.json",
           "--curve=" + c, "--point=1,1", "--horizon", "30"] for c in curves]
calls.append(["batch", "--config", "perfbench/batch/config.json"])
for call in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(call)
    if rc != 0:
        sys.exit(f"{call} exited with {rc}")
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), *filter(None, [env.get("PYTHONPATH")])]
        )
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]


class TestFixedAndPeriodic:
    def test_fixed_examples(self):
        assert is_fixed_curve(curve("y"), pmap("2*x", "x^3*y"))
        assert is_fixed_curve(curve("x"), pmap("2*x", "x^3*y + x^5"))
        assert not is_fixed_curve(curve("y - x^4"), pmap("2*x", "x^3*y + x^5"))

    def test_period_two_fiber(self):
        f = pmap("-x", "x^2*y")
        assert is_periodic_curve(curve("x - 1"), f, 4) == 2
        assert is_periodic_curve(curve("x"), f, 4) == 1
        assert is_periodic_curve(curve("y - x"), f, 6) is None

    def test_fixed_curve_has_period_one(self):
        assert is_periodic_curve(curve("y"), pmap("2*x", "x^3*y"), 3) == 1


class TestContraction:
    def test_fiber_contracted(self):
        f = pmap("2*x", "x*y")
        assert is_contracted_factor(parse_poly("x"), f)
        assert not is_contracted_factor(parse_poly("y"), f)
        assert contracts_curve(curve("x*y"), f)
        assert not contracts_curve(curve("y"), f)

    def test_higher_degree_contracted_curve(self):
        # both components constant on the parabola
        f = pmap("y - x^2", "0")
        assert is_contracted_factor(parse_poly("y - x^2"), f)
        assert not is_contracted_factor(parse_poly("y"), f)

    @pytest.mark.parametrize("D, f1, f2, expected", [
        ("x*y - 1", "x*y", "x*y + 1", True),
        ("x*y - 1", "x", "x*y", False),
        ("x^2*y - 1", "x^2*y", "x*y^2 + y", False),
    ])
    def test_nonconstant_leading_y_coefficient(self, D, f1, f2, expected):
        # lc_y(D) is a nonconstant polynomial in x, so the test runs the
        # pseudo-remainder with at least one step
        assert is_contracted_factor(parse_poly(D), pmap(f1, f2)) is expected

    def test_shifted_fiber_not_contracted(self):
        f = pmap("2*x", "x^3*y + x^5")
        assert is_contracted_factor(parse_poly("x"), f)
        assert not is_contracted_factor(parse_poly("x - 1"), f)


class TestTransforms:
    def test_push_forward_worked_examples(self):
        f = tri_map()
        assert push_forward_curve(curve("y"), f) == curve("x^5 - 32*y")
        assert push_forward_curve(curve("x"), f) == curve("x")

    def test_push_forward_is_image(self):
        # sample points of C land on the pushed curve
        f = tri_map()
        pushed = push_forward_curve(curve("y - x^4"), f)
        for t in (1, 2, Fraction(1, 2), -3):
            img = f.apply(point(t, t**4))
            assert pushed.contains(img)

    def test_push_forward_needs_inverse(self):
        with pytest.raises(MissingInverseError):
            push_forward_curve(curve("y"), pmap("2*x", "x^3*y"))

    def test_strict_transform_all_exceptional(self):
        g = RationalMap(RatFunc.parse("(1)/(x)"), RatFunc.parse("(y)/(1)"))
        with pytest.raises(ContractionError):
            strict_transform_inverse(curve("x"), g)

    def test_pullback_splits(self):
        pulled = pullback_curve(curve("y - 1"), pmap("x", "y^2"))
        assert pulled == curve("y^2 - 1")
        assert len(pulled.factors) == 2

    def test_pullback_strips_contracted_fiber(self):
        f = pmap("2*x", "x^3*y")
        assert pullback_curve(curve("y"), f) == curve("y")
        g = pmap("2*x", "x^3*y + x^5")
        assert pullback_curve(curve("y"), g) == curve("y + x^2")

    def test_pullback_of_contracted_image_raises(self):
        with pytest.raises(ContractionError):
            pullback_curve(curve("x"), pmap("2*x", "x^3*y"))

    def test_push_then_pull_recovers_curve(self):
        f = tri_map()
        c = curve("y - x^4")
        assert pullback_curve(push_forward_curve(c, f), f) == c

    @pytest.mark.parametrize(
        "f1,f2,c",
        [
            ("2*x", "x^3*y", "y"),
            ("2*x", "x^3*y + x^5", "x"),
        ],
    )
    def test_fixed_curves_push_to_themselves(self, f1, f2, c):
        m = FnModel.from_map(pmap(f1, f2)).affine_map()
        C = curve(c)
        assert is_fixed_curve(C, m)
        assert push_forward_curve(C, m) == C

    def test_fixed_diagonal_pushes_to_itself(self):
        inv = RationalMap(RatFunc.parse("(2*x)/(1)"), RatFunc.parse("(2*y)/(1)"))
        f = PolyMap(parse_poly("1/2*x"), parse_poly("1/2*y"), inv)
        C = curve("y - x")
        assert is_fixed_curve(C, f)
        assert push_forward_curve(C, f) == C


class TestClosures:
    def test_closure_data(self):
        assert fn_closure_data(curve("y - x^4"), 3) == (4, 1)
        assert fn_closure_data(curve("x*y - 1"), 1) == (2, 1)
        assert fn_closure_data(curve("x - 5"), 3) == (1, 0)

    def test_chart_equation(self):
        # y - x^4 on F_3 becomes w - u near Q (x, y slots hold u, w)
        assert fn_chart_equation(curve("y - x^4"), 3) == parse_poly("y - x")

    def test_passes_through_Q(self):
        assert closure_passes_through_Q(curve("y - x^4"), 3)
        assert not closure_passes_through_Q(curve("y"), 3)
        assert not closure_passes_through_Q(curve("x - 5"), 3)

    def test_meets_indeterminacy(self):
        assert closure_meets_indeterminacy(curve("x*y - 1"), 1)
        assert closure_meets_indeterminacy(curve("y"), 3)
        assert not closure_meets_indeterminacy(curve("y - x^4"), 3)
        assert not closure_meets_indeterminacy(curve("x - 5"), 3)

    @settings(max_examples=100)
    @example({(0, 1): 1, (4, 0): -1}, 3)  # y - x^4
    @example({(0, 1): 1, (2, 0): -1}, 3)  # y - x^2
    @example({(1, 1): 1, (0, 0): -1}, 1)  # x*y - 1
    @given(st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 3)),
        st.integers(-3, 3).filter(bool), min_size=1, max_size=5,
    ).filter(lambda t: any(k != (0, 0) for k in t)), st.integers(0, 5))
    def test_chart_and_membership_consistent(self, terms, n):
        # through-Q test equals vanishing of the chart equation at the
        # origin, the definition before closure_passes_through_Q read
        # one coefficient
        C = Curve(Poly2.from_terms(terms))
        assert closure_passes_through_Q(C, n) == (
            fn_chart_equation(C, n).evaluate(0, 0) == 0
        )


class TestLocalMultiplicity:
    def test_transverse_axes(self):
        assert intersection_multiplicity(curve("x"), curve("y"), point(0, 0)) == 1

    def test_tangency(self):
        assert intersection_multiplicity(
            curve("y"), curve("y - x^2"), point(0, 0)
        ) == 2
        assert intersection_multiplicity(
            curve("y - x^2"), curve("y + x^2"), point(0, 0)
        ) == 2

    def test_cusp_meets_axis(self):
        assert intersection_multiplicity(
            curve("y^2 - x^3"), curve("y"), point(0, 0)
        ) == 3

    def test_away_from_origin(self):
        assert intersection_multiplicity(
            curve("y - 1"), curve("x - 2"), point(2, 1)
        ) == 1
        assert intersection_multiplicity(
            curve("y - x^2"), curve("y - 4"), point(2, 4)
        ) == 1

    def test_off_curve_is_zero(self):
        assert intersection_multiplicity(curve("x"), curve("y"), point(1, 1)) == 0

    def test_shared_component_is_infinite(self):
        c = curve("y*(y - x)")
        d = curve("y*(y + x)")
        assert intersection_multiplicity(c, d, point(0, 0)) == math.inf

    def test_non_reduced_inputs_add(self):
        y = parse_poly("y")
        g = parse_poly("y - x^3")
        assert multiplicity_at_origin(y * y, g) == 6
        assert multiplicity_at_origin(y, g) == 3

    def test_smooth_conic_tangent_line(self):
        # I(y - x^2, y) doubles under squaring the line
        f = parse_poly("y - x^2")
        assert multiplicity_at_origin(f, parse_poly("y")) == 2
        assert multiplicity_at_origin(f, parse_poly("y^2")) == 4

    @settings(max_examples=30)
    @given(
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-5, max_value=5),
    )
    def test_distinct_lines_transverse(self, a, b):
        if a == b:
            return
        c = Curve(parse_poly("y") - parse_poly("x") * a)
        d = Curve(parse_poly("y") - parse_poly("x") * b)
        assert intersection_multiplicity(c, d, point(0, 0)) == 1

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["y - x^2", "y^2 - x^3", "x + y", "y - x - 1"]),
           st.sampled_from(["y", "x", "y + x^2", "x - y^2"]))
    def test_symmetric(self, a, b):
        c, d = curve(a), curve(b)
        p = point(0, 0)
        assert intersection_multiplicity(c, d, p) == intersection_multiplicity(d, c, p)


class TestIntersectionPoints:
    def test_parabola_and_level(self):
        pts, flag = rational_intersection_points(curve("y - x^2"), curve("y - 4"))
        assert pts == [Point(-2, 4), Point(2, 4)]
        assert not flag

    def test_irrational_flagged(self):
        pts, flag = rational_intersection_points(curve("y - x^2"), curve("y - 2"))
        assert pts == []
        assert flag

    def test_circle_and_line(self):
        pts, flag = rational_intersection_points(
            curve("x^2 + y^2 - 1"), curve("y - x + 1")
        )
        assert pts == [Point(0, -1), Point(1, 0)]
        assert not flag

    def test_vertical_line(self):
        pts, flag = rational_intersection_points(curve("x - 3"), curve("y - x"))
        assert pts == [Point(3, 3)]
        assert not flag

    def test_parallel_vertical_lines(self):
        pts, flag = rational_intersection_points(curve("x - 1"), curve("x - 2"))
        assert pts == [] and not flag

    def test_shared_component_rejected(self):
        with pytest.raises(ValueError):
            rational_intersection_points(curve("y*(y - x)"), curve("y*(y + x)"))

    def test_points_lie_on_both(self):
        c, d = curve("y^2 - x^3 - x"), curve("y - x")
        pts, _ = rational_intersection_points(c, d)
        assert pts
        for p in pts:
            assert c.contains(p) and d.contains(p)

    def test_resultant_matches_sympy_example(self):
        r = resultant_y(parse_poly("y - x^2"), parse_poly("y - 4"))
        assert r == parse_poly("4 - x^2") or r == parse_poly("x^2 - 4")


class TestPeriodicityProbe:
    def test_consistent_periodic(self):
        m = FnModel.from_map(pmap("2*x", "x^3*y"), 3)
        rep = periodicity_probe_thm13(m, curve("y"), N=6, K=3)
        assert rep.verdict == "consistent_periodic"
        assert rep.period == 1
        assert all(rep.meets)
        assert not rep.flag

    def test_hypothesis_fails_midway(self):
        m = FnModel.from_map(pmap("2*x", "x*y"), 1)
        rep = periodicity_probe_thm13(m, curve("x*y - 1"), N=5, K=3)
        assert rep.verdict == "hypothesis_fails"
        assert rep.fail_at == 2
        assert rep.curves == ("x*y - 1", "y - 1", "x - 2*y")
        assert rep.meets == (True, True, False)

    def test_contracted_component(self):
        m = FnModel.from_map(pmap("2*x", "x*y"), 1)
        rep = periodicity_probe_thm13(m, curve("x*y"), N=4, K=3)
        assert rep.verdict == "contracted"
        assert rep.fail_at == 0

    def test_period_not_found(self):
        # the component y keeps every push-forward on the indeterminacy
        # point, but y*(y - x^4) has no period <= 1
        m = FnModel.from_map(pmap("2*x", "x^3*y"))
        rep = periodicity_probe_thm13(m, curve("y*(y - x^4)"), N=4, K=1)
        assert rep.verdict == "period_not_found"
        assert rep.flag and rep.period is None and rep.fail_at is None
        assert rep.meets == (True,) * 5
        assert "no period <= 1" in rep.notes

    def test_requires_stable_model(self):
        m = FnModel.from_map(pmap("2*x", "x^3*y + x^5"), 1)
        from dmlwb.errors import DmlwbError

        with pytest.raises(DmlwbError):
            periodicity_probe_thm13(m, curve("y"), N=3, K=3)


class TestDecreasingChain:
    def chain_model(self):
        return FnModel.from_map(pmap("2*x", "x^3*y + x^5"))

    def seed(self, m):
        f = m.affine_map()
        c = curve("y - x^4")
        return push_forward_curve(push_forward_curve(c, f), f)

    def test_left_Q_with_strict_descent(self):
        m = self.chain_model()
        rep = decreasing_intersection_experiment(m, self.seed(m), M=5)
        assert rep.status == "left_Q"
        assert rep.sequence == (4, 1, 0)
        assert rep.strictly_decreasing

    def test_completed_at_small_horizon(self):
        m = self.chain_model()
        rep = decreasing_intersection_experiment(m, self.seed(m), M=0)
        assert rep.status == "completed"
        assert rep.sequence == (4,)

    def test_not_through_Q(self):
        m = self.chain_model()
        rep = decreasing_intersection_experiment(m, curve("x - 5"), M=3)
        assert rep.status == "hypothesis_failed"
        assert rep.sequence == () and rep.fail_at == 0
        assert "pass through Q" in rep.notes

    def test_shared_component_through_Q(self):
        # E passes through Q, so E and f(E) make a curve whose first
        # pullback contains E again
        m = self.chain_model()
        E = curve("y - x^4")
        C = Curve(E.equation * push_forward_curve(E, m.affine_map()).equation)
        rep = decreasing_intersection_experiment(m, C, M=3)
        assert rep.status == "degenerate"
        assert rep.sequence == () and rep.fail_at == 0
        assert rep.strictly_decreasing
        assert rep.notes == "successive pullbacks share a component through Q"

    @pytest.mark.parametrize("text", ["y - x^4", "y*(y - x^4)", "y^2 - x^9 + x"])
    def test_curves_through_Q_are_not_fixed(self, text):
        # the two hypotheses decreasing_intersection_experiment does not check
        m = self.chain_model()
        C = curve(text)
        assert closure_passes_through_Q(C, m.n)
        assert not is_fixed_curve(C, m.plane_map())
        assert pullback_curve(C, m.plane_map()).factors


class TestProp52Flag:
    def test_not_through_Q_never_flags(self):
        m = FnModel.from_map(pmap("2*x", "x^3*y + x^5"))
        assert not prop52_flag(m, curve("y"), K=6)

    def test_through_Q_not_periodic(self):
        m = FnModel.from_map(pmap("2*x", "x^3*y + x^5"))
        assert not prop52_flag(m, curve("y - x^4"), K=6)
