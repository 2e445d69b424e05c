"""Escape certificates for Hénon-type orbits: soundness, refusals, and the
cases that pin each bound of the proof."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmlwb.curves import Curve
from dmlwb.dml import classify_orbit, dml_classify, orbit
from dmlwb.escape import certify, escape_watch, henon_form
from dmlwb.maps import Point, PolyMap, point
from dmlwb.parsing import parse_poly
from dmlwb.poly import Poly2

X, Y = Poly2.variable("x"), Poly2.variable("y")


def pmap(f1: str, f2: str) -> PolyMap:
    return PolyMap(parse_poly(f1), parse_poly(f2))


def classify(f: PolyMap, C: str, p: Point, N: int = 200):
    return dml_classify(f, Curve.from_string(C), p, N=N, K=12, bit_guard=50_000)


HENON = pmap("y", "y^2 - x")

small = st.fractions(min_value=-6, max_value=6, max_denominator=3)
coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3)
constants = st.integers(-3, 3)


@st.composite
def curves(draw) -> Poly2:
    """The five scan shapes, or a random curve of degree at most 3."""
    shape = draw(st.integers(0, 5))
    e = Poly2.const(draw(constants))
    if shape == 0:
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        return X * a + Y * (b or 1) + e
    if shape == 1:
        return Y - X * X - e
    if shape == 2:
        return X * Y - e
    if shape == 3:
        return X * X + Y * Y - e
    if shape == 4:
        return Y * Y - X**3 - e
    monomials = [(i, j) for i in range(4) for j in range(4 - i) if i + j]
    terms = {m: draw(st.integers(-2, 2)) for m in monomials if draw(st.booleans())}
    terms[draw(st.sampled_from(monomials))] = draw(st.integers(1, 2))
    return Poly2.from_terms(terms) + e


@st.composite
def henon_instances(draw):
    k = draw(st.sampled_from([2, 3]))
    delta = draw(coefficients.filter(bool))
    f = PolyMap(Y, Y**k - X * delta + Poly2.const(draw(coefficients)))
    return f, draw(curves()), Point(draw(small), draw(small))


@settings(max_examples=300, deadline=None)
@given(henon_instances())
def test_no_certificate_contradicts_a_longer_orbit(instance):
    f, C, p = instance
    cert = certify(f, C, orbit(f, p, 12, bit_guard=2_000).points)
    if cert is None:
        return
    longer = orbit(f, p, cert.bound + 8, bit_guard=20_000)
    assert longer.cycle is None
    assert len(longer.points) > cert.bound
    assert not any(C.vanishes_at(q.x, q.y) for q in longer.points[cert.bound:])


@pytest.mark.parametrize("f", [
    pmap("2*x + 1", "x^3*y + x^5"),  # triangular
    pmap("x + y^2", "y"),  # elementary
    pmap("y", "x + 1"),  # affine
    pmap("y", "2*y - x"),  # affine, of the Hénon shape with k = 1
    pmap("x^2", "y"),
    pmap("y", "y^2"),  # delta = 0: not an automorphism
    pmap("y", "y^2 - x*y"),
], ids=["triangular", "elementary", "affine", "affine-k1", "x2-y", "delta0", "xy-term"])
def test_maps_of_other_shapes_get_no_certificate(f):
    assert henon_form(f) is None
    for C in ("y - 1", "x", "y - x^2"):
        assert escape_watch(f, parse_poly(C), point(5, 7)) is None
    rep = classify(f, "y - 1", point(2, 3), N=30)
    assert not any("escape" in note for note in rep.notes)


def test_henon_form_reads_a_delta_and_q():
    f = pmap("y", "-2*y^3 + 1/2*y - 3/5*x + 1/3")
    a, k, q, delta = henon_form(f)
    assert (a, k, q, delta) == (-2, 3, {1: Fraction(1, 2), 0: Fraction(1, 3)},
                                Fraction(3, 5))


def test_certified_item_is_finite_and_proved():
    rep = classify(HENON, "y - 1", point(0, -4))
    assert rep.verdict == "finite_visits"
    assert not rep.orbit_guard_hit
    assert rep.notes == ("escape certificate at inf: the orbit enters the escape "
                         "region at n0 = 0 and has no visit from n1 = 1 on",)


def test_periodic_points_never_complete_a_certificate():
    # (2, 2) is fixed by (y, y^2 - x) and lies just inside |y| >= |x|;
    # R = (0 + 1 + 2)/1 = 3 keeps it out of the escape region
    watch = escape_watch(HENON, X, point(2, 2))
    assert not any(watch(point(2, 2)) for _ in range(5))
    assert classify(HENON, "x", point(2, 2)).verdict == "finite_visits"


def test_visit_at_the_entry_step_is_counted():
    # f(20, 5) = (5, 5) enters the escape region at n0 = 1 on x = y; the
    # curve bound only holds from the step after entry
    rep = classify(HENON, "x - y", point(20, 5))
    assert rep.visit_set == (1,)
    assert "n0 = 1" in rep.notes[0] and "n1 = 2" in rep.notes[0]


@pytest.mark.parametrize("f, p", [
    # |c|_3 = 9: y = 1/3 gives y^2 + c = 0, so y_1 = 0 although |y_0|_3 > 1
    (pmap("y", "y^2 - x - 1/9"), point(0, Fraction(1, 3))),
    # |delta|_3 = 27: y^2 = delta*x at (3, 1/3), so y_1 = 0
    (pmap("y", "y^2 - 1/27*x"), point(3, Fraction(1, 3))),
], ids=["q-at-3", "delta-at-3"])
def test_p_adic_region_respects_q_and_delta(f, p):
    rep = classify(f, "y", p)
    assert 1 in rep.visit_set
    assert rep.verdict == "finite_visits"
    assert "escape certificate at 3" in rep.notes[0]


def test_tied_top_weight_is_proved_after_one_pullback():
    # y - x^2 has weights 2 and 2 under k = 2; its pullback is the line -x
    rep = classify(HENON, "y - x^2", point(1, 3))
    assert rep.verdict == "finite_visits"
    assert rep.notes[0].endswith("proved on the pullback of C by f")
    # here C o f = -x and x_0 = 0, so f(p) = (3, 10) is on C
    rep = classify(pmap("y", "y^2 - x + 1"), "y - x^2 - 1", point(0, 3))
    assert rep.visit_set == (1,)
    assert rep.verdict == "finite_visits"


def test_orbit_stops_at_the_bound_and_the_report_needs_no_more():
    C, p = Curve.from_string("y - 1"), point(1, 3)
    stopped = orbit(HENON, p, 200, 50_000, stop=escape_watch(HENON, C.equation, p))
    full = orbit(HENON, p, 200, 2_000)
    assert stopped.cycle is None and not stopped.guard_hit
    assert len(stopped.points) < len(full.points) and full.guard_hit
    assert classify_orbit(HENON, C, stopped) == classify_orbit(HENON, C, full)


def test_prefix_of_a_stopped_orbit_equals_the_shorter_stopped_orbit():
    C, p = parse_poly("x*y - 2"), point(0, Fraction(1, 2))
    full = orbit(HENON, p, 20, 10**6, stop=escape_watch(HENON, C, p))
    assert len(full.points) < 21
    for M in range(21):
        assert full.prefix(M) == orbit(HENON, p, M, 10**6, stop=escape_watch(HENON, C, p))
