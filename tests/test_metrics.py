"""Place-by-place projective metrics, basin probes, local dichotomy checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmlwb import metrics
from dmlwb.curves import Curve
from dmlwb.dml import orbit
from dmlwb.errors import ChartDomainError
from dmlwb.hirzebruch import FnModel, chart_around_Q, embed_A2
from dmlwb.maps import PolyMap, point
from dmlwb.metrics import (
    DEFAULT_EPS,
    basin_on_orbit,
    basin_probe,
    local_dml_probe,
    metric_dv,
)
from dmlwb.parsing import parse_poly
from dmlwb.places import Place, ProjPoint, abs_value

INF = Place.archimedean()

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=8)


def tri_model(n=3) -> FnModel:
    f = PolyMap(parse_poly("2*x"), parse_poly("x^3*y + x^5"))
    return FnModel.from_map(f, n)


class TestMetric:
    def test_p1_example(self):
        # d_2([1:1],[1:3]) = |1*3 - 1*1|_2 / (1 * 1) = 1/2
        assert metric_dv([1, 1], [1, 3], Place.finite(2)) == Fraction(1, 2)

    def test_archimedean_is_float(self):
        d = metric_dv([1, 0], [1, 1], INF)
        assert isinstance(d, float) and d == 1.0

    def test_same_class_is_zero(self):
        assert metric_dv([2, 4], [1, 2], Place.finite(5)) == 0
        assert metric_dv(ProjPoint([1, 2, 3]), [2, 4, 6], INF) == 0.0

    def test_bounded_by_one(self):
        assert metric_dv([1, 1000000], [1000000, 1], INF) <= 1.0

    @settings(max_examples=40)
    @given(small_fracs, small_fracs, small_fracs, small_fracs)
    def test_symmetric(self, a, b, c, d):
        if (a, b) == (0, 0) or (c, d) == (0, 0):
            return
        v = Place.finite(3)
        assert metric_dv([a, b], [c, d], v) == metric_dv([c, d], [a, b], v)

    @settings(max_examples=40)
    @given(small_fracs, small_fracs, small_fracs, small_fracs, small_fracs, small_fracs)
    def test_ultrametric_at_finite_places(self, a, b, c, d, e, f):
        pts = [(a, b), (c, d), (e, f)]
        if any(p == (0, 0) for p in pts):
            return
        v = Place.finite(2)
        d01 = metric_dv(pts[0], pts[1], v)
        d12 = metric_dv(pts[1], pts[2], v)
        d02 = metric_dv(pts[0], pts[2], v)
        assert d02 <= max(d01, d12)

    @settings(max_examples=40)
    @given(
        small_fracs.filter(lambda q: q != 0),
        small_fracs,
        small_fracs,
        small_fracs,
        small_fracs,
    )
    def test_scaling_invariance(self, t, a, b, c, d):
        if (a, b) == (0, 0) or (c, d) == (0, 0):
            return
        v = Place.finite(7)
        assert metric_dv([t * a, t * b], [c, d], v) == metric_dv([a, b], [c, d], v)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            metric_dv([1, 2], [1, 2, 3], INF)


class TestBasinProbe:
    def test_convergence_to_Q(self):
        # orbit x_n = 2^n * x0 runs off to base infinity; chart u = 2^-n
        m = tri_model()
        rep = basin_probe(m, point(1, 1), None, INF, 30)
        assert rep.verdict == "converged_at"
        assert rep.converged
        assert rep.at is not None and rep.at <= 30
        last = rep.samples[-1]
        assert last.below_epsilon and last.distance < float(DEFAULT_EPS)

    def test_float_eps_rejected(self):
        with pytest.raises(TypeError):
            basin_probe(tri_model(), point(1, 1), None, INF, 5, eps=1e-6)

    def test_eps_decided_on_the_exact_distance(self):
        # the float of 2^-20 - 10^-30 is 2^-20 itself, so a float
        # comparison would put the first sample on eps, not below it
        eps = Fraction(1, 2**20)
        delta = eps - Fraction(1, 10**30)
        halve = PolyMap(parse_poly("1/2*x"), parse_poly("1/2*y"))
        rep = basin_probe(halve, point(delta, 0), point(0, 0), INF, 10, eps)
        first = rep.samples[0]
        assert first.distance == delta and first.below_epsilon
        assert (rep.verdict, rep.at) == ("converged_at", 4)
        assert rep.to_json_dict()["samples"][0]["distance"] == float(delta) == 2.0**-20

    def test_u_coordinate_is_exactly_2_to_minus_n(self):
        m = tri_model()
        f = m.affine_map()
        p = point(1, 1)
        from dmlwb.hirzebruch import chart_around_Q

        for n in range(1, 8):
            p = f.apply(p)
            u, _ = chart_around_Q(embed_A2(p, 3))
            assert u == Fraction(1, 2**n)

    def test_not_converged_at_finite_place(self):
        # |2^n|_2 shrinks so u = 2^-n grows 2-adically: no convergence
        m = tri_model()
        rep = basin_probe(m, point(1, 1), None, Place.finite(2), 15)
        assert rep.verdict == "not_converged"
        assert not rep.converged

    def test_planar_probe(self):
        f = PolyMap(parse_poly("1/2*x"), parse_poly("1/2*y"))
        rep = basin_probe(f, point(1, 1), point(0, 0), INF, 40)
        assert rep.verdict == "converged_at"
        assert any("unverified" in s for s in rep.notes)

    def test_planar_requires_fixed_Q(self):
        f = PolyMap(parse_poly("x + 1"), parse_poly("y"))
        with pytest.raises(ValueError):
            basin_probe(f, point(0, 0), point(3, 3), INF, 5)

    def test_json_round_trip_fields(self):
        rep = basin_probe(tri_model(), point(1, 1), None, INF, 10)
        d = rep.to_json_dict()
        assert set(d) == {"verdict", "at", "place", "eps", "samples", "notes"}
        assert d["place"] == "inf"
        assert isinstance(d["samples"], list)

    def test_guard_truncated_orbit_ends_the_samples(self):
        # x doubles and y grows like x^3*y, so 64 bits are passed within 50 steps
        m = tri_model()
        res = orbit(m.plane_map(), point(2, 2), 50, bit_guard=64)
        assert res.guard_hit and res.last_computed < 50
        rep = basin_on_orbit(m, res, None, INF)
        assert rep.verdict == "not_converged"
        assert [s.n for s in rep.samples] == list(range(res.last_computed + 1))
        assert rep.notes[-1] == (
            f"orbit guard ended the probe after step {res.last_computed}"
        )

    def test_cycle_extends_the_samples_to_the_horizon(self):
        # (1, 2) -> (-1, 2) -> (1, -2) -> (-1, -2) -> (1, 2): period 4
        m = FnModel.from_map(PolyMap(parse_poly("-x"), parse_poly("x*y")))
        res = orbit(m.plane_map(), point(1, 2), 12)
        assert res.cycle == (0, 4)
        rep = basin_on_orbit(m, res, None, INF)
        assert [s.n for s in rep.samples] == list(range(13))
        assert [s.distance for s in rep.samples[4:]] == [
            s.distance for s in rep.samples[:9]
        ]
        assert rep.notes == ()

    def test_F_n_probes_take_no_target(self):
        with pytest.raises(ValueError):
            basin_probe(tri_model(), point(1, 1), point(0, 0), INF, 5)


def _distances_by_stepping_the_model(model, p, v, N):
    """Reference: chart distances along the F_n orbit stepped with apply."""
    P = embed_A2(p, model.n)
    out = []
    for n in range(N + 1):
        try:
            u, w = chart_around_Q(P)
            out.append(max(abs_value(u, v), abs_value(w, v)))
        except ChartDomainError:
            out.append(None)
        P = model.apply(P)
    return out


def _random_triangular(rng) -> PolyMap:
    def coeff():
        return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))

    a = coeff() or Fraction(1, 2)
    A = [coeff() for _ in range(rng.randint(1, 2))] + [Fraction(rng.choice([-2, -1, 1, 2]))]
    B = [coeff() for _ in range(rng.randint(0, 4))]
    f1 = f"{a}*x + {coeff()}"
    f2 = " + ".join(f"({c})*x^{i}*y" for i, c in enumerate(A))
    f2 += "".join(f" + ({c})*x^{i}" for i, c in enumerate(B))
    return PolyMap(parse_poly(f1), parse_poly(f2))


@pytest.mark.parametrize("seed", range(12))
def test_basin_samples_equal_the_model_stepping(seed):
    """Along dml.orbit, the probe reads the distances of the F_n orbit."""
    rng = random.Random(seed)
    model = FnModel.from_map(_random_triangular(rng), rng.choice([None, 5]))
    p = point(rng.choice([0, 1, Fraction(-1, 3), 2]), rng.choice([0, 1, Fraction(2, 5), -3]))
    N, eps = 10, rng.choice([DEFAULT_EPS, Fraction(1, 2)])
    for v in (INF, Place.finite(2), Place.finite(3)):
        rep = basin_probe(model, p, None, v, N, eps)
        want = _distances_by_stepping_the_model(model, p, v, N)
        assert [s.n for s in rep.samples] == list(range(len(rep.samples)))
        assert [s.distance for s in rep.samples] == want[:len(rep.samples)]
        assert [s.below_epsilon for s in rep.samples] == [
            d is not None and d < eps for d in want[:len(rep.samples)]
        ]
        if rep.verdict == "not_converged":
            assert len(rep.samples) == N + 1


class TestLocalDmlProbe:
    def test_fixed_curve_confirmed(self):
        # contraction to the origin along the invariant diagonal y = x
        f = PolyMap(parse_poly("1/2*x"), parse_poly("1/2*y"))
        rep = local_dml_probe(
            f, Curve.from_string("y - x"), point(1, 1), Q=point(0, 0), N=30
        )
        assert rep.verdict == "curve_fixed_confirmed"
        assert not rep.violation
        assert len(rep.visit_set) >= rep.visit_threshold

    def test_no_fixed_curve_is_a_violation(self, monkeypatch):
        # the instance above with the fixed-curve check made to fail
        monkeypatch.setattr(metrics, "is_fixed_curve", lambda C, f: False)
        f = PolyMap(parse_poly("1/2*x"), parse_poly("1/2*y"))
        rep = local_dml_probe(
            f, Curve.from_string("y - x"), point(1, 1), Q=point(0, 0), N=30
        )
        assert rep.verdict == "violation"
        assert rep.violation
        assert rep.notes == (
            "convergence and infinite-looking visits without a fixed "
            "curve or an exact Q-hit: contradicts the local dichotomy",
        )

    def test_hypotheses_not_met_without_visits(self):
        m = tri_model()
        rep = local_dml_probe(m, Curve.from_string("y - 7"), point(1, 1), N=30)
        assert rep.verdict == "hypotheses_not_met"
        assert not rep.violation

    def test_orbit_hits_Q_planar(self):
        # the constant map lands exactly on Q after one step
        f = PolyMap(parse_poly("0"), parse_poly("0"))
        rep = local_dml_probe(
            f, Curve.from_string("y - x"), point(1, 1), Q=point(0, 0), N=40
        )
        assert rep.verdict == "orbit_hits_Q"
        assert not rep.violation

    def test_bit_guard_reaches_the_orbit(self):
        # x doubles and y grows like x^3*y, so 64 bits are passed within 50 steps
        m = tri_model()
        C = Curve.from_string("y - 1")
        guarded = local_dml_probe(m, C, point(2, 2), N=50, bit_guard=64)
        assert "orbit guard truncated the visit scan" in guarded.notes
        free = local_dml_probe(m, C, point(2, 2), N=50)
        assert "orbit guard truncated the visit scan" not in free.notes

    def test_report_json(self):
        m = tri_model()
        rep = local_dml_probe(m, Curve.from_string("y"), point(1, 1), N=10)
        d = rep.to_json_dict()
        assert set(d) == {
            "verdict", "violation", "basin", "visit_set", "visit_threshold", "notes",
        }
