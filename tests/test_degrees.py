"""Degree sequences under iteration, growth labels, stability checks."""

import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmlwb.degrees import (
    GROWTH_BOUNDED,
    GROWTH_EXPONENTIAL,
    GROWTH_LINEAR,
    _growth_class,
    degree_sequence,
    dynamical_degree_estimate,
    is_algebraically_stable_P2,
    profile_to_json_dict,
)
from dmlwb.errors import DegreeCapError
from dmlwb.maps import PolyMap, compose_map, iterate_map
from dmlwb.parsing import parse_poly
from dmlwb.poly import Poly2, get_degree_cap, set_degree_cap


def parse_map(f1: str, f2: str) -> PolyMap:
    return PolyMap(parse_poly(f1), parse_poly(f2))


def test_henon_degrees_double():
    f = parse_map("y", "y^2 - x")
    prof = degree_sequence(f, 6)
    assert prof.degrees == (2, 4, 8, 16, 32, 64)
    assert prof.growth_class == GROWTH_EXPONENTIAL
    assert prof.lambda_estimate == 2.0


def test_triangular_degrees_linear():
    f = parse_map("2*x", "x^3*y + x^5")
    prof = degree_sequence(f, 8)
    assert prof.degrees == tuple(3 * n + 2 for n in range(1, 9))
    assert prof.growth_class == GROWTH_LINEAR


def test_affine_map_bounded():
    f = parse_map("x + 1", "2*y")
    prof = degree_sequence(f, 5)
    assert prof.degrees == (1, 1, 1, 1, 1)
    assert prof.growth_class == GROWTH_BOUNDED
    assert prof.lambda_estimate == 1.0


def test_growth_class_on_raw_sequences():
    assert _growth_class([5, 8, 11]) == GROWTH_LINEAR
    assert _growth_class([2, 4, 8, 16]) == GROWTH_EXPONENTIAL
    assert _growth_class([3, 3, 3]) == GROWTH_BOUNDED
    assert _growth_class([1]) == GROWTH_BOUNDED


def test_estimate_reports_last_ratio():
    f = parse_map("y", "y^2 - x")
    est = dynamical_degree_estimate(f, 5)
    assert est.estimate == 2.0
    assert est.last_ratio == 2.0


def test_estimate_rejects_tiny_horizon():
    with pytest.raises(ValueError):
        dynamical_degree_estimate(parse_map("x", "y"), 1)


def test_henon_stable():
    v = is_algebraically_stable_P2(parse_map("y", "y^2 - x"), 8)
    assert v.is_stable
    assert str(v) == "stable_up_to_8"


def test_triangular_drops_at_two():
    # deg f = 5 but deg f^2 = 8 < 25
    v = is_algebraically_stable_P2(parse_map("2*x", "x^3*y + x^5"), 8)
    assert not v.is_stable
    assert v.unstable_at == 2
    assert str(v) == "unstable_at(2)"


def test_profile_json_shape():
    prof = degree_sequence(parse_map("y", "y^2 - x"), 3)
    d = profile_to_json_dict(prof)
    assert d == {
        "degrees": [2, 4, 8],
        "lambda_estimate": 2.0,
        "growth_class": "exponential",
    }


def test_inverse_not_required():
    f = parse_map("2*x", "x*y")
    prof = degree_sequence(f, 4)
    assert prof.degrees == (2, 3, 4, 5)


def test_constant_iterate_has_degree_zero():
    f = parse_map("2*y + 1", "1")  # f^2 = (3, 1)
    prof = degree_sequence(f, 3)
    assert prof.degrees == (1, 0, 0)
    assert prof.lambda_estimate == 0.0
    assert str(is_algebraically_stable_P2(f, 3)) == "unstable_at(2)"
    with pytest.raises(ValueError, match=r"deg f\^2 = 0"):
        dynamical_degree_estimate(f, 3)
    assert degree_sequence(parse_map("y", "0"), 3).degrees == (1, 0, 0)


def test_constant_map_rejected():
    with pytest.raises(ValueError, match="constant map"):
        degree_sequence(parse_map("2", "3"), 3)


def test_degree_cap_trips_at_first_degree_above_cap():
    henon = parse_map("y", "y^2 - x")
    saved = get_degree_cap()
    set_degree_cap(64)
    try:
        assert degree_sequence(henon, 6).degrees == (2, 4, 8, 16, 32, 64)
        with pytest.raises(DegreeCapError):
            degree_sequence(henon, 7)
    finally:
        set_degree_cap(saved)


def test_stability_rejects_short_horizon():
    with pytest.raises(ValueError, match="stability horizon must be at least 2"):
        is_algebraically_stable_P2(parse_map("y", "y^2 - x"), 1)


# -- top-part degrees against full composition ---------------------------------

def _homogeneous(rng, d: int) -> dict:
    return {(i, d - i): rng.randint(-2, 2) for i in range(d + 1)}


def _lower(rng, d: int) -> dict:
    return {(i, j): rng.randint(-2, 2) for i in range(d) for j in range(d - i)}


def _nonzero(rng) -> int:
    return rng.choice([-2, -1, 1, 2])


def _henon(rng):
    k = rng.choice([2, 3])
    return {(0, 1): 1}, {(0, k): 1, (1, 0): _nonzero(rng), (0, 0): rng.randint(-2, 2)}


def _triangular(rng):
    dA, dB = rng.randint(0, 3), rng.randint(1, 4)
    f2 = {(i, 1): rng.randint(-2, 2) for i in range(dA)}
    f2[(dA, 1)] = _nonzero(rng)
    f2.update({(i, 0): rng.randint(-2, 2) for i in range(dB)})
    f2[(dB, 0)] = _nonzero(rng)
    return {(1, 0): _nonzero(rng), (0, 0): rng.randint(-2, 2)}, f2


def _quadratic(rng):
    return (
        {(2, 0): 1, (0, 1): _nonzero(rng), (0, 0): rng.randint(-2, 2)},
        {(1, 1): _nonzero(rng), (0, 0): rng.randint(-2, 2)},
    )


def _elementary(rng):
    deg = rng.randint(2, 4)
    f1 = {(0, j): rng.randint(-2, 2) for j in range(deg)}
    f1[(0, deg)] = _nonzero(rng)
    f1[(1, 0)] = 1
    return f1, {(0, 1): 1}


def _affine(rng):
    # the linear part is nilpotent one time in three
    if rng.random() < 1 / 3:
        return {(0, 1): _nonzero(rng), (0, 0): 1}, {(0, 0): rng.randint(-2, 2)}
    return _lower(rng, 2), _lower(rng, 2)


def _constant_direction(rng, stable: bool):
    # top part P*(a, b) with P homogeneous of degree d; f contracts the
    # line at infinity to [a:b:0], and f^2 drops in degree iff P(a, b) = 0
    d = rng.choice([2, 3])
    a, b = _nonzero(rng), rng.randint(-2, 2)
    while True:
        if stable:
            P = _homogeneous(rng, d)
        else:
            q = _homogeneous(rng, d - 1)
            P = {}
            for (i, j), c in q.items():  # P = (b*x - a*y) * q
                P[(i + 1, j)] = P.get((i + 1, j), 0) + b * c
                P[(i, j + 1)] = P.get((i, j + 1), 0) - a * c
        value = sum(c * a**i * b**j for (i, j), c in P.items())
        if any(P.values()) and (value != 0) == stable:
            break
    f1 = {k: a * c for k, c in P.items()}
    f2 = {k: b * c for k, c in P.items()}
    for part in (f1, f2):
        for k, c in _lower(rng, d).items():
            part[k] = part.get(k, 0) + c
    return f1, f2


FAMILIES = {
    "henon": _henon,
    "triangular": _triangular,
    "quadratic": _quadratic,
    "elementary": _elementary,
    "affine": _affine,
    "direction_stable": lambda rng: _constant_direction(rng, True),
    "direction_unstable": lambda rng: _constant_direction(rng, False),
}


def _outcome(compute):
    try:
        return compute()
    except ValueError as exc:  # some affine iterates are constant maps
        return f"ValueError: {exc}"


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_top_part_degrees_match_full_iterates(family):
    rng = random.Random(f"degrees:{family}")
    for _ in range(4):
        f1, f2 = FAMILIES[family](rng)
        f = PolyMap(Poly2.from_terms(f1), Poly2.from_terms(f2))
        d = f.algebraic_degree()
        N = 2  # the largest horizon <= 5 with deg f^N <= 32
        while N < 5 and d ** (N + 1) <= 32:
            N += 1
        full = _outcome(
            lambda: tuple(iterate_map(f, n).algebraic_degree() for n in range(1, N + 1))
        )
        assert _outcome(lambda: degree_sequence(f, N).degrees) == full, f
        if isinstance(full, str):
            expected = full
        else:
            drop = next((n for n, dn in enumerate(full, 1) if dn < d**n), None)
            expected = f"stable_up_to_{N}" if drop is None else f"unstable_at({drop})"
        assert _outcome(lambda: str(is_algebraically_stable_P2(f, N))) == expected, f
        if family == "direction_stable":
            assert expected == f"stable_up_to_{N}", f
        if family == "direction_unstable":
            assert expected == "unstable_at(2)", f


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_stability_is_decided_by_the_second_top_part_iterate(family):
    rng = random.Random(f"certificate:{family}")
    for _ in range(8):
        f1, f2 = FAMILIES[family](rng)
        f = PolyMap(Poly2.from_terms(f1), Poly2.from_terms(f2))
        d = f.algebraic_degree()
        if d == 0:
            continue
        top = PolyMap(*(
            Poly2.from_terms({k: c for k, c in p.terms() if sum(k) == d})
            for p in (f.f1, f.f2)
        ))
        h2 = compose_map(top, top)
        h2_zero = h2.f1.is_zero and h2.f2.is_zero
        assert h2_zero == (iterate_map(f, 2).algebraic_degree() < d**2), f
        for N in (2, 30):
            expected = "unstable_at(2)" if h2_zero else f"stable_up_to_{N}"
            assert str(is_algebraically_stable_P2(f, N)) == expected, f


def test_stability_needs_no_iterate_above_the_degree_cap():
    henon = parse_map("y", "y^2 - x")
    triangular = parse_map("2*x", "x^3*y + x^5")  # deg f^30 = 92
    saved = get_degree_cap()
    set_degree_cap(64)
    try:
        assert str(is_algebraically_stable_P2(henon, 8)) == "stable_up_to_8"
        assert str(is_algebraically_stable_P2(henon, 30)) == "stable_up_to_30"
        assert str(is_algebraically_stable_P2(triangular, 30)) == "unstable_at(2)"
        with pytest.raises(DegreeCapError, match="degree 128 > cap 64"):
            degree_sequence(henon, 7)
    finally:
        set_degree_cap(saved)


def test_stable_maps_take_no_full_composition(monkeypatch):
    def refuse(*args):
        raise AssertionError("full composition of a stable map")

    monkeypatch.setattr("dmlwb.degrees.compose_map", refuse)
    # the top part (0, y^2) of the Henon map has a zero component
    henon = parse_map("y", "y^2 - x")
    assert degree_sequence(henon, 12).degrees == tuple(2**n for n in range(1, 13))
    assert degree_sequence(parse_map("x + 1", "2*y"), 5).degrees == (1,) * 5


def test_stable_degrees_stop_at_the_first_cap_trip():
    # deg f^13 = 8192 is the first degree above the default cap.  Built
    # before its check, the sequence would need tens of GB at this horizon,
    # so the call runs in a child limited to 1 GB of address space.
    child = textwrap.dedent("""
        import resource, time
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
        from dmlwb.degrees import degree_sequence
        from dmlwb.maps import PolyMap
        from dmlwb.parsing import parse_poly
        henon = PolyMap(parse_poly("y"), parse_poly("y^2 - x"))
        start = time.perf_counter()
        try:
            degree_sequence(henon, 10**6)
        finally:
            print(time.perf_counter() - start)
    """)
    run = subprocess.run([sys.executable, "-c", child], capture_output=True,
                         text=True, timeout=60)
    assert run.stderr.endswith("DegreeCapError: operation would produce "
                               "total degree 8192 > cap 4096\n"), run.stderr
    assert float(run.stdout) < 1


# -- closed forms for triangular maps --------------------------------------------

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
nonzero_fractions = fractions.filter(lambda q: q != 0)


def _mirrored(terms: dict) -> dict:
    return {(j, i): c for (i, j), c in terms.items()}


@st.composite
def triangular_maps(draw):
    """(a*x + b, A(x)*y + B(x)) or its mirror, cancelling family included."""
    a, b = draw(nonzero_fractions), draw(fractions)
    dA = draw(st.integers(0, 3))
    A = [draw(fractions) for _ in range(dA)] + [draw(nonzero_fractions)]
    e = draw(st.sampled_from([None, 0, 1, 2, 3, 5]))  # deg B; None for B = 0
    B = [] if e is None else [draw(fractions) for _ in range(e)] + [draw(nonzero_fractions)]
    if dA == 0 and e is not None and e >= 2 and draw(st.booleans()):
        A = [-a**e]  # a^e = -c: even iterates drop in degree
    f1 = {(1, 0): a, (0, 0): b}
    f2 = {(i, 1): c for i, c in enumerate(A)}
    f2.update({(i, 0): c for i, c in enumerate(B)})
    if draw(st.booleans()):
        f1, f2 = _mirrored(f2), _mirrored(f1)
    return PolyMap(Poly2.from_terms(f1), Poly2.from_terms(f2))


@settings(max_examples=80, deadline=None)
@given(triangular_maps())
@example(parse_map("-x", "-y + x^2"))  # f^2 = id
@example(parse_map("-8*x + y^3", "2*y"))  # the mirror of a cancelling map
@example(parse_map("2*x", "x*y + x^5"))  # deg B > deg A + 1
def test_triangular_closed_form_matches_full_iterates(f):
    N = 6
    acc, full = f, [f.algebraic_degree()]
    for _ in range(N - 1):
        acc = compose_map(f, acc)
        full.append(acc.algebraic_degree())
    assert degree_sequence(f, N).degrees == tuple(full)


def test_cancelling_family_drops_on_even_iterates():
    # a^e = -c with a = 2, e = 2, c = -4: f^2 = (4*x, 16*y)
    assert degree_sequence(parse_map("2*x", "-4*y + x^2"), 5).degrees == (2, 1, 2, 1, 2)
    assert degree_sequence(parse_map("-4*x + y^2", "2*y"), 5).degrees == (2, 1, 2, 1, 2)


def test_triangular_maps_take_no_composition(monkeypatch):
    def refuse(*args):
        raise AssertionError("composition of a triangular map")

    monkeypatch.setattr("dmlwb.degrees.compose_map", refuse)
    monkeypatch.setattr(Poly2, "compose", refuse)  # the h_2 test composes
    N = 40
    tri = parse_map("2*x + 1", "x^2*y + x^3")
    assert degree_sequence(tri, N).degrees == tuple(2 * n + 1 for n in range(1, N + 1))
    mirrored = parse_map("(y^2 - 1/2)*x + y^7", "-y/3 + 1")
    expected = tuple(max(2 * n + 1, 2 * (n - 1) + 7) for n in range(1, N + 1))
    assert degree_sequence(mirrored, N).degrees == expected
    no_B = parse_map("3*x", "x^3*y")
    assert degree_sequence(no_B, N).degrees == tuple(3 * n + 1 for n in range(1, N + 1))
    constant_A = parse_map("-x + 1", "2*y + x^4 - x")
    assert degree_sequence(constant_A, N).degrees == (4,) * N
    elementary = parse_map("x + y^3 - 2*y", "y")
    assert degree_sequence(elementary, N).degrees == (3,) * N
    assert str(is_algebraically_stable_P2(elementary, N)) == "unstable_at(2)"


def _first_composed_trip(f: PolyMap) -> int:
    acc, n = f, 1
    while True:
        n += 1
        try:
            acc = compose_map(f, acc)
        except DegreeCapError:
            return n


@pytest.mark.parametrize("f1, f2, trip", [
    ("2*x + 1", "(x^2 - 3*x + 1)*y + x^3 - 2", 32),  # deg f^n = 2n + 1
    ("-x - 2", "(2*x^3 + x)*y + x^5", 21),  # deg f^n = 3n + 2
    ("(y^2 - 3*y + 1)*x + y^3 - 2", "2*y + 1", 32),
])
def test_closed_form_trips_the_cap_where_full_composition_does(f1, f2, trip):
    f = parse_map(f1, f2)
    saved = get_degree_cap()
    set_degree_cap(64)
    try:
        assert _first_composed_trip(f) == trip
        assert degree_sequence(f, trip - 1).degrees[-1] <= 64
        with pytest.raises(DegreeCapError, match=r"degree 65 > cap 64$"):
            degree_sequence(f, trip)
    finally:
        set_degree_cap(saved)


def test_constant_A_never_trips_the_cap():
    saved = get_degree_cap()
    set_degree_cap(64)
    try:
        f = parse_map("x/2 + 1", "-3*y + x^5")
        assert degree_sequence(f, 1000).degrees == (5,) * 1000
    finally:
        set_degree_cap(saved)
