"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the seed.  The generators are
stratified: the number of items of each structural kind (family,
exponent, horizon, coefficient sizes, curve shape) is fixed, and the
seed draws the signs, the remaining small coefficients, which point goes
with which map, and the item order.  The cost of an item depends mostly
on its structure, so runs with different seeds measure about the same
amount of work while still feeding the program different inputs.

This module uses the standard library only, so run.py
can build inputs and check outputs without importing the program.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

DEFAULT_SEED = 1

# dml scan settings, as in the randomized dichotomy sweep of the test suite
SCAN_N = 200
SCAN_K = 12
SCAN_BIT_GUARD = 50_000
BATCH_JOBS = 2

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BATCH_CONFIG = os.path.join(BENCH_DIR, "batch", "config.json")


def poly_text(terms: dict[tuple[int, int], int]) -> str:
    """Polynomial text for {(i, j): c} in the program's input grammar."""
    out = ""
    for (i, j), c in sorted(terms.items(), reverse=True):
        if c == 0:
            continue
        mono = "*".join(
            f"{v}^{e}" if e > 1 else v for v, e in (("x", i), ("y", j)) if e
        )
        mag = abs(c)
        body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else str(mag))
        if not out:
            out = f"-{body}" if c < 0 else body
        else:
            out += f" - {body}" if c < 0 else f" + {body}"
    return out or "0"


def _sign(rng: random.Random) -> int:
    return rng.choice([-1, 1])


def _nonzero(rng: random.Random, top: int) -> int:
    return _sign(rng) * rng.randint(1, top)


def _dense(rng: random.Random, deg: int, top: int) -> list[int]:
    """Coefficients c_0..c_deg of a univariate polynomial of exact degree deg."""
    return [rng.randint(-top, top) for _ in range(deg)] + [_nonzero(rng, top)]


def _deck(rng, values, n: int) -> list:
    """n values cycling through `values`, in seeded order."""
    values = list(values)
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


# -- degrees -------------------------------------------------------------------

def _henon(rng, m: int, k: int, with_c: bool):
    # (y, y^k - delta*x + c) with |delta| = |c| = m
    f2 = {(0, k): 1, (1, 0): _sign(rng) * m}
    if with_c:
        f2[(0, 0)] = _sign(rng) * m
    return {(0, 1): 1}, f2, k


def _triangular(rng, m: int, dA: int, dB: int):
    # (a*x + b, A(x)*y + B(x)) with |a| = m + 1, deg A = dA, deg B = dB
    f1 = {(1, 0): _sign(rng) * (m + 1), (0, 0): _nonzero(rng, 2)}
    f2 = {(i, 1): c for i, c in enumerate(_dense(rng, dA, 2))}
    f2.update({(i, 0): c for i, c in enumerate(_dense(rng, dB, 2))})
    return f1, f2, max(dA + 1, dB)


def _quadratic(rng, m: int):
    # (x^2 + a*y + c, b*x*y + e) with |a| = |b| = |c| = |e| = m
    f1 = {(2, 0): 1, (0, 1): _sign(rng) * m, (0, 0): _sign(rng) * m}
    f2 = {(1, 1): _sign(rng) * m, (0, 0): _sign(rng) * m}
    return f1, f2, 2


def _elementary(rng, m: int, deg: int):
    # (x + p(y), y) with deg p = deg and leading coefficient of size m
    coeffs = [rng.randint(-2, 2) for _ in range(deg)] + [_sign(rng) * m]
    f1 = {(0, j): c for j, c in enumerate(coeffs)}
    f1[(1, 0)] = 1
    return f1, {(0, 1): 1}, deg


# (family, generator arguments, horizon, items); the counts add up to 100.
# Hénon horizons stop where the next step would cost seconds per item.
DEGREE_STRATA = (
    ("henon", (2, False), 7, 8),
    ("henon", (2, True), 6, 9),
    ("henon", (3, True), 4, 4),
    ("henon", (3, False), 4, 4),
    ("triangular", (2, 3), 12, 13),
    ("triangular", (3, 4), 10, 12),
    ("quadratic", (), 6, 12),
    ("quadratic", (), 5, 13),
    ("elementary", (2,), 12, 8),
    ("elementary", (3,), 12, 9),
    ("elementary", (4,), 12, 8),
)

_DEGREE_FAMILIES = {
    "henon": _henon,
    "triangular": _triangular,
    "quadratic": _quadratic,
    "elementary": _elementary,
}


def degrees_items(seed: int) -> list[dict]:
    """One `dmlwb degrees` call per item, in seeded order.

    Coefficient sizes drive the cost of the big compositions, so within
    each stratum the size class m (1 or 2) is dealt half and half; the
    seed draws the signs, the remaining small coefficients and the order.
    """
    rng = random.Random(f"degrees:{seed}")
    items = []
    for family, params, horizon, count in DEGREE_STRATA:
        for m in _deck(rng, (1, 2), count):
            f1, f2, degree = _DEGREE_FAMILIES[family](rng, m, *params)
            items.append({
                "family": family,
                "map": {"f1": poly_text(f1), "f2": poly_text(f2)},
                "horizon": horizon,
                "degree": degree,
            })
    rng.shuffle(items)
    for i, item in enumerate(items):
        item["id"] = i
    return items


# -- scan ----------------------------------------------------------------------

def _scan_triangular(rng, a: int, dA: int, with_b: bool, b: int):
    # (a*x + b, A(x)*y + B(x)), coefficients as in the test suite's sweep
    f2 = {(dA, 1): rng.choice([-2, -1, 1, 2])}
    for i in range(dA):
        f2[(i, 1)] = rng.randint(-2, 2)
    if with_b:
        for i in range(rng.randint(1, 4)):
            f2[(i, 0)] = rng.randint(-2, 2)
    return {(1, 0): _sign(rng) * a, (0, 0): b}, f2


def _scan_henon(k: int, delta: int, c: int):
    # (y, y^k - delta*x + c)
    return {(0, 1): 1}, {(0, k): 1, (1, 0): -delta, (0, 0): c}


def _scan_curve(rng, kind: int) -> str:
    if kind == 0:
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        if (a, b) == (0, 0):
            b = 1
        return poly_text({(1, 0): a, (0, 1): b, (0, 0): rng.randint(-3, 3)})
    if kind == 1:
        return poly_text({(0, 1): 1, (2, 0): -1, (0, 0): -rng.randint(-2, 2)})
    if kind == 2:
        # c = 0 would give the reducible x*y, on which dml_classify reports a
        # false VIOLATION when the orbit alternates on and off one component
        # (a known defect of the classifier, not of the benchmark)
        return poly_text({(1, 1): 1, (0, 0): -_nonzero(rng, 2)})
    if kind == 3:
        return poly_text({(2, 0): 1, (0, 2): 1, (0, 0): -rng.randint(1, 4)})
    return poly_text({(0, 2): 1, (3, 0): -1, (0, 0): -rng.randint(-2, 2)})


def _evaluate(terms: dict, x: Fraction, y: Fraction) -> Fraction:
    return sum((c * x**i * y**j for (i, j), c in terms.items()), Fraction(0))


def _short_cycle(f1: dict, f2: dict, x: Fraction, y: Fraction, steps: int = 12) -> bool:
    """True when the orbit of (x, y) repeats within `steps` steps at small height."""
    seen = {(x, y)}
    for _ in range(steps):
        x, y = _evaluate(f1, x, y), _evaluate(f2, x, y)
        if (x, y) in seen:
            return True
        if max(abs(x.numerator), x.denominator, abs(y.numerator), y.denominator) > 2**64:
            return False
        seen.add((x, y))
    return False


def _point(rng, x: Fraction, y: Fraction, f1: dict, f2: dict) -> str:
    """The dealt point, or a random one of the same denominators when the
    dealt point lies on a short cycle.

    A point on a short cycle gives a certified periodic visit tail on
    some curves, and the curve-period search that follows can run into
    the degree cap (0.3-0.8 s for one item).  Such points are redrawn so
    that the scan time does not hinge on whether a seed happens to deal
    one; the batch workload measures that search on fixed inputs.
    """
    for _ in range(100):
        if not _short_cycle(f1, f2, x, y):
            break
        x = Fraction(rng.randint(-6, 6), x.denominator)
        y = Fraction(rng.randint(-6, 6), y.denominator)
    return f"{x},{y}"


def _crossed(rng, *axes: list, reps: int) -> list[tuple]:
    """Every combination of the axes, `reps` times each, in seeded order."""
    cells = [()]
    for axis in axes:
        cells = [c + (v,) for c in cells for v in axis]
    return _deck(rng, cells, len(cells) * reps)


_KINDS = list(range(5))
_NUMERATORS = range(-6, 7)
_DENOMINATORS = (1, 1, 2, 3)


def scan_items(seed: int) -> list[dict]:
    """One `dmlwb dml scan` call per item: 240 triangular, 180 Hénon-like.

    The maps, the five curve shapes and the small-height points follow
    the randomized dichotomy sweep of the test suite.  The structural
    choices that set an item's cost (|a|, deg A, whether B is present,
    the exponent k, delta, the curve shape) are crossed at fixed counts,
    and the constant terms and the point coordinates are dealt from
    fixed multisets per family; the seed draws the other coefficients
    and how all of these are combined.
    """
    rng = random.Random(f"scan:{seed}")
    families = []
    tri = _crossed(rng, [1, 2], [1, 2], [True, False], _KINDS, reps=6)
    families.append([
        ("triangular", _scan_triangular(rng, a, dA, with_b, b), kind)
        for (a, dA, with_b, kind), b in zip(tri, _deck(rng, range(-2, 3), len(tri)))
    ])
    hen = _crossed(rng, [2], [-1, 1, 2], _KINDS, reps=8)
    hen += _crossed(rng, [3], [-1, 1, 2], _KINDS, reps=4)
    families.append([
        ("henon_like", _scan_henon(k, delta, c), kind)
        for (k, delta, kind), c in zip(hen, _deck(rng, range(-2, 3), len(hen)))
    ])
    items = []
    for specs in families:
        n = len(specs)
        coords = zip(_deck(rng, _NUMERATORS, n), _deck(rng, _DENOMINATORS, n),
                     _deck(rng, _NUMERATORS, n), _deck(rng, _DENOMINATORS, n))
        for (family, (f1, f2), kind), (xn, xd, yn, yd) in zip(specs, coords):
            items.append({
                "family": family,
                "map": {"f1": poly_text(f1), "f2": poly_text(f2)},
                "curve": _scan_curve(rng, kind),
                "point": _point(rng, Fraction(xn, xd), Fraction(yn, yd), f1, f2),
            })
    rng.shuffle(items)
    for i, item in enumerate(items):
        item["id"] = i
    return items


# -- batch ---------------------------------------------------------------------

def batch_config(seed: int) -> dict:
    """The checked-in batch config, its lists in seeded order.

    The default seed keeps the checked-in order.  Other seeds permute
    each list, which changes the item order and the thread interleaving
    but not the set of items, so every seed is checked against the
    reference item by item.
    """
    with open(BATCH_CONFIG, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if seed != DEFAULT_SEED:
        rng = random.Random(f"batch:{seed}")
        for key in ("maps", "curves", "points", "places"):
            rng.shuffle(cfg[key])
    return cfg


def batch_item_count(cfg: dict) -> int:
    return len(cfg["maps"]) * len(cfg["curves"]) * len(cfg["points"]) * len(cfg["places"])
