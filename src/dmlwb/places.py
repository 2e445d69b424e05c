"""Places of Q, absolute values, and heights.

The ground field is Q throughout, so there is a single archimedean place
and one finite place per prime, every local degree is 1, and the height
of a projective point in coprime integer coordinates is just the largest
coordinate in absolute value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .arith import factorize, is_prime, valuation
from .errors import ResourceCapError
from .maps import Point
from .poly import as_fraction

RatLike = Union[int, Fraction, str]


@dataclass(frozen=True)
class Place:
    """A place of Q: archimedean (p is None) or the p-adic place."""

    p: Optional[int]

    def __post_init__(self):
        if self.p is not None and not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @classmethod
    def archimedean(cls) -> "Place":
        return cls(None)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(p)

    @classmethod
    def parse(cls, text: str) -> "Place":
        t = text.strip().lower()
        if t in ("inf", "infinity", "oo", "arch", "archimedean"):
            return cls.archimedean()
        try:
            return cls.finite(int(t))
        except ValueError:
            raise ValueError(f"cannot read place {text!r}: use 'inf' or a prime")

    @property
    def is_archimedean(self) -> bool:
        return self.p is None

    def __str__(self) -> str:
        return "inf" if self.p is None else str(self.p)


def ord_p(x: RatLike, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    q = as_fraction(x)
    if q == 0:
        raise ValueError("ord_p(0) is +infinity; handle zero separately")
    return valuation(q.numerator, p) - valuation(q.denominator, p)


def abs_value(x: RatLike, v: Place) -> Fraction:
    """|x|_v as an exact rational (|x|_p = p^(-ord_p x), |0|_v = 0)."""
    q = as_fraction(x)
    if q == 0:
        return Fraction(0)
    if v.is_archimedean:
        return abs(q)
    k = ord_p(q, v.p)
    return Fraction(1, v.p**k) if k >= 0 else Fraction(v.p ** (-k))


def relevant_places(x: RatLike) -> list[Place]:
    """Archimedean place plus every finite place where |x|_v differs from 1."""
    q = as_fraction(x)
    if q == 0:
        raise ValueError("zero has no relevant finite places")
    primes = set(factorize(abs(q.numerator))) | set(factorize(q.denominator))
    return [Place.archimedean()] + [Place.finite(p) for p in sorted(primes)]


def product_formula_check(x: RatLike) -> bool:
    """Exact check of prod over places of |x|_v = 1 for nonzero x."""
    q = as_fraction(x)
    if q == 0:
        raise ValueError("product formula requires x != 0")
    return math.prod(abs_value(q, v) for v in relevant_places(q)) == 1


@dataclass(frozen=True, slots=True)
class ProjPoint:
    """Canonical rational projective point with coprime integer coordinates.

    ProjPoint(coords) takes any iterable of rationals.  Canonical form:
    entries are integers with gcd 1 and the first nonzero entry positive,
    so equality of tuples is projective equality.
    """

    coords: tuple[int, ...]

    def __post_init__(self):
        fracs = [as_fraction(c) for c in self.coords]
        if not fracs:
            raise ValueError("projective point needs at least one coordinate")
        if all(c == 0 for c in fracs):
            raise ValueError("all-zero coordinates do not define a projective point")
        den = math.lcm(*(c.denominator for c in fracs))
        ints = [int(c * den) for c in fracs]
        g = math.gcd(*ints)
        lead = next(c for c in ints if c)
        if lead < 0:
            g = -g
        object.__setattr__(self, "coords", tuple(c // g for c in ints))

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    def height(self) -> int:
        return max(abs(c) for c in self.coords)

    def __str__(self) -> str:
        return "[" + ":".join(str(c) for c in self.coords) + "]"


def embed_P2(p: Point) -> ProjPoint:
    """Affine plane into the projective plane, (x, y) -> [1:x:y]."""
    return ProjPoint([1, p.x, p.y])


def height_affine(p: Point) -> int:
    return embed_P2(p).height()


ENUM_CAP = 20_000_000


def northcott_enumerate(B: int, dim: int) -> list[ProjPoint]:
    """All canonical points of P^dim(Q) with height <= B, sorted by coordinates.

    The scan size (2B+1)^(dim+1) is guarded by ENUM_CAP so absurd bounds
    fail loudly instead of thrashing.
    """
    if B < 0:
        raise ValueError("northcott_enumerate expects B >= 0")
    if dim not in (1, 2):
        raise ValueError("only P^1 and P^2 enumeration is supported")
    if (2 * B + 1) ** (dim + 1) > ENUM_CAP:
        raise ResourceCapError(
            f"enumeration of ~{(2 * B + 1) ** (dim + 1)} tuples exceeds cap {ENUM_CAP}"
        )
    # scan canonical representatives directly: first nonzero entry positive
    out: list[ProjPoint] = []
    for first in range(B + 1):
        for rest in itertools.product(range(-B, B + 1), repeat=dim):
            coords = (first, *rest)
            if next((c for c in coords if c), 0) > 0 and math.gcd(*coords) == 1:
                out.append(ProjPoint(coords))
    out.sort(key=lambda q: q.coords)
    return out
