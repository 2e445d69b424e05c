"""Sparse exact bivariate polynomials over the rationals.

A polynomial is stored as an integer-coefficient dict keyed by exponent
pairs (i, j) for x^i * y^j, together with a single positive common
denominator.  This keeps the multiplication kernel in plain integer
arithmetic, which is roughly an order of magnitude faster than carrying
a Fraction per coefficient, while every value exposed to callers is an
exact Fraction.

Canonical form: no zero entries, denominator >= 1, and the gcd of the
denominator with the coefficient content is 1.  Equality and hashing
rely on this.

Every product-like operation checks the degree cap and raises
DegreeCapError instead of building a polynomial beyond the cap.  The cap
is one process-wide value: set_degree_cap changes it for every caller,
so code that tightens it for one computation restores it afterwards.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Union

from .errors import DegreeCapError, ZeroDenominatorError

Monomial = tuple[int, int]
Scalar = Union[int, Fraction, str]

NEG_INF = float("-inf")

# the Mersenne prime behind the modular rejection test of vanishes_at
RESIDUE_PRIME = 2**61 - 1

DEFAULT_DEGREE_CAP = 4096
_degree_cap = DEFAULT_DEGREE_CAP


def set_degree_cap(cap: int) -> None:
    """Set the process-wide total-degree cap (must be positive)."""
    global _degree_cap
    if cap <= 0:
        raise ValueError("degree cap must be positive")
    _degree_cap = cap


def get_degree_cap() -> int:
    return _degree_cap


def _check_cap(degree) -> None:
    if degree > _degree_cap:
        raise DegreeCapError(
            f"operation would produce total degree {degree} > cap {_degree_cap}"
        )


def as_fraction(value: Scalar) -> Fraction:
    """Coerce an int, Fraction or 'a/b' string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _content(nums: Iterable[int]) -> int:
    g = 0
    for v in nums:
        g = math.gcd(g, v)
        if g == 1:
            return 1
    return g


class Poly2:
    """Immutable sparse polynomial in Q[x, y]."""

    __slots__ = ("_n", "_d")

    def __init__(self, numerators: Mapping[Monomial, int], denominator: int = 1):
        if denominator == 0:
            raise ZeroDivisionError("polynomial denominator must be nonzero")
        if denominator < 0:
            numerators = {k: -v for k, v in numerators.items()}
            denominator = -denominator
        nums = {k: v for k, v in numerators.items() if v}
        if nums and denominator > 1:
            g = math.gcd(_content(nums.values()), denominator)
            if g > 1:
                nums = {k: v // g for k, v in nums.items()}
                denominator //= g
        if not nums:
            denominator = 1
        self._n = nums
        self._d = denominator

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly2":
        return cls({})

    @classmethod
    def one(cls) -> "Poly2":
        return cls({(0, 0): 1})

    @classmethod
    def const(cls, value: Scalar) -> "Poly2":
        q = as_fraction(value)
        return cls({(0, 0): q.numerator}, q.denominator)

    @classmethod
    def variable(cls, name: str) -> "Poly2":
        if name == "x":
            return cls({(1, 0): 1})
        if name == "y":
            return cls({(0, 1): 1})
        raise ValueError(f"unknown variable {name!r}, expected 'x' or 'y'")

    @classmethod
    def from_terms(cls, terms: Mapping[Monomial, Scalar]) -> "Poly2":
        """Build from a mapping of exponent pairs to rational coefficients."""
        fracs = {k: as_fraction(v) for k, v in terms.items()}
        den = math.lcm(*(q.denominator for q in fracs.values()))
        nums = {k: q.numerator * (den // q.denominator) for k, q in fracs.items()}
        return cls(nums, den)

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._n

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        d = self._d
        for k, v in self._n.items():
            yield k, Fraction(v, d)

    def coeff(self, i: int, j: int) -> Fraction:
        return Fraction(self._n.get((i, j), 0), self._d)

    def integer_form(self) -> tuple[dict[Monomial, int], int]:
        """(c, d) with self = sum of c[i, j] * x^i * y^j / d, c integral, d >= 1."""
        return dict(self._n), self._d

    def __len__(self) -> int:
        return len(self._n)

    def total_degree(self):
        """Total degree; the zero polynomial reports -inf."""
        if not self._n:
            return NEG_INF
        return max(i + j for i, j in self._n)

    def deg_x(self):
        if not self._n:
            return NEG_INF
        return max(i for i, _ in self._n)

    def deg_y(self):
        if not self._n:
            return NEG_INF
        return max(j for _, j in self._n)

    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self._n)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.coeff(0, 0)

    def leading_monomial(self) -> Monomial:
        """Largest monomial in graded lexicographic order (x before y)."""
        if not self._n:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._n, key=lambda k: (k[0] + k[1], k[0]))

    # -- arithmetic ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly2.const(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self._d == other._d and self._n == other._n

    def __hash__(self) -> int:
        return hash((self._d, frozenset(self._n.items())))

    def __neg__(self) -> "Poly2":
        out = Poly2.__new__(Poly2)
        out._n = {k: -v for k, v in self._n.items()}
        out._d = self._d
        return out

    def __add__(self, other) -> "Poly2":
        if isinstance(other, (int, Fraction, str)):
            other = Poly2.const(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return poly_sum((self, other))

    __radd__ = __add__

    def __sub__(self, other) -> "Poly2":
        if isinstance(other, (int, Fraction, str)):
            other = Poly2.const(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly2":
        return (-self) + other

    def __mul__(self, other) -> "Poly2":
        if isinstance(other, (int, Fraction, str)):
            q = as_fraction(other)
            return Poly2({k: v * q.numerator for k, v in self._n.items()},
                         self._d * q.denominator)
        if not isinstance(other, Poly2):
            return NotImplemented
        if not self._n or not other._n:
            return Poly2.zero()
        _check_cap(self.total_degree() + other.total_degree())
        out: dict[Monomial, int] = {}
        get = out.get
        for (i1, j1), c1 in self._n.items():
            for (i2, j2), c2 in other._n.items():
                k = (i1 + i2, j1 + j2)
                prev = get(k)
                out[k] = c1 * c2 if prev is None else prev + c1 * c2
        return Poly2(out, self._d * other._d)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly2":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        if exponent == 0:
            return Poly2.one()
        if self._n:
            _check_cap(self.total_degree() * exponent)
        result = None
        base = self
        k = exponent
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- evaluation and substitution ------------------------------------

    def evaluate(self, x: Scalar, y: Scalar) -> Fraction:
        """Exact value at a rational point."""
        return Fraction(*self._scaled_value(x, y))

    def vanishes_at(self, x: Scalar, y: Scalar) -> bool:
        """self(x, y) == 0, decided exactly with no Fraction and no gcd.

        The numerator of _scaled_value is xd^dx * yd^dy * sum c_ij x^i y^j.
        When the prime Q = 2^61 - 1 divides neither denominator, that is
        zero modulo Q exactly when the sum is, with x and y read modulo Q.
        A nonzero residue therefore proves the value nonzero; a zero one
        (or a denominator divisible by Q) falls back to the integer sum.
        """
        qx, qy = as_fraction(x), as_fraction(y)
        xd, yd = qx.denominator % RESIDUE_PRIME, qy.denominator % RESIDUE_PRIME
        if xd and yd:
            rx = qx.numerator * pow(xd, -1, RESIDUE_PRIME) % RESIDUE_PRIME
            ry = qy.numerator * pow(yd, -1, RESIDUE_PRIME) % RESIDUE_PRIME
            acc = 0
            for (i, j), c in self._n.items():
                acc += c * pow(rx, i, RESIDUE_PRIME) * pow(ry, j, RESIDUE_PRIME)
            if acc % RESIDUE_PRIME:
                return False
        return self._scaled_value(qx, qy)[0] == 0

    def _scaled_value(self, x: Scalar, y: Scalar) -> tuple[int, int]:
        """(num, den) with self(x, y) = num / den and den > 0, unreduced.

        Every term is put over the common denominator d * xd^dx * yd^dy
        (d the stored denominator, xd and yd those of x and y, dx and dy
        the degrees in x and y), so num is a plain integer sum.
        """
        qx, qy = as_fraction(x), as_fraction(y)
        if not self._n:
            return 0, 1
        dx = max(i for i, _ in self._n)
        dy = max(j for _, j in self._n)
        xn, xd = qx.numerator, qx.denominator
        yn, yd = qy.numerator, qy.denominator
        px = power_table(xn, dx)
        qxp = power_table(xd, dx)
        py = power_table(yn, dy)
        qyp = power_table(yd, dy)
        acc = 0
        for (i, j), c in self._n.items():
            acc += c * px[i] * qxp[dx - i] * py[j] * qyp[dy - j]
        return acc, self._d * qxp[dx] * qyp[dy]

    def compose(self, gx: "Poly2", gy: "Poly2") -> "Poly2":
        """Polynomial substitution self(gx, gy)."""
        if not self._n:
            return Poly2.zero()
        pow_x = power_table(gx, self.deg_x())
        pow_y = power_table(gy, self.deg_y())
        acc = Poly2.zero()
        for (i, j), c in self._n.items():
            acc = acc + pow_x[i] * pow_y[j] * Fraction(c, self._d)
        return acc

    def derivative(self, name: str) -> "Poly2":
        if name == "x":
            nums = {(i - 1, j): v * i for (i, j), v in self._n.items() if i}
        elif name == "y":
            nums = {(i, j - 1): v * j for (i, j), v in self._n.items() if j}
        else:
            raise ValueError(f"unknown variable {name!r}")
        return Poly2(nums, self._d)

    # -- printing --------------------------------------------------------

    def __str__(self) -> str:
        if not self._n:
            return "0"
        keys = sorted(self._n, key=lambda k: (k[0] + k[1], k[0]), reverse=True)
        parts: list[str] = []
        for k in keys:
            c = Fraction(self._n[k], self._d)
            mono = _format_monomial(k)
            mag = abs(c)
            if mono == "" or mag != 1:
                body = str(mag) if mono == "" else f"{mag}*{mono}"
            else:
                body = mono
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly2({self})"


def _format_monomial(k: Monomial) -> str:
    i, j = k
    pieces = []
    if i:
        pieces.append("x" if i == 1 else f"x^{i}")
    if j:
        pieces.append("y" if j == 1 else f"y^{j}")
    return "*".join(pieces)


def power_table(base, top: int) -> list:
    """[base**0, base**1, ..., base**top] for an int or a Poly2 base."""
    out = [base**0]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


def poly_sum(polys: Iterable[Poly2]) -> Poly2:
    """Exact sum of polynomials, read one at a time.

    The sum is one integer dict over a running common denominator d: a
    summand over e adds its numerators times d / e, and the dict is
    rescaled only when e brings a factor that d lacks.
    """
    it = iter(polys)
    first = next(it, None)
    if first is None:
        return Poly2.zero()
    out, d = dict(first._n), first._d
    get = out.get
    for p in it:
        e = p._d
        s = e // math.gcd(d, e)
        if s > 1:
            for k, v in out.items():
                out[k] = v * s
            d *= s
        m = d // e
        for k, v in p._n.items():
            out[k] = get(k, 0) + v * m
    return Poly2(out, d)


# -- substitution with rational arguments ---------------------------------

def compose_rational(p: Poly2, num_x: Poly2, den_x: Poly2,
                     num_y: Poly2, den_y: Poly2) -> tuple[Poly2, Poly2]:
    """Clear denominators in p(num_x/den_x, num_y/den_y).

    Returns an unreduced pair (N, D) with p(...) = N / D and
    D = den_x^deg_x(p) * den_y^deg_y(p).
    """
    if den_x.is_zero or den_y.is_zero:
        raise ZeroDenominatorError("substitution with zero denominator")
    if p.is_zero:
        return Poly2.zero(), Poly2.one()
    dx = p.deg_x()
    dy = p.deg_y()
    pnx = power_table(num_x, dx)
    pdx = power_table(den_x, dx)
    pny = power_table(num_y, dy)
    pdy = power_table(den_y, dy)
    num = poly_sum(pnx[i] * pdx[dx - i] * pny[j] * pdy[dy - j] * c
                   for (i, j), c in p.terms())
    return num, pdx[dx] * pdy[dy]


# -- univariate views ------------------------------------------------------

def y_coefficients(p: Poly2) -> dict[int, Poly2]:
    """Decompose p as sum over j of c_j(x) * y^j; returns {j: c_j}."""
    buckets: dict[int, dict[Monomial, int]] = {}
    for (i, j), v in p._n.items():
        buckets.setdefault(j, {})[(i, 0)] = v
    return {j: Poly2(nums, p._d) for j, nums in buckets.items()}


def from_y_coefficients(coeffs: Mapping[int, Poly2]) -> Poly2:
    # each c must be univariate in x; enforced by callers
    return poly_sum(c * Poly2({(0, j): 1}) for j, c in coeffs.items())


def restrict_y0(p: Poly2) -> Poly2:
    """p(x, 0) as a polynomial in x."""
    return Poly2({(i, 0): v for (i, j), v in p._n.items() if j == 0}, p._d)


def x_order(p: Poly2) -> int:
    """Order of vanishing at x = 0 of a univariate-in-x polynomial."""
    if p.is_zero:
        raise ValueError("zero polynomial has no finite vanishing order")
    if p.deg_y() > 0:
        raise ValueError("x_order expects a polynomial in x alone")
    return min(i for i, _ in p._n)


def divide_by_y(p: Poly2) -> Poly2:
    if any(j == 0 for _, j in p._n):
        raise ValueError("polynomial is not divisible by y")
    return Poly2({(i, j - 1): v for (i, j), v in p._n.items()}, p._d)


def _x_coeff_list(p: Poly2) -> list[Fraction]:
    """Dense coefficient list of a univariate-in-x polynomial."""
    if p.is_zero:
        return []
    if p.deg_y() > 0:
        raise ValueError("expected a polynomial in x alone")
    out = [Fraction(0)] * (p.deg_x() + 1)
    for (i, _), c in p.terms():
        out[i] = c
    return out


def _from_x_coeff_list(coeffs: list[Fraction]) -> Poly2:
    return Poly2.from_terms({(i, 0): c for i, c in enumerate(coeffs) if c})


def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    """The nonnegative rational square root of q, or None."""
    if q < 0:
        return None
    a, b = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if a * a != q.numerator or b * b != q.denominator:
        return None
    return Fraction(a, b)


def sqrt_x(D: Poly2) -> Optional[Poly2]:
    """S in Q[x] with S*S == D for a nonzero univariate-in-x D, or None.

    With deg D = 2m and S = s_0 + ... + s_m x^m, the coefficient of
    x^(m+k) in S^2 is 2 s_m s_k plus products of s_i with k < i < m, so
    the s_k follow from the top down; the final check makes it exact.
    """
    d = _x_coeff_list(D)
    if len(d) % 2 == 0:
        return None
    m = len(d) // 2
    top = _rational_sqrt(d[-1])
    if top is None:
        return None
    s = [Fraction(0)] * m + [top]
    for k in range(m - 1, -1, -1):
        acc = sum(s[i] * s[m + k - i] for i in range(k + 1, m))
        s[k] = (d[m + k] - acc) / (2 * top)
    S = _from_x_coeff_list(s)
    return S if S * S == D else None


def _divmod_x(ca: list[Fraction], cb: list[Fraction]):
    """Long division of dense coefficient lists over Q (lowest degree first).

    cb must end in a nonzero entry.  Returns (q, r) with a = q*b + r and
    r shorter than cb, trailing zeros stripped (the zero remainder is []).
    """
    nb = len(cb) - 1
    lead = cb[-1]
    rem = list(ca)
    q = [Fraction(0)] * max(len(ca) - nb, 0)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + nb] / lead
        if c:
            q[k] = c
            for t in range(nb):
                rem[k + t] -= c * cb[t]
    del rem[nb:]
    while rem and not rem[-1]:
        rem.pop()
    return q, rem


def _exact_div_x(a: Poly2, b: Poly2):
    """Exact quotient of univariate-in-x polynomials, or None."""
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    q, r = _divmod_x(_x_coeff_list(a), _x_coeff_list(b))
    return None if r else _from_x_coeff_list(q)


def exact_div(a: Poly2, b: Poly2):
    """Exact quotient a / b in Q[x, y], or None when b does not divide a.

    Runs coefficient-recursive division along y, falling back to plain
    univariate division when the divisor does not involve y.
    """
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return Poly2.zero()
    if b.is_constant():
        return a * (1 / b.constant_value())
    db = b.deg_y()
    if db == 0:
        out: dict[int, Poly2] = {}
        for j, cj in y_coefficients(a).items():
            q = _exact_div_x(cj, b)
            if q is None:
                return None
            out[j] = q
        return from_y_coefficients(out)
    work = a
    lead = y_coefficients(b)[db]
    quot: dict[int, Poly2] = {}
    while not work.is_zero:
        dw = work.deg_y()
        if dw < db:
            return None
        # lead lies in Q[x], so qk * lead == top exactly when qk exists,
        # and the subtraction clears the y^dw coefficient
        qk = exact_div(y_coefficients(work)[dw], lead)
        if qk is None:
            return None
        quot[dw - db] = qk
        work = work - from_y_coefficients({dw - db: qk}) * b
    return from_y_coefficients(quot)


def divides(b: Poly2, a: Poly2) -> bool:
    """True when b divides a exactly in Q[x, y]."""
    return exact_div(a, b) is not None


# -- gcd machinery ---------------------------------------------------------

def normalize_primitive(p: Poly2) -> Poly2:
    """Scale to coprime integer coefficients with positive leading one.

    Leading means largest in graded lexicographic order.  The zero
    polynomial normalizes to itself.
    """
    if p.is_zero:
        return p
    nums = p._n
    g = _content(nums.values())
    lead = nums[p.leading_monomial()]
    if lead < 0:
        g = -g
    return Poly2({k: v // g for k, v in nums.items()}, 1)


def _gcd_x(a: Poly2, b: Poly2) -> Poly2:
    """Euclidean gcd of univariate-in-x polynomials, primitive-normalized."""
    ca, cb = _x_coeff_list(a), _x_coeff_list(b)
    while cb:
        ca, cb = cb, _divmod_x(ca, cb)[1]
    return normalize_primitive(_from_x_coeff_list(ca))


def _content_y(p: Poly2) -> Poly2:
    """Gcd over Q[x] of the y-coefficients."""
    acc = Poly2.zero()
    for cj in y_coefficients(p).values():
        acc = _gcd_x(acc, cj) if not acc.is_zero else normalize_primitive(cj)
        if acc.is_constant():
            return Poly2.one()
    return acc


def _pseudo_rem_y(a: Poly2, b: Poly2) -> tuple[Poly2, int]:
    """Pseudo-remainder of a by b viewed in (Q[x])[y], with its step count.

    Returns (r, s) with r = lc_y(b)^s * a modulo b in (Q[x])[y] and
    deg_y r < deg_y b.
    """
    db = b.deg_y()
    lead_b = y_coefficients(b)[db]
    work = a
    steps = 0
    while not work.is_zero and work.deg_y() >= db:
        dw = work.deg_y()
        lead_w = y_coefficients(work)[dw]
        work = work * lead_b - from_y_coefficients({dw - db: lead_w}) * b
        steps += 1
    return work, steps


def poly_gcd(a: Poly2, b: Poly2) -> Poly2:
    """Gcd in Q[x, y], primitive-normalized with positive leading coefficient."""
    if a.is_zero:
        return normalize_primitive(b)
    if b.is_zero:
        return normalize_primitive(a)
    da, db = a.deg_y(), b.deg_y()
    if da == 0 and db == 0:
        return _gcd_x(a, b)
    if da == 0:
        return _gcd_x(a, _content_y(b))
    if db == 0:
        return _gcd_x(b, _content_y(a))
    cont_a, cont_b = _content_y(a), _content_y(b)
    cont = _gcd_x(cont_a, cont_b)
    pa = exact_div(a, cont_a)
    pb = exact_div(b, cont_b)
    if pa.deg_y() < pb.deg_y():
        pa, pb = pb, pa
    while True:
        r, _ = _pseudo_rem_y(pa, pb)
        if r.is_zero:
            g = exact_div(pb, _content_y(pb))
            break
        if r.deg_y() == 0:
            g = Poly2.one()
            break
        pa, pb = pb, exact_div(r, _content_y(r))
    return normalize_primitive(cont * g)


def squarefree_part(p: Poly2) -> Poly2:
    """Product of the distinct irreducible factors, via gcd with derivatives."""
    if p.is_zero or p.is_constant():
        return normalize_primitive(p)
    g = poly_gcd(p.derivative("x"), p.derivative("y"))
    g = poly_gcd(p, g)
    if g.is_constant():
        return normalize_primitive(p)
    return normalize_primitive(exact_div(p, g))


def is_constant_mod(P: Poly2, D: Poly2) -> bool:
    """Whether P is congruent to a rational constant modulo irreducible D."""
    if D.deg_y() == 0:
        # D lies in Q[x]: each y^j coefficient of P must vanish modulo D,
        # except the y^0 one, which may leave a constant
        cd = _x_coeff_list(D)
        return all(
            len(_divmod_x(_x_coeff_list(cj), cd)[1]) <= (1 if j == 0 else 0)
            for j, cj in y_coefficients(P).items()
        )
    rem, s = _pseudo_rem_y(P, D)
    if rem.is_zero:
        return True
    if rem.deg_y() > 0:
        return False
    q = exact_div(rem, y_coefficients(D)[D.deg_y()] ** s)
    return q is not None and q.is_constant()
