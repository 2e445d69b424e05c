"""Integer primality, factorization and valuations."""

from __future__ import annotations

import math
from typing import Optional

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
]

# Strong-pseudoprime bases proving primality for all n < 3317044064679887385961981
_MR_BASES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
_MR_PROVEN_BOUND = 3317044064679887385961981


def _strip(n: int, q: int) -> tuple[int, int]:
    """(v, n / q^v) for the exponent v of q in n.  n / q is searched for
    q^2, so v takes O(log v) divisions of a shrinking n."""
    m, r = divmod(n, q)
    if r:
        return 0, n
    v, m = _strip(m, q * q)
    m2, r = divmod(m, q)
    return (2 * v + 1, m) if r else (2 * v + 2, m2)


def valuation(n: int, q: int) -> int:
    """Exponent of the prime q in the nonzero integer n."""
    return _strip(n, q)[0]


def _strong_probable_prime(n: int, base: int) -> bool:
    if base % n == 0:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below 3.3e24; fixed extended bases beyond."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    bases = _MR_BASES
    if n >= _MR_PROVEN_BOUND:
        # fixed procedure: the proven set plus 52 deterministic extra bases
        bases = _MR_BASES + [41 + 2 * k for k in range(52)]
    return all(_strong_probable_prime(n, b) for b in bases)


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        y, c, m = (seed * 2) % n or 1, (seed * 2 + 1) % n or 1, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        seed += 1


def _perfect_power(m: int) -> Optional[tuple[int, int]]:
    """(r, k) with m = r^k and k >= 2, or None.  r = floor(m^(1/k)) is
    found by Newton's method from 2^ceil(bits/k) >= m^(1/k)."""
    for k in range(2, m.bit_length()):
        r = 1 << -(-m.bit_length() // k)
        while (s := ((k - 1) * r + m // r ** (k - 1)) // k) < r:
            r = s
        if r**k == m:
            return r, k
    return None


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # (cofactor, multiplicity); Pollard-Brent takes ~sqrt(r) steps on r^k
    stack = [(n, 1)]
    while stack:
        m, e = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + e
            continue
        power = _perfect_power(m)
        if power is not None:
            stack.append((power[0], e * power[1]))
            continue
        d = _pollard_brent(m)
        stack.append((d, e))
        stack.append((m // d, e))
    return dict(sorted(out.items()))
