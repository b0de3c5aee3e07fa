"""Reference computations the benchmark checks costaskit's outputs against.

Nothing here imports costaskit: each check is written from the
definitions, so a bug in the package cannot hide in its own check.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=4)
def prime_flags(limit: int) -> np.ndarray:
    """Boolean array f with f[n] true iff n is prime, for 0 <= n <= limit."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return flags


def prime_count(limit: int, xs: list[int]) -> list[int]:
    """pi(x) for each x in xs, all at most limit."""
    cum = np.cumsum(prime_flags(limit))
    return [int(cum[x]) for x in xs]


def primes_upto(limit: int) -> list[int]:
    return [int(p) for p in np.flatnonzero(prime_flags(limit))]


def artin_partial(bound: int) -> float:
    """Product of 1 - 1/(q(q-1)) over primes q <= bound."""
    q = np.flatnonzero(prime_flags(bound)).astype(np.float64)
    return float(np.exp(np.sum(np.log1p(-1.0 / (q * (q - 1.0))))))


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, k) with q = p^k, or None."""
    if q < 2:
        return None
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def primitive_roots(p: int) -> list[int]:
    """All primitive roots modulo a prime p, ascending."""
    if p == 2:
        return [1]
    fs = _prime_factors(p - 1)
    return [g for g in range(2, p) if all(pow(g, (p - 1) // f, p) != 1 for f in fs)]


def is_primitive_root(a: int, p: int) -> bool:
    a %= p
    return a != 0 and all(pow(a, (p - 1) // f, p) != 1 for f in _prime_factors(p - 1))


def exponent(c: int, h: int, p: int) -> int:
    """Value of the exponent c + h (p - 1) / 2 at p."""
    return c + h * ((p - 1) // 2)


def trinomial_hit(p: int, e1: tuple[int, int], e2: tuple[int, int]) -> bool | None:
    """Whether some primitive a has a^e1 + a^e2 = 1 mod p; None if out of range."""
    a1, a2 = exponent(*e1, p), exponent(*e2, p)
    if not (1 <= a1 <= p - 2 and 1 <= a2 <= p - 2):
        return None
    return any((pow(a, a1, p) + pow(a, a2, p)) % p == 1 for a in primitive_roots(p))


def t4_census_hit(p: int) -> bool:
    """p = 1, 9 mod 10 with a primitive root g of g^2 = g + 1."""
    return p % 10 in (1, 9) and any(g * g % p == (g + 1) % p for g in primitive_roots(p))


def g4_census_hit(p: int) -> bool:
    """p = 1, 9 mod 20 with such a g for which 1 - g is primitive too."""
    return p % 20 in (1, 9) and any(
        g * g % p == (g + 1) % p and is_primitive_root(1 - g, p) for g in primitive_roots(p)
    )


def is_costas(perm: list[int]) -> bool:
    """Whether perm is a permutation of 1..n with distinct differences in each row."""
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        return False
    shifted = np.asarray(perm, dtype=np.int64) + n  # row-k differences land in 1..2n-1
    base = np.asarray(perm, dtype=np.int64)
    buf = np.empty(n, dtype=np.int64)
    for k in range(1, n):
        d = np.subtract(shifted[k:], base[:-k], out=buf[: n - k])
        if np.bincount(d, minlength=2 * n).max() > 1:
            return False
    return True


def first_collision(perm: list[int]) -> tuple[int, int, int] | None:
    """Least (k, x, y), 1-based and x < y, with f(x+k) - f(x) = f(y+k) - f(y)."""
    a = np.asarray(perm, dtype=np.int64)
    n = a.size
    for k in range(1, n):
        d = a[k:] - a[:-k]
        order = np.argsort(d, kind="stable")  # equal values stay in x order
        same = d[order[1:]] == d[order[:-1]]
        if same.any():
            xs = order[:-1][same]
            ys = order[1:][same]
            best = int(np.argmin(xs))  # an x's next equal value is its y
            return (k, int(xs[best]) + 1, int(ys[best]) + 1)
    return None


def sweep_sizes(qmax: int) -> dict:
    """Size lists for the methods whose applicability is plain arithmetic.

    Returns the expected w1, w2, l2, g2 lists, the prime powers skipped for
    degree above 6, and for t4, g3 and g4 the prime-field members.
    """
    pps = {q: prime_power(q) for q in range(2, qmax + 1)}
    pps = {q: pk for q, pk in pps.items() if pk is not None}
    in_cap = [q for q, (p, k) in pps.items() if k <= 6]
    primes = [q for q, (p, k) in pps.items() if k == 1]
    odd = [p for p in primes if p > 2]
    return {
        "w1": [p for p in primes if p >= 3],
        "w2": [p for p in primes if p >= 5],
        "l2": [q for q in in_cap if q >= 4],
        "g2": [q for q in in_cap if q >= 3],
        "skipped": [q for q, (p, k) in pps.items() if k > 6],
        "prime_powers": in_cap,
        "t4_primes": [
            p for p in odd
            if any((a * a + a) % p == 1 for a in primitive_roots(p))
        ],
        "g3_primes": [
            p for p in odd
            if any(is_primitive_root(1 - a, p) for a in primitive_roots(p))
        ],
        "g4_primes": [
            p for p in odd
            if any(a * a % p == (a + 1) % p and is_primitive_root(1 - a, p)
                   for a in primitive_roots(p))
        ],
    }
