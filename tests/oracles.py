"""Slow reference implementations, written straight from definitions.

Everything here is deliberately independent of the package internals:
different algorithms, no shared helpers. Tests compare package output
against these on small inputs and freeze the values they certify.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations


def naive_is_costas(perm: list[int]) -> bool:
    """Check the Costas property by enumerating all difference vectors."""
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        return False
    vectors = set()
    for i in range(n):
        for j in range(i + 1, n):
            v = (j - i, perm[j] - perm[i])
            if v in vectors:
                return False
            vectors.add(v)
    return True


def naive_first_collision(perm: list[int]) -> tuple[int, int, int] | None:
    """Lexicographically first (k, x, y), 1-based x < y, with equal entries in
    row k of the difference table, scanning every row in full."""
    n = len(perm)
    for k in range(1, n):
        first_x: dict[int, int] = {}
        pairs = []
        for x in range(1, n - k + 1):
            d = perm[x + k - 1] - perm[x - 1]
            if d in first_x:
                pairs.append((first_x[d], x))
            else:
                first_x[d] = x
        if pairs:
            x, y = min(pairs)
            return (k, x, y)
    return None


def naive_costas_count(n: int) -> int:
    return sum(1 for p in permutations(range(1, n + 1)) if naive_is_costas(list(p)))


def simple_sieve(limit: int) -> list[int]:
    """All primes < limit by the plain sieve of Eratosthenes."""
    if limit < 3:
        return []
    flags = [True] * limit
    flags[0] = flags[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            for j in range(i * i, limit, i):
                flags[j] = False
    return [i for i in range(limit) if flags[i]]


def artin_product(bound: int) -> Fraction:
    """Exact partial Artin product of 1 - 1/(q(q - 1)) over primes q <= bound."""
    prod = Fraction(1)
    for q in simple_sieve(bound + 1):
        prod *= 1 - Fraction(1, q * (q - 1))
    return prod


def brute_order(a: int, p: int) -> int:
    """Multiplicative order of a mod p by repeated multiplication."""
    assert a % p != 0
    x = a % p
    t = 1
    while x != 1:
        x = x * a % p
        t += 1
    return t


def brute_primitive_roots(p: int) -> list[int]:
    return [a for a in range(1, p) if brute_order(a, p) == p - 1]


def brute_fprs(p: int) -> list[int]:
    """Primitive roots g mod p with g*g = g + 1: the (at most two) roots of
    g^2 - g - 1 by exhaustive scan, then their order by repeated multiplication."""
    roots = [g for g in range(1, p) if (g * g - g - 1) % p == 0]
    return [g for g in roots if brute_order(g, p) == p - 1]


def brute_trinomial_witnesses(p: int, a: int, b: int) -> list[int]:
    """Primitive roots g mod p with g^a + g^b = 1, checked one residue at a time."""
    return [g for g in brute_primitive_roots(p) if (pow(g, a, p) + pow(g, b, p)) % p == 1]


def brute_sqrts(a: int, p: int) -> list[int]:
    return [x for x in range(p) if x * x % p == a % p]


def _poly_mul_mod(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def smallest_irreducible_bruteforce(p: int, k: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree k over GF(p), by building the
    set of reducible monic polynomials from products of lower-degree monics.

    Coefficient tuples are LSB first; the code order matches base-p digit
    order of the non-leading coefficients.
    """
    monics_by_degree: dict[int, list[list[int]]] = {}
    for d in range(1, k):
        monics_by_degree[d] = []
        for t in range(p**d):
            coeffs = []
            tt = t
            for _ in range(d):
                coeffs.append(tt % p)
                tt //= p
            monics_by_degree[d].append(coeffs + [1])

    reducible = set()
    for d1 in range(1, k // 2 + 1):
        d2 = k - d1
        for f in monics_by_degree[d1]:
            for g in monics_by_degree[d2]:
                reducible.add(tuple(_poly_mul_mod(f, g, p)))

    for t in range(p**k):
        coeffs = []
        tt = t
        for _ in range(k):
            coeffs.append(tt % p)
            tt //= p
        cand = tuple(coeffs + [1])
        if cand not in reducible:
            return cand
    raise AssertionError("irreducible polynomials of every degree exist")
