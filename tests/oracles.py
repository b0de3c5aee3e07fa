"""Slow reference implementations, written straight from definitions.

Everything here is deliberately independent of the package internals:
different algorithms, no shared helpers. Tests compare package output
against these on small inputs and freeze the values they certify. The
last two sections are the exception: helpers only the tests use, moved
out of the package, the FieldElement parameter search that find_spec's
table lookups replaced, and the list-based permutation validator that the
numpy one replaced, kept as their reference.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Optional

import numpy as np

from costaskit.constructions import METHODS, ConstructionSpec
from costaskit.costas import COSTAS_CAP, BlockNotClosed, NotAPermutation
from costaskit.ff import (
    _PRIMITIVE_SCAN_CAP,
    FieldDescriptor,
    FieldElement,
    FieldTooLarge,
    LimitTooLarge,
    ZeroElement,
    is_primitive,
    least_primitive,
    power_table,
    primitive_exponents,
)


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


# Built on the package: helpers moved out of it and the former find_spec search.


def multiplicative_order(a: FieldElement) -> int:
    """Order of a in the unit group of its field."""
    if a.rep == 0:
        raise ZeroElement("zero has no multiplicative order")
    t = a.field.q - 1
    for f, _ in a.field.q1_factors:
        while t % f == 0 and a ** (t // f) == a.field.one:
            t //= f
    return t


def primitive_elements(field: FieldDescriptor) -> list[FieldElement]:
    """All primitive elements of the field, ascending by code."""
    if field.q > _PRIMITIVE_SCAN_CAP:
        raise FieldTooLarge(f"primitive element scan capped at order {_PRIMITIVE_SCAN_CAP}")
    exp = power_table(field, least_primitive(field))
    reps = np.sort(exp[primitive_exponents(field.q - 1)])
    return [FieldElement(field, r) for r in reps.tolist()]


def _quadratic_roots(field: FieldDescriptor, b: int, c: int) -> list[int]:
    """Codes of the roots of x^2 + b x + c, by trying every element."""
    return [x.rep for x in field.elements() if x * x + b * x + c == field.zero]


def reference_find_spec(method: str, field: FieldDescriptor) -> Optional[ConstructionSpec]:
    """The element-by-element parameter search that find_spec replaced. The
    g4 branch inlines the former fpr.g4_witness search instead of calling it,
    and the roots of each quadratic are found by trying every element."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    p, k, q = field.p, field.k, field.q
    if method == "w1":
        if k != 1 or p < 3:
            return None
        return ConstructionSpec("w1", field, least_primitive(field))
    if method == "w2":
        if k != 1 or p < 5:
            return None
        return ConstructionSpec("w2", field, least_primitive(field))
    if method == "l2":
        if q < 4:
            return None
        return ConstructionSpec("l2", field, least_primitive(field))
    if method == "g2":
        if q < 3:
            return None
        a = least_primitive(field)
        return ConstructionSpec("g2", field, a, a)
    if method in ("g3", "g4c2"):
        if method == "g3" and q < 3:
            return None
        if method == "g4c2" and (p != 2 or k < 3):
            return None
        for rep in range(1, q):
            a = FieldElement(field, rep)
            bb = 1 - a
            if bb.rep != 0 and is_primitive(a) and is_primitive(bb):
                return ConstructionSpec(method, field, a.rep, bb.rep)
        return None
    if method == "t4":
        for a in _quadratic_roots(field, 1, -1):
            if is_primitive(field.element(a)):
                return ConstructionSpec("t4", field, a)
        return None
    # g4: alpha^2 = alpha + 1 with alpha and 1 - alpha both primitive.
    for a in _quadratic_roots(field, -1, -1):
        e = field.element(a)
        if is_primitive(e) and is_primitive(1 - e):
            return ConstructionSpec("g4", field, a, (1 - e).rep)
    return None


# The list-based permutation validator the Costas functions used before the
# numpy one, and the functions as they were written on top of it.


def reference_validated(perm) -> list[int]:
    seq = list(perm)
    for v in seq:
        if not isinstance(v, int) or isinstance(v, bool):
            raise NotAPermutation(f"non-integer entry {v!r}")
    if sorted(seq) != list(range(1, len(seq) + 1)):
        raise NotAPermutation(f"expected a permutation of 1..{len(seq)}")
    return seq


def reference_checked_array(perm) -> np.ndarray:
    seq = list(perm)
    if len(seq) > COSTAS_CAP:
        raise LimitTooLarge(f"Costas check capped at n = {COSTAS_CAP}, got n = {len(seq)}")
    return np.asarray(reference_validated(seq), dtype=np.int64)


def reference_is_costas(perm) -> bool:
    return naive_is_costas(reference_checked_array(perm).tolist())


def reference_first_collision(perm) -> tuple[int, int, int] | None:
    return naive_first_collision(reference_checked_array(perm).tolist())


def reference_difference_table(perm) -> list[list[int]]:
    seq = reference_validated(perm)
    n = len(seq)
    return [[seq[x + k] - seq[x] for x in range(n - k)] for k in range(1, n)]


def reference_remove_leading(perm, t: int) -> list[int]:
    seq = reference_validated(perm)
    n = len(seq)
    if not 0 <= t <= n:
        raise ValueError(f"block size {t} outside 0..{n}")
    for x in range(1, n + 1):
        if (x <= t) != (seq[x - 1] <= t):
            raise BlockNotClosed(f"column {x} breaks the {t} x {t} corner block")
    return [v - t for v in seq[t:]]
