"""Slow reference implementations, written straight from definitions.

Everything here is deliberately independent of the package internals:
different algorithms, no shared helpers. Field elements are integer codes
as in the package, but their arithmetic here is scalar polynomial
arithmetic reduced by `field.modulus`. Tests compare package output
against these on small inputs and freeze the values they certify. The
last two sections are the exception: helpers only the tests use, moved
out of the package, the table scan for the t4 and g4 witnesses that the
subfield argument replaced, the element-by-element parameter search that
find_spec's table lookups replaced, and the list-based permutation
validator that the numpy one replaced, kept as their reference.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from itertools import permutations
from math import gcd, isqrt
from typing import Iterator, Optional

import numpy as np

from costaskit.constructions import METHODS, ConstructionSpec
from costaskit.costas import _TABLE_CAP, COSTAS_CAP, BlockNotClosed, NotAPermutation
from costaskit.ff import (
    _PRIMITIVE_SCAN_CAP,
    FieldDescriptor,
    FieldTooLarge,
    LimitTooLarge,
    affine_map,
    field_tables,
    least_primitive,
    make_field,
    power_table,
    prime_power,
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


def trial_division_pairs(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (index, prime factor) pair of a 1-D int64 array n >= 1, grouped by prime.

    Batched trial division with the primes up to sqrt(max n), the loop
    `ff._factor_pairs` ran before its divisibility broadcast. What is left
    of an entry afterwards is 1 or a single prime, which makes its last pair.
    """
    rem = n.copy()
    idx_parts, q_parts = [], []
    live = np.arange(n.size)
    for q in simple_sieve(isqrt(int(n.max(initial=0))) + 1):
        # A cofactor below q^2 with no prime factor below q is 1 or prime.
        live = live[rem[live] >= q * q]
        if not live.size:
            break
        hit = live[rem[live] % q == 0]
        if not hit.size:
            continue
        idx_parts.append(hit)
        q_parts.append(np.full(hit.size, q, dtype=np.int64))
        sub = rem[hit] // q
        again = sub % q == 0
        while again.any():
            sub[again] //= q
            again = sub % q == 0
        rem[hit] = sub
    big = np.flatnonzero(rem > 1)
    return np.concatenate([*idx_parts, big]), np.concatenate([*q_parts, rem[big]])


def artin_product(bound: int) -> Fraction:
    """Exact partial Artin product of 1 - 1/(q(q - 1)) over primes q <= bound."""
    prod = Fraction(1)
    for q in simple_sieve(bound + 1):
        prod *= 1 - Fraction(1, q * (q - 1))
    return prod


def jacobi(d: int, n: int) -> int:
    """Jacobi symbol (d/n) for odd n >= 1: the product of Euler's criterion
    d^((p-1)/2) mod p, read as -1, 0 or 1, over the prime factors p of n."""
    assert n % 2 == 1
    symbol = 1
    for p in simple_sieve(n + 1)[1:]:
        while n % p == 0:
            n //= p
            e = pow(d, (p - 1) // 2, p)
            symbol *= -1 if e == p - 1 else e
    return symbol


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


def primitive_roots_by_table(p: int) -> np.ndarray:
    """The primitive roots mod an odd prime p, as an int64 array: h^j for the
    j in [1, p - 1) coprime to p - 1, where h is the least a with
    a^((p-1)/r) != 1 by `pow` for every prime r | p - 1, and the table of
    h^0 .. h^(p-2) doubles by appending itself times h^m, m its length."""
    factors = _prime_factors(p - 1)
    h = next(a for a in range(2, p) if all(pow(a, (p - 1) // r, p) != 1 for r in factors))
    table = np.ones(1, dtype=np.int64)
    while table.size < p - 1:
        table = np.concatenate([table, table * pow(h, table.size, p) % p])
    j = np.arange(1, p - 1)
    return table[j[np.gcd(j, p - 1) == 1]]


def brute_fold_primitive_roots(p: int, coeffs: tuple[tuple[int, int], ...]) -> list[int]:
    """Primitive roots g mod p with sum(v * g^k) = 0 over the (k, v) pairs: the
    roots by exhaustive evaluation, then their order by repeated multiplication."""
    roots = [g for g in range(1, p) if sum(v * pow(g, k, p) for k, v in coeffs) % p == 0]
    return [g for g in roots if brute_order(g, p) == p - 1]


def brute_stride_roots(p: int, g: int, coeffs: tuple[tuple[int, int], ...]) -> dict[int, bool]:
    """For a fold G(x^g) with exponents in {0, g, 2g}: each root y != 0 of G
    mod p, by exhaustive evaluation, and whether y = a^g for a primitive a,
    that is, whether y has order (p - 1)/gcd(g, p - 1) by repeated
    multiplication."""
    order = (p - 1) // gcd(g, p - 1)
    roots = [y for y in range(1, p) if sum(v * y ** (k // g) for k, v in coeffs) % p == 0]
    return {y: brute_order(y, p) == order for y in roots}


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


def _poly_rem(a: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of a modulo the monic m by long division, as deg m coefficients."""
    d = len(m) - 1
    rem = list(a) + [0] * max(0, d - len(a))
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        for j in range(d + 1):
            rem[i - d + j] = (rem[i - d + j] - c * m[j]) % p
    return rem[:d]


def poly_gcd_reference(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over GF(p) by Euclid's remainders, with the power of x dividing it
    removed; [] when a and b are both 0. Coefficients constant term first."""

    def trim(u: list[int]) -> list[int]:
        u = [c % p for c in u]
        while u and not u[-1]:
            u.pop()
        return u

    a, b = trim(a), trim(b)
    while b:
        # a mod b by long division, scaled so the divisor is monic
        inv = pow(b[-1], p - 2, p)
        a = trim(_poly_rem(a, [c * inv % p for c in b], p))
        a, b = b, a
    if not a:
        return []
    while not a[0]:
        a.pop(0)
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _monics(p: int, d: int) -> Iterator[list[int]]:
    """Every monic polynomial of degree d over GF(p), in code order."""
    return ([t // p**i % p for i in range(d)] + [1] for t in range(p**d))


def smallest_irreducible_bruteforce(p: int, k: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree k over GF(p): the first candidate
    in code order that no monic polynomial of degree 1..k/2 divides.

    Coefficient tuples are LSB first; the code order matches base-p digit
    order of the non-leading coefficients.
    """
    divisors = [m for d in range(1, k // 2 + 1) for m in _monics(p, d)]
    for cand in _monics(p, k):
        if all(any(_poly_rem(cand, m, p)) for m in divisors):
            return tuple(cand)
    raise AssertionError("irreducible polynomials of every degree exist")


# Arithmetic on element codes: the base-p digits of a code are the
# coefficients of a polynomial of degree < k, constant term first.


def _digits(field: FieldDescriptor, c: int) -> list[int]:
    return [c // field.p**i % field.p for i in range(field.k)]


def _from_digits(field: FieldDescriptor, digits: list[int]) -> int:
    return sum(d % field.p * field.p**i for i, d in enumerate(digits))


def field_add(field: FieldDescriptor, a: int, b: int) -> int:
    return _from_digits(field, [x + y for x, y in zip(_digits(field, a), _digits(field, b))])


def field_sub(field: FieldDescriptor, a: int, b: int) -> int:
    return _from_digits(field, [x - y for x, y in zip(_digits(field, a), _digits(field, b))])


def field_mul(field: FieldDescriptor, a: int, b: int) -> int:
    prod = _poly_mul_mod(_digits(field, a), _digits(field, b), field.p)
    # GF(p) reduces by x, which keeps the constant term.
    return _from_digits(field, _poly_rem(prod, list(field.modulus or (0, 1)), field.p))


def field_pow(field: FieldDescriptor, a: int, e: int) -> int:
    """a^e by square-and-multiply; a negative e needs a != 0."""
    if e < 0:
        e %= field.q - 1
    out = 1
    while e:
        if e & 1:
            out = field_mul(field, out, a)
        a = field_mul(field, a, a)
        e >>= 1
    return out


def multiplicative_order(field: FieldDescriptor, a: int) -> int:
    """Order of the nonzero code a in the unit group, by repeated multiplication."""
    assert a != 0
    x, t = a, 1
    while x != 1:
        x = field_mul(field, x, a)
        t += 1
    return t


def _prime_factors(n: int) -> list[int]:
    out, r = [], 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    return out + [n] if n > 1 else out


def is_primitive(field: FieldDescriptor, a: int) -> bool:
    """a != 0 and a^((q-1)/r) != 1 for every prime r dividing q - 1."""
    n = field.q - 1
    return a != 0 and all(field_pow(field, a, n // r) != 1 for r in _prime_factors(n))


def least_primitive_bruteforce(field: FieldDescriptor) -> int:
    return next(a for a in range(1, field.q) if is_primitive(field, a))


def _quadratic_roots(field: FieldDescriptor, b: int, c: int) -> list[int]:
    """Codes of the roots of x^2 + b x + c for integers b and c, by trying every element."""
    b, c = b % field.p, c % field.p
    return [
        x for x in range(field.q)
        if field_add(field, field_mul(field, x, field_add(field, x, b)), c) == 0
    ]


# Built on the package: a helper moved out of it, the former witness scan and
# the former find_spec search.


def primitive_elements(field: FieldDescriptor) -> list[int]:
    """Codes of all primitive elements of the field, ascending."""
    if field.q > _PRIMITIVE_SCAN_CAP:
        raise FieldTooLarge(f"primitive element scan capped at order {_PRIMITIVE_SCAN_CAP}")
    exp = power_table(field, least_primitive(field))
    return np.sort(exp[primitive_exponents(field.q - 1)]).tolist()


def _table_roots(field: FieldDescriptor, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The primitive roots a of x^2 + b x - 1 (b = +-1), ascending, and
    whether 1 - a is primitive for each, read from the power and log tables:
    g^i is primitive iff gcd(i, q - 1) = 1, and a root iff g^(2i) = 1 - b g^i."""
    exp, _ = field_tables(field)
    n = field.q - 1
    i = primitive_exponents(n)
    primitive = np.zeros(field.q, dtype=bool)
    primitive[exp[i]] = True
    i = i[exp[2 * i % n] == affine_map(field, exp[i], -b, 1)]
    codes = np.sort(exp[i])
    return codes, primitive[affine_map(field, codes, -1, 1)]


def reference_witnesses(q: int) -> tuple[Optional[int], Optional[int]]:
    """The t4 and g4 witnesses of GF(q) by the table scan that fpr ran
    before the subfield argument replaced it for non-prime q."""
    field = make_field(*prime_power(q))
    t4, _ = _table_roots(field, 1)
    g4, co = _table_roots(field, -1)
    return (int(t4[0]) if t4.size else None), (int(g4[co.argmax()]) if co.any() else None)


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
        for a in range(1, q):
            b = field_sub(field, 1, a)
            if is_primitive(field, a) and is_primitive(field, b):
                return ConstructionSpec(method, field, a, b)
        return None
    if method == "t4":
        for a in _quadratic_roots(field, 1, -1):
            if is_primitive(field, a):
                return ConstructionSpec("t4", field, a)
        return None
    # g4: alpha^2 = alpha + 1 with alpha and 1 - alpha both primitive.
    for a in _quadratic_roots(field, -1, -1):
        b = field_sub(field, 1, a)
        if is_primitive(field, a) and is_primitive(field, b):
            return ConstructionSpec("g4", field, a, b)
    return None


# The list-based permutation validator the Costas functions used before the
# numpy one, and the functions as they were written on top of it.


def reference_validated(perm) -> list[int]:
    seq = list(perm)
    for v in seq:
        if not isinstance(v, numbers.Integral) or isinstance(v, bool):
            raise NotAPermutation(f"non-integer entry {v!r}")
    seq = [int(v) for v in seq]
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
    seq = list(perm)
    if len(seq) > _TABLE_CAP:
        raise LimitTooLarge(f"difference table capped at n = {_TABLE_CAP}, got n = {len(seq)}")
    seq = reference_validated(seq)
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
