"""Fibonacci primitive roots and the applicability tests they drive.

A Fibonacci primitive root mod p is a primitive root g with g^2 = g + 1.
Subtracting 1 from such a g yields a primitive root of x^2 + x - 1, which
is exactly the element the fourth Taylor variant needs, so existence of an
FPR decides whether that construction applies to a given prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .ff import (
    _PRIMITIVE_SCAN_CAP,
    FieldTooLarge,
    _is_primitive_root_unchecked,
    affine_map,
    factorize,
    field_tables,
    is_prime,
    make_field,
    prime_power,
    sqrt_mod_p,
)


class EvenPrime(ValueError):
    """Raised for p = 2, where x^2 - x - 1 has no roots."""


class NotAnFpr(ValueError):
    """Raised when a claimed Fibonacci primitive root is not one."""


class NotAPrimePower(ValueError):
    """Raised when an applicability query gets a size that is not p^k."""


class PreconditionNotMet(ValueError):
    """Raised when a conditional claim is queried outside its hypothesis."""


@dataclass(frozen=True)
class FprReport:
    """Everything the CLI reports about one prime."""

    p: int
    residue_class_ok: bool
    candidates: tuple[int, ...]
    fprs: tuple[int, ...]
    t4_root: Optional[int]
    g4_applicable: bool


@lru_cache(maxsize=4096)
def _fpr_data(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(roots of x^2 - x - 1 mod p, the primitive ones), both sorted."""
    if p == 2:
        raise EvenPrime("no Fibonacci primitive roots exist mod 2")
    if p < 3:
        raise ValueError(f"modulus {p} is not prime")
    roots = sqrt_mod_p(5 % p, p)  # proves p prime, with the same message
    if roots is None:
        return (), ()
    inv2 = pow(2, p - 2, p)
    candidates = tuple(sorted({(1 + r) * inv2 % p for r in roots}))
    fs = factorize(p - 1)
    fprs = tuple(g for g in candidates if _is_primitive_root_unchecked(g, p, fs))
    return candidates, fprs


def _g4_fprs(p: int) -> tuple[int, ...]:
    """FPRs g mod an odd prime p with 1 - g primitive: all iff p = 1 (mod 4). As
    g(1 - g) = -1, 1 - g = -1/g = g^(m-1) for p - 1 = 2m, and gcd(m - 1, 2m)
    = gcd(m - 1, 2) is 1 exactly when m is even."""
    return _fpr_data(p)[1] if p % 4 == 1 else ()


def fpr_candidates(p: int) -> list[int]:
    """Roots of x^2 = x + 1 mod p, primitive or not, in increasing order."""
    return list(_fpr_data(p)[0])


def fpr_set(p: int) -> list[int]:
    """All Fibonacci primitive roots mod p, in increasing order."""
    return list(_fpr_data(p)[1])


def fpr_report(p: int) -> FprReport:
    candidates, fprs = _fpr_data(p)
    return FprReport(
        p=p,
        residue_class_ok=p == 5 or p % 10 in (1, 9),
        candidates=candidates,
        fprs=fprs,
        t4_root=(min(fprs) - 1) % p if fprs else None,
        g4_applicable=bool(_g4_fprs(p)),
    )


def fpr_to_t4_root(p: int, g: int) -> int:
    """Map an FPR g to the primitive root g - 1 of x^2 + x - 1.

    The two are tied by (g - 1) * g = g^2 - g = 1, so g - 1 is the inverse
    of g and inherits its order.
    """
    if g not in _fpr_data(p)[1]:
        raise NotAnFpr(f"{g} is not a Fibonacci primitive root mod {p}")
    return (g - 1) % p


def _as_prime_power(q: int) -> tuple[int, int]:
    pk = prime_power(q)
    if pk is None:
        raise NotAPrimePower(f"{q} is not a prime power")
    return pk


def t4_admissible(q: int) -> bool:
    """True when q is not ruled out by the residue-class necessary condition."""
    p, k = _as_prime_power(q)
    if q in (4, 5, 9):
        return True
    return k == 1 and q % 10 in (1, 9)


def _table_roots(p: int, k: int, b: int) -> list[tuple[int, bool]]:
    """Primitive roots a of x^2 + b x - 1 in GF(p^k) for b = +-1, by ascending
    code, each with whether 1 - a is primitive too.

    Read from the power and log tables of the least primitive element g; the
    order cap is checked before make_field, whose modulus search is slow.
    """
    if p**k > _PRIMITIVE_SCAN_CAP:
        raise FieldTooLarge(f"scan over GF({p**k}) exceeds cap {_PRIMITIVE_SCAN_CAP}")
    f = make_field(p, k)
    exp, logs = field_tables(f)
    n = f.q - 1
    # a = g^i is a root iff g^(2i) = 1 - b g^i, and primitive iff gcd(i, n) = 1.
    # Neither a nor 1 - a is 0, as the constant term is -1 and b = +-1.
    i = np.flatnonzero(exp[2 * np.arange(n) % n] == affine_map(f, exp, -b, 1))
    roots = exp[i[np.gcd(i, n) == 1]]
    co = np.gcd(logs[affine_map(f, roots, -1, 1)], n) == 1
    return sorted(zip(roots.tolist(), co.tolist()))


def t4_witness(q: int) -> Optional[int]:
    """Least a with a^2 + a = 1 and a primitive, or None.

    Over GF(p) these a are g - 1 = 1/g for the FPRs g, so the least is the
    least FPR minus 1.
    """
    p, k = _as_prime_power(q)
    if k == 1 and p > 2:
        return next((g - 1 for g in _fpr_data(p)[1]), None)
    return next((a for a, _ in _table_roots(p, k, 1)), None)


def t4_applicable(q: int) -> bool:
    """True when GF(q) has a primitive root of x^2 + x - 1."""
    return t4_witness(q) is not None


def g4_witness(q: int) -> Optional[int]:
    """Least a with a^2 = a + 1 and both a and 1 - a primitive, or None.

    Over GF(p) these a are the FPRs when p = 1 (mod 4) and none otherwise.
    """
    p, k = _as_prime_power(q)
    if k == 1 and p > 2:
        return next(iter(_g4_fprs(p)), None)
    return next((a for a, co in _table_roots(p, k, -1) if co), None)


def g4_applicable(q: int) -> bool:
    """True when GF(q) admits the doubly-periodic corner construction.

    The witness search agrees with the residue-class characterization
    (q in {4, 5, 9}, or q prime, 1 or 9 mod 20, with an FPR); the tests
    hold the two against each other.
    """
    return g4_witness(q) is not None


def phong_check(p: int) -> bool:
    """Whether exactly one candidate root is primitive, for p = 2q + 1.

    Only defined for primes p = 1, 9 (mod 10) whose (p - 1) / 2 is also
    prime; outside that hypothesis PreconditionNotMet is raised.
    """
    if not is_prime(p):
        raise PreconditionNotMet(f"{p} is not prime")
    if p % 10 not in (1, 9):
        raise PreconditionNotMet(f"{p} is not 1 or 9 mod 10")
    if not is_prime((p - 1) // 2):
        raise PreconditionNotMet(f"({p} - 1)/2 is not prime")
    return len(_fpr_data(p)[1]) == 1
