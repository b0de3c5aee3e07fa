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

from .ff import (
    FieldDescriptor,
    FieldTooLarge,
    _is_primitive_root_unchecked,
    factorize,
    is_prime,
    is_primitive,
    make_field,
    prime_power,
    quadratic_roots,
    sqrt_mod_p,
)

_SCAN_CAP = 10**6


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


def _require_odd_prime(p: int) -> None:
    if p == 2:
        raise EvenPrime("no Fibonacci primitive roots exist mod 2")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


@lru_cache(maxsize=4096)
def _fpr_data(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(roots of x^2 - x - 1 mod p, the primitive ones), both sorted."""
    _require_odd_prime(p)
    roots = sqrt_mod_p(5 % p, p)
    if roots is None:
        return (), ()
    inv2 = pow(2, p - 2, p)
    candidates = tuple(sorted({(1 + r) * inv2 % p for r in roots}))
    fs = factorize(p - 1)
    fprs = tuple(g for g in candidates if _is_primitive_root_unchecked(g, p, fs))
    return candidates, fprs


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


def _scan_field(p: int, k: int) -> FieldDescriptor:
    # Checked before make_field, whose modulus search is slow for large q.
    if p**k > _SCAN_CAP:
        raise FieldTooLarge(f"scan over GF({p**k}) exceeds cap {_SCAN_CAP}")
    return make_field(p, k)


def _t4_witness_ext(p: int, k: int) -> Optional[int]:
    """Least rep of a primitive a with a^2 + a = 1 in GF(p^k)."""
    f = _scan_field(p, k)
    return next((a for a in quadratic_roots(f, 1, -1) if is_primitive(f.element(a))), None)


def t4_applicable(q: int) -> bool:
    """True when GF(q) has a primitive root of x^2 + x - 1."""
    p, k = _as_prime_power(q)
    if k == 1:
        if p == 2:
            return False
        return bool(_fpr_data(p)[1])
    return _t4_witness_ext(p, k) is not None


def g4_witness(q: int) -> Optional[int]:
    """Least a with a^2 = a + 1 and both a and 1 - a primitive, or None."""
    p, k = _as_prime_power(q)
    if k > 1:
        f = _scan_field(p, k)
        # 1 is never a root, so 1 - a is a unit.
        for a in quadratic_roots(f, -1, -1):
            e = f.element(a)
            if is_primitive(e) and is_primitive(1 - e):
                return a
        return None
    if p == 2:
        return None
    fs = factorize(p - 1)
    for g in _fpr_data(p)[1]:
        if _is_primitive_root_unchecked(1 - g, p, fs):
            return g
    return None


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
