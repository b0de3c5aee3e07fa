"""Fibonacci primitive roots and the applicability tests they drive.

A Fibonacci primitive root mod p is a primitive root g with g^2 = g + 1.
Subtracting 1 from such a g yields a primitive root of x^2 + x - 1, which
is exactly the element the fourth Taylor variant needs, so existence of an
FPR decides whether that construction applies to a given prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterator, Optional

import numpy as np

from .density import _FIB_COEFFS, _closed_forms, _fprs_are_g4, _prime_blocks
from .ff import _is_primitive_root_unchecked, factorize, is_prime, prime_power, sqrt_mod_p


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


def fpr_candidates(p: int) -> list[int]:
    """Roots of x^2 = x + 1 mod p, primitive or not, in increasing order."""
    return list(_fpr_data(p)[0])


def fpr_set(p: int) -> list[int]:
    """All Fibonacci primitive roots mod p, in increasing order."""
    return list(_fpr_data(p)[1])


def _report(p: int, candidates: tuple[int, ...], fprs: tuple[int, ...]) -> FprReport:
    # The one place a report's rules are written; both tuples are ascending.
    return FprReport(
        p=p,
        residue_class_ok=p == 5 or p % 10 in (1, 9),
        candidates=candidates,
        fprs=fprs,
        t4_root=(fprs[0] - 1) % p if fprs else None,
        g4_applicable=bool(fprs) and _fprs_are_g4(p),
    )


def fpr_report(p: int) -> FprReport:
    """The report for one odd prime p, by scalar arithmetic, which also answers p >= 2^31."""
    return _report(p, *_fpr_data(p))


def _segment_reports(p: np.ndarray) -> Iterator[FprReport]:
    """Reports for the odd primes of one sieve segment, from one `_closed_forms`
    table of x^2 - x - 1 whose root pairs are put in ascending order, flags along."""
    roots, primitive = _closed_forms(p, _FIB_COEFFS)
    swap = roots[0] > roots[1]
    roots[:, swap], primitive[:, swap] = roots[::-1, swap], primitive[::-1, swap]
    for q, r0, r1, f0, f1 in zip(p.tolist(), *roots.tolist(), *primitive.tolist()):
        candidates = (r0, r1)[: (r0 > 0) + (r1 > r0)]
        yield _report(q, candidates, candidates if f0 and f1 else (r0,) if f0 else (r1,) if f1 else ())


def fpr_reports(lo: int, hi: int) -> Iterator[FprReport]:
    """Reports for the odd primes lo <= p <= hi, in order, as `fpr_report` gives them.

    One closed-form table of x^2 - x - 1 per sieve segment gives both roots
    at every prime and which are primitive; the candidates are the distinct
    nonzero roots, so p = 5 has the one candidate 3. Segments are sieved as
    the reports are read, and the sieve cap is checked now.
    """
    return chain.from_iterable(map(_segment_reports, _prime_blocks(hi, max(lo, 3))))


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


# The least witnesses over the two non-prime fields where any exist, as
# (t4, g4) codes in the canonical coding; see t4_witness.
_SUBFIELD_WITNESSES = {4: (2, 2), 9: (4, 5)}


def t4_witness(q: int) -> Optional[int]:
    """Least a with a^2 + a = 1 and a primitive, or None.

    Over GF(p) these a are g - 1 = 1/g for the FPRs g, so the least is the
    least FPR minus 1. Any other q is 2 or p^k with k >= 2, and a root of
    x^2 +- x - 1 lies in GF(p^2): for k >= 3 its order divides
    p^2 - 1 < q - 1, and at k = 2 a root outside GF(p) has norm -1, so its
    order divides 2(p + 1), a multiple of p^2 - 1 only for p <= 3. So only
    GF(4) and GF(9) have witnesses.
    """
    p, k = _as_prime_power(q)
    if k == 1 and p > 2:
        return next((g - 1 for g in _fpr_data(p)[1]), None)
    return _SUBFIELD_WITNESSES.get(q, (None, None))[0]


def t4_applicable(q: int) -> bool:
    """True when GF(q) has a primitive root of x^2 + x - 1."""
    return t4_witness(q) is not None


def g4_witness(q: int) -> Optional[int]:
    """Least a with a^2 = a + 1 and both a and 1 - a primitive, or None.

    Over GF(p) these a are the FPRs when p = 1 (mod 4) and none otherwise.
    Over any other q, only GF(4) and GF(9) have one, by the subfield
    argument of `t4_witness`.
    """
    p, k = _as_prime_power(q)
    if k == 1 and p > 2:
        return next(iter(_fpr_data(p)[1]), None) if _fprs_are_g4(p) else None
    return _SUBFIELD_WITNESSES.get(q, (None, None))[1]


def g4_applicable(q: int) -> bool:
    """True when GF(q) admits the doubly-periodic corner construction.

    That is q in {4, 5, 9}, or q prime, 1 or 9 mod 20, with an FPR; the
    tests hold the witness against a scan of every field's tables.
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
