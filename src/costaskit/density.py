"""Prime censuses for construction applicability and primitive trinomials.

The counting side of the library: how often the fourth-variant
constructions apply among primes up to x, compared against the densities
predicted from Artin's constant, plus a brute-force verifier for the
families of trinomials that provably stop having primitive solutions.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, partial
from multiprocessing import Pool
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .ff import (
    SIEVE_CAP,
    LimitTooLarge,
    is_primitive_root,
    least_primitive,
    make_field,
    power_table,
    primes_in_range,
    primitive_exponents,
    sqrt_mod_p,
)
from .fpr import fpr_set, g4_applicable

_CENSUS_CAP = 10**7
_TRINOMIAL_CAP = 10**6
_VERIFY_CAP = 10**5
_I_MAX_CAP = 10
_ARTIN_BOUND = 10**6
_SIEVE_BLOCK = 1 << 18
_CHUNK = 1 << 14


class ExponentOutOfRange(ValueError):
    """Raised when an exponent expression leaves [1, p - 2] at this prime."""


@dataclass(frozen=True)
class ExpExpr:
    """Exponent of the form c + h * (p - 1) / 2, evaluated per prime."""

    c: int
    h: int = 0

    def evaluate(self, p: int) -> int:
        return self.c + self.h * ((p - 1) // 2)

    def in_range(self, p: int) -> bool:
        return 1 <= self.evaluate(p) <= p - 2


ExprLike = Union[ExpExpr, tuple, int]


def _as_expr(e: ExprLike) -> ExpExpr:
    if isinstance(e, ExpExpr):
        return e
    if isinstance(e, int):
        return ExpExpr(e)
    return ExpExpr(*e)


@dataclass(frozen=True)
class CensusRow:
    x: int
    count: int
    pi_x: int
    ratio: float
    predicted: float


@dataclass(frozen=True)
class TrinomialCensus:
    rows: tuple[CensusRow, ...]
    skipped: int


@dataclass(frozen=True)
class PredictedConstants:
    artin: float
    t4_density: float
    g4_density: float
    ratio: float


@dataclass(frozen=True)
class ZeroDensityReport:
    limit: int
    i_max: int
    thresholds: dict
    violations: tuple
    exceptions: tuple
    skipped: dict


def _prime_blocks(limit: int) -> Iterator[np.ndarray]:
    # The cap is checked here, before the first block, not at the last one.
    if limit > SIEVE_CAP:
        raise LimitTooLarge(f"sieve limit {limit} above cap {SIEVE_CAP}")
    los = range(2, limit + 1, _SIEVE_BLOCK)
    return (primes_in_range(lo, min(lo + _SIEVE_BLOCK, limit + 1)) for lo in los)


def prime_sieve(limit: int) -> Iterator[int]:
    """All primes p <= limit, in order, as a lazy iterator."""
    return (p for block in _prime_blocks(limit) for p in block.tolist())


@lru_cache(maxsize=None)
def artin_constant(prime_bound: int) -> float:
    """Partial Artin product over primes q <= prime_bound.

    Each factor is 1 - 1/(q(q - 1)); the sequence decreases toward the
    full constant 0.3739558136... as the bound grows. The product is taken
    as exp of a float64 sum of log1p terms.
    """
    if prime_bound < 2:
        raise ValueError("prime_bound must be at least 2")
    total = 0.0
    for block in _prime_blocks(prime_bound):
        q = block.astype(np.float64)
        total += np.log1p(-1.0 / (q * (q - 1.0))).sum()
    return float(np.exp(total))


@lru_cache(maxsize=1)
def predicted_constants() -> PredictedConstants:
    """Density headings for the applicability censuses.

    The T4 census should approach (27/38) A and the G4 census (9/38) A,
    so their quotient is 3 regardless of A.
    """
    a = artin_constant(_ARTIN_BOUND)
    return PredictedConstants(
        artin=a,
        t4_density=27 * a / 38,
        g4_density=9 * a / 38,
        ratio=3.0,
    )


def _t4_census_predicate(p: int) -> bool:
    return p % 10 in (1, 9) and bool(fpr_set(p))


def _g4_census_predicate(p: int) -> bool:
    return p % 20 in (1, 9) and g4_applicable(p)


def _normalize_checkpoints(checkpoints: Optional[Iterable[int]], limit: int) -> list[int]:
    if checkpoints is None:
        cps = []
        x = 10
        while x < limit:
            cps.append(x)
            x *= 10
        cps.append(limit)
        return cps
    cps = sorted({int(c) for c in checkpoints})
    if not cps:
        raise ValueError("need at least one checkpoint")
    if cps[0] < 2:
        raise ValueError("checkpoints start at 2")
    if cps[-1] > limit:
        raise ValueError(f"checkpoint {cps[-1]} beyond limit {limit}")
    if cps[-1] != limit:
        cps.append(limit)
    return cps


def _census_chunk(predicate, lo: int, hi: int, cps: tuple[int, ...]):
    hits = [0] * len(cps)
    pis = [0] * len(cps)
    skipped = 0
    for p in primes_in_range(lo, hi).tolist():
        b = bisect_left(cps, p)
        pis[b] += 1
        r = predicate(p)
        if r is None:
            skipped += 1
        elif r:
            hits[b] += 1
    return hits, pis, skipped


def _run_census(predicate, limit, checkpoints, workers, predicted, cap):
    if limit < 2:
        raise ValueError("census limit must be at least 2")
    if limit > cap:
        raise LimitTooLarge(f"census limit {limit} above cap {cap}")
    cps = tuple(_normalize_checkpoints(checkpoints, limit))
    tasks = [
        (predicate, lo, min(lo + _CHUNK, limit + 1), cps)
        for lo in range(2, limit + 1, _CHUNK)
    ]
    if workers > 1 and len(tasks) > 1:
        with Pool(processes=workers) as pool:
            parts = pool.starmap(_census_chunk, tasks)
    else:
        parts = [_census_chunk(*t) for t in tasks]

    hits = [0] * len(cps)
    pis = [0] * len(cps)
    skipped = 0
    for h, q, s in parts:
        skipped += s
        for b in range(len(cps)):
            hits[b] += h[b]
            pis[b] += q[b]

    rows = []
    ch = cpi = 0
    for b, x in enumerate(cps):
        ch += hits[b]
        cpi += pis[b]
        ratio = ch / cpi if cpi else 0.0
        rows.append(CensusRow(x=x, count=ch, pi_x=cpi, ratio=ratio, predicted=predicted))
    return rows, skipped


def census_t4(limit: int, checkpoints: Optional[Iterable[int]] = None, workers: int = 1) -> list[CensusRow]:
    """Count primes p <= x in the right residue classes with an FPR."""
    rows, _ = _run_census(
        _t4_census_predicate, limit, checkpoints, workers,
        predicted_constants().t4_density, _CENSUS_CAP,
    )
    return rows


def census_g4(limit: int, checkpoints: Optional[Iterable[int]] = None, workers: int = 1) -> list[CensusRow]:
    """Count primes p <= x where the doubly-periodic corner variant applies."""
    rows, _ = _run_census(
        _g4_census_predicate, limit, checkpoints, workers,
        predicted_constants().g4_density, _CENSUS_CAP,
    )
    return rows


def trinomial_witnesses(p: int, e1: ExprLike, e2: ExprLike) -> list[int]:
    """Primitive a mod p with a^e1 + a^e2 = 1, sorted, by exhaustive scan."""
    x1, x2 = _as_expr(e1), _as_expr(e2)
    if p > _TRINOMIAL_CAP:
        raise LimitTooLarge(f"prime {p} above cap {_TRINOMIAL_CAP}")
    field = make_field(p)
    if not (x1.in_range(p) and x2.in_range(p)):
        raise ExponentOutOfRange(f"exponents {x1}, {x2} leave [1, {p - 2}] at p={p}")
    n = p - 1
    a, b = x1.evaluate(p), x2.evaluate(p)
    table = power_table(field, least_primitive(field))
    js = primitive_exponents(n)
    vals = (table[js * a % n] + table[js * b % n]) % p
    return sorted(int(w) for w in table[js[vals == 1]])


def exists_primitive_trinomial(p: int, e1: ExprLike, e2: ExprLike) -> bool:
    return bool(trinomial_witnesses(p, e1, e2))


@lru_cache(maxsize=64)
def _folded_coeffs(e1: ExpExpr, e2: ExpExpr) -> tuple[tuple[int, int], ...]:
    """Coefficients of the polynomial a primitive witness must satisfy.

    For primitive a, a^((p-1)/2) is -1, so each term folds to a signed
    power of a with a p-independent exponent. Exponents are shifted to be
    nonnegative, which is harmless since a is a unit.
    """
    coeffs: dict[int, int] = {}
    for e in (e1, e2):
        s = -1 if e.h % 2 else 1
        coeffs[e.c] = coeffs.get(e.c, 0) + s
    coeffs[0] = coeffs.get(0, 0) - 1
    coeffs = {k: v for k, v in coeffs.items() if v}
    if not coeffs:
        return ()
    shift = -min(coeffs)
    if shift < 0:
        shift = 0
    return tuple(sorted((k + shift, v) for k, v in coeffs.items()))


def _fast_exists(p: int, coeffs: tuple[tuple[int, int], ...]) -> Optional[bool]:
    """Existence via the folded polynomial when its degree is at most 2."""
    if coeffs and max(k for k, _ in coeffs) > 2:
        return None
    c = [0, 0, 0]
    for k, v in coeffs:
        c[k] = v % p
    c0, c1, c2 = c
    if c2 == 0 and c1 == 0:
        return c0 == 0
    if c2 == 0:
        root = -c0 * pow(c1, p - 2, p) % p
        return root != 0 and is_primitive_root(root, p)
    disc = (c1 * c1 - 4 * c0 * c2) % p
    rts = sqrt_mod_p(disc, p)
    if rts is None:
        return False
    inv2a = pow(2 * c2 % p, p - 2, p)
    for r in rts:
        root = (-c1 + r) * inv2a % p
        if root != 0 and is_primitive_root(root, p):
            return True
    return False


def _trinomial_predicate(p: int, e1: ExpExpr, e2: ExpExpr) -> Optional[bool]:
    # None marks an out-of-range prime, which the census reports as skipped.
    if not (e1.in_range(p) and e2.in_range(p)):
        return None
    fast = _fast_exists(p, _folded_coeffs(e1, e2))
    if fast is not None:
        return fast
    return bool(trinomial_witnesses(p, e1, e2))


def trinomial_predicted(e1: ExprLike, e2: ExprLike) -> float:
    """Density heading for a trinomial census, 0.0 when none is known.

    Identical exponents reduce to 2a^e = 1, the Artin situation, and the
    family that folds to a^2 - a - 1 tracks the T4 census.
    """
    x1, x2 = _as_expr(e1), _as_expr(e2)
    if x1 == x2:
        return predicted_constants().artin
    if _folded_coeffs(x1, x2) == ((0, -1), (1, -1), (2, 1)):
        return predicted_constants().t4_density
    return 0.0


def trinomial_census(
    limit: int,
    e1: ExprLike,
    e2: ExprLike,
    checkpoints: Optional[Iterable[int]] = None,
    workers: int = 1,
) -> TrinomialCensus:
    """Count primes p <= x with a primitive solution of a^e1 + a^e2 = 1.

    Primes where either exponent leaves [1, p - 2] are skipped and
    reported in the skipped field rather than wrapped into range. Families
    that do not fold to degree at most 2 fall back to the exhaustive scan
    per prime, which is impractical near the cap.
    """
    x1, x2 = _as_expr(e1), _as_expr(e2)
    predicate = partial(_trinomial_predicate, e1=x1, e2=x2)
    rows, skipped = _run_census(
        predicate, limit, checkpoints, workers,
        trinomial_predicted(x1, x2), _TRINOMIAL_CAP,
    )
    return TrinomialCensus(rows=tuple(rows), skipped=skipped)


def _claim_families(i: int):
    # (name, e1, e2, largest prime allowed to have a witness)
    return (
        ("a", ExpExpr(i, 1), ExpExpr(2 * i, 1), 3 * i),
        ("b", ExpExpr(i, 0), ExpExpr(2 * i, 1), 6 * i + 1),
        ("c", ExpExpr(i, 0), ExpExpr(-i, 2), 6 * i + 1),
    )


def verify_zero_density_claims(limit: int, i_max: int = 5) -> ZeroDensityReport:
    """Scan three trinomial families whose witnesses provably stop.

    Family a folds to an order-3 condition on a^i and its exponents only
    fit in range for p >= 4i + 3, so it can never have a witness. Families
    b and c fold to an order-6 condition, which forces p <= 6i + 1, and
    the bound is attained whenever 6i + 1 is prime. Witnesses at or below
    the threshold are recorded as exceptions; any beyond it would be a
    violation of the claim.
    """
    if limit < 2:
        raise ValueError("limit must be at least 2")
    if limit > _VERIFY_CAP:
        raise LimitTooLarge(f"limit {limit} above cap {_VERIFY_CAP}")
    if not 1 <= i_max <= _I_MAX_CAP:
        raise ValueError(f"i_max must be in 1..{_I_MAX_CAP}")

    violations = []
    exceptions = []
    skipped = {"a": 0, "b": 0, "c": 0}
    for p in prime_sieve(limit):
        for i in range(1, i_max + 1):
            for name, e1, e2, threshold in _claim_families(i):
                if not (e1.in_range(p) and e2.in_range(p)):
                    skipped[name] += 1
                    continue
                found = trinomial_witnesses(p, e1, e2)
                if not found:
                    continue
                entry = (name, p, i, found[0])
                if p > threshold:
                    violations.append(entry)
                else:
                    exceptions.append(entry)

    thresholds = {
        name: tuple(_claim_families(i)[idx][3] for i in range(1, i_max + 1))
        for idx, name in enumerate(("a", "b", "c"))
    }
    return ZeroDensityReport(
        limit=limit,
        i_max=i_max,
        thresholds=thresholds,
        violations=tuple(violations),
        exceptions=tuple(exceptions),
        skipped=skipped,
    )
