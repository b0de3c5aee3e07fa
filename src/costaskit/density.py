"""Prime censuses for construction applicability and primitive trinomials.

The counting side of the library: how often the fourth-variant
constructions apply among primes up to x, compared against the densities
predicted from Artin's constant, plus a brute-force verifier for the
families of trinomials that provably stop having primitive solutions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache, partial
from multiprocessing import Pool
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .ff import (
    SIEVE_CAP,
    LimitTooLarge,
    _least_root,
    _make_field_cached,
    make_field,
    pow_mod_array,
    power_table,
    primes_in_range,
    primitive_exponents,
    primitive_root_mask,
    sqrt_mod_array,
)

_TRINOMIAL_CAP = 10**6
_VERIFY_CAP = 10**5
_I_MAX_CAP = 10
_ARTIN_BOUND = 10**6
# Primes are sieved, and censuses split into tasks, in segments this wide.
_CHUNK = 1 << 17
# x^2 - x - 1, whose primitive roots are the Fibonacci primitive roots.
_FIB_COEFFS = ((0, -1), (1, -1), (2, 1))


class ExponentOutOfRange(ValueError):
    """Raised when an exponent expression leaves [1, p - 2] at this prime."""


@dataclass(frozen=True)
class ExpExpr:
    """Exponent of the form c + h * (p - 1) / 2, evaluated per prime."""

    c: int
    h: int = 0

    def evaluate(self, p):
        return self.c + self.h * ((p - 1) // 2)

    def in_range(self, p):
        """Whether the exponent lies in [1, p - 2]; element-wise for an array p."""
        v = self.evaluate(p)
        return (1 <= v) & (v <= p - 2)


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


def _segments(limit: int, start: int = 2) -> list[tuple[int, int]]:
    """Bounds [lo, hi) of the _CHUNK-wide segments that cover start..limit."""
    return [(lo, min(lo + _CHUNK, limit + 1)) for lo in range(max(start, 2), limit + 1, _CHUNK)]


def _prime_blocks(limit: int, start: int = 2) -> Iterator[np.ndarray]:
    # The cap is checked here, before the first block, not at the last one.
    if limit > SIEVE_CAP:
        raise LimitTooLarge(f"sieve limit {limit} above cap {SIEVE_CAP}")
    return (primes_in_range(lo, hi) for lo, hi in _segments(limit, start))


def prime_sieve(limit: int, start: int = 2) -> Iterator[int]:
    """All primes start <= p <= limit, in order, as a lazy iterator."""
    return (p for block in _prime_blocks(limit, start) for p in block.tolist())


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


def _fib_census_predicate(primes: np.ndarray, modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """Primes that are 1 or 9 mod the modulus and have a Fibonacci primitive root.

    Modulus 10 is the t4 census. Modulus 20 is the g4 census, which is the
    same question: both classes 1 and 9 mod 20 are 1 mod 4, where every
    FPR is a g4 witness (the proof is at fpr._g4_fprs).
    """
    r = primes % modulus
    gate = (r == 1) | (r == 9)
    hit = np.zeros(primes.shape, dtype=bool)
    hit[gate] = _fast_exists(primes[gate], _FIB_COEFFS)
    return hit, np.zeros_like(hit)


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


def _census_chunk(predicate, lo: int, hi: int, cps: np.ndarray):
    """Per-checkpoint hit and prime counts, and the skipped count, for [lo, hi).

    The predicate takes the segment's primes as one array and returns a hit
    mask and a skipped mask; a prime counts in the first checkpoint >= p.
    """
    primes = primes_in_range(lo, hi)
    hit, skip = predicate(primes)
    slot = np.searchsorted(cps, primes)
    hits = np.bincount(slot[hit], minlength=cps.size)
    pis = np.bincount(slot, minlength=cps.size)
    return hits, pis, int(skip.sum())


def _pool_size(workers: int, tasks: int) -> int:
    """Processes worth starting: no more than requested, CPUs, or tasks."""
    return min(workers, os.cpu_count() or 1, tasks)


def _run_census(predicate, limit, checkpoints, workers, predicted, cap):
    if limit < 2:
        raise ValueError("census limit must be at least 2")
    if limit > cap:
        raise LimitTooLarge(f"census limit {limit} above cap {cap}")
    cps = np.array(_normalize_checkpoints(checkpoints, limit), dtype=np.int64)
    tasks = [(predicate, lo, hi, cps) for lo, hi in _segments(limit)]
    processes = _pool_size(workers, len(tasks))
    if processes > 1:
        with Pool(processes=processes) as pool:
            parts = pool.starmap(_census_chunk, tasks)
    else:
        parts = [_census_chunk(*t) for t in tasks]

    hits = np.cumsum(sum(h for h, _, _ in parts)).tolist()
    pis = np.cumsum(sum(q for _, q, _ in parts)).tolist()
    skipped = sum(s for _, _, s in parts)
    rows = [
        CensusRow(x=x, count=ch, pi_x=cpi, ratio=ch / cpi if cpi else 0.0, predicted=predicted)
        for x, ch, cpi in zip(cps.tolist(), hits, pis)
    ]
    return rows, skipped


def census_t4(limit: int, checkpoints: Optional[Iterable[int]] = None, workers: int = 1) -> list[CensusRow]:
    """Count primes p <= x in the right residue classes with an FPR."""
    rows, _ = _run_census(
        partial(_fib_census_predicate, modulus=10), limit, checkpoints, workers,
        predicted_constants().t4_density, SIEVE_CAP,
    )
    return rows


def census_g4(limit: int, checkpoints: Optional[Iterable[int]] = None, workers: int = 1) -> list[CensusRow]:
    """Count primes p <= x where the doubly-periodic corner variant applies."""
    rows, _ = _run_census(
        partial(_fib_census_predicate, modulus=20), limit, checkpoints, workers,
        predicted_constants().g4_density, SIEVE_CAP,
    )
    return rows


def _witness_rows(p: int, exps: list[tuple[int, int]]) -> list[np.ndarray]:
    """Primitive a mod p with a^e1 + a^e2 = 1, ascending, for each pair (e1, e2).

    An exhaustive scan over the primitive elements alpha^j (gcd(j, p - 1) = 1)
    of one power table. The caller has proved p prime and every exponent in
    [1, p - 2]; nothing is checked again. With m = (p - 1)/2, every unit j
    is odd, so j(e + m) = je + m mod p - 1 and the row of powers for e + m is
    p minus the row for e: each exponent is gathered once, as e mod m, and
    pairs share rows. Powers lie in [1, p - 1], so x + y = 1 mod p exactly
    when x + y = p + 1; with one row flipped that reads y - x = 1, with both
    flipped x + y = p - 1.
    """
    if not exps:
        return []
    field = _make_field_cached(p, 1)
    table = power_table(field, _least_root(p, field.q1_factors))
    n, m = p - 1, (p - 1) // 2
    js = primitive_exponents(n)
    rows: dict[int, np.ndarray] = {}

    def powers(e: int) -> tuple[np.ndarray, bool]:
        k = e % m
        if k not in rows:
            rows[k] = table[js * k % n]
        return rows[k], e >= m

    out = []
    for a, b in exps:
        (x, fx), (y, fy) = powers(a), powers(b)
        if fx == fy:
            hit = x + y == (p - 1 if fx else p + 1)
        else:
            hit = (y - x if fx else x - y) == 1
        out.append(np.sort(table[js[hit]]))
    return out


def trinomial_witnesses(p: int, e1: ExprLike, e2: ExprLike) -> list[int]:
    """Primitive a mod p with a^e1 + a^e2 = 1, sorted, by exhaustive scan.

    Checks the 1e6 cap, that p is prime and that both exponents lie in
    [1, p - 2], then scans every primitive element with `_witness_rows`.
    """
    x1, x2 = _as_expr(e1), _as_expr(e2)
    if p > _TRINOMIAL_CAP:
        raise LimitTooLarge(f"prime {p} above cap {_TRINOMIAL_CAP}")
    make_field(p)
    if not (x1.in_range(p) and x2.in_range(p)):
        raise ExponentOutOfRange(f"exponents {x1}, {x2} leave [1, {p - 2}] at p={p}")
    return _witness_rows(p, [(x1.evaluate(p), x2.evaluate(p))])[0].tolist()


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


def _fast_exists(primes, coeffs: tuple[tuple[int, int], ...]) -> Optional[np.ndarray]:
    """Mask of odd primes where the folded polynomial has a primitive root.

    None when the degree is above 2. A polynomial that vanishes mod p is
    satisfied by every primitive root. Otherwise the candidate roots are
    -c0/c1 when c2 = 0 mod p and (-c1 +- sqrt(disc))/(2 c2) otherwise;
    a root 0 is never primitive.
    """
    if coeffs and max(k for k, _ in coeffs) > 2:
        return None
    c0, c1, c2 = (dict(coeffs).get(k, 0) for k in range(3))
    p = np.asarray(primes, dtype=np.int64).reshape(-1)
    quad = c2 % p != 0
    lin = ~quad & (c1 % p != 0)
    hit = ~quad & ~lin & (c0 % p == 0)

    r = np.zeros_like(p)
    r[quad] = sqrt_mod_array((c1 * c1 - 4 * c0 * c2) % p[quad], p[quad])
    solve = np.flatnonzero((quad | lin) & (r >= 0))
    ps, r, sq = p[solve], r[solve], quad[solve]
    num = np.where(sq, -c1, -c0) % ps
    inv = pow_mod_array(np.where(sq, 2 * c2, c1) % ps, ps - 2, ps)
    roots = np.stack(((num + r) % ps, (num - r) % ps)) * inv % ps
    hit[solve] = primitive_root_mask(roots, ps).any(axis=0)
    return hit.reshape(np.shape(primes))


def _trinomial_predicate(primes: np.ndarray, e1: ExpExpr, e2: ExpExpr) -> tuple[np.ndarray, np.ndarray]:
    """Hit and skipped masks; a prime where an exponent leaves [1, p - 2] is skipped."""
    # Object dtype keeps the exponent arithmetic exact for any size of c and h.
    big = primes.astype(object)
    skip = ~(e1.in_range(big) & e2.in_range(big)).astype(bool)
    live = np.flatnonzero(~skip)
    hit = np.zeros(primes.shape, dtype=bool)
    fast = _fast_exists(primes[live], _folded_coeffs(e1, e2))
    if fast is None:
        # Degree above 2: the exhaustive scan, O(p) per prime anyway.
        fast = [
            _witness_rows(p, [(e1.evaluate(p), e2.evaluate(p))])[0].size > 0
            for p in primes[live].tolist()
        ]
    hit[live] = fast
    return hit, skip


def trinomial_predicted(e1: ExprLike, e2: ExprLike) -> float:
    """Density heading for a trinomial census, 0.0 when none is known.

    Identical exponents reduce to 2a^e = 1, the Artin situation, and the
    family that folds to a^2 - a - 1 tracks the T4 census.
    """
    x1, x2 = _as_expr(e1), _as_expr(e2)
    if x1 == x2:
        return predicted_constants().artin
    if _folded_coeffs(x1, x2) == _FIB_COEFFS:
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
    violation of the claim. Each sieved prime is scanned once, exhaustively
    over its primitive elements, for all of its in-range (i, family) pairs;
    an entry records the least witness.
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
    families = [(i, *f) for i in range(1, i_max + 1) for f in _claim_families(i)]
    for p in prime_sieve(limit):
        live, exps = [], []
        for i, name, e1, e2, threshold in families:
            if e1.in_range(p) and e2.in_range(p):
                live.append((name, i, threshold))
                exps.append((e1.evaluate(p), e2.evaluate(p)))
            else:
                skipped[name] += 1
        for (name, i, threshold), found in zip(live, _witness_rows(p, exps)):
            if found.size:
                entry = (name, p, i, int(found[0]))
                (violations if p > threshold else exceptions).append(entry)

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
