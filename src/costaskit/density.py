"""Prime censuses for construction applicability and primitive trinomials.

The counting side of the library: how often the fourth-variant
constructions apply among primes up to x, compared against the densities
predicted from Artin's constant, plus a brute-force verifier for the
families of trinomials that provably stop having primitive solutions.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .costas import _fork_map
from .ff import (
    SIEVE_CAP,
    CompositeCharacteristic,
    FieldDescriptor,
    LimitTooLarge,
    _factor_pairs,
    _half_test,
    _least_root,
    _monic,
    _odd_tests,
    _poly_gcd,
    _poly_mulmod,
    _poly_powmod,
    factorize,
    is_prime,
    power_table,
    primes_in_range,
    primitive_exponents,
    sqrt_small,
)

_TRINOMIAL_CAP = 10**6
_VERIFY_CAP = 10**5
_I_MAX_CAP = 10
_ARTIN_BOUND = 10**6
# Primes are sieved, and censuses split into tasks, in segments this wide.
_CHUNK = 1 << 17
# `_root_route` sends p to the fold-root kernel when _ROOT_COST d^2 log2 p < p,
# the constant fitted to the kernel's measured crossovers with the scan.
_ROOT_COST = 0.7
# x^2 - x - 1, whose primitive roots are the Fibonacci primitive roots.
_FIB_COEFFS = ((0, -1), (1, -1), (2, 1))
# 2y = +-1 and y = +-2, the folds whose primitive roots are +-2 or +-1/2
_ARTIN_FOLDS = (((0, -1), (1, 2)), ((0, 1), (1, 2)), ((0, -2), (1, 1)), ((0, 2), (1, 1)))
# Closed-form hit masks of one fold, packed by np.packbits over the odd
# primes of one census segment [lo, hi), keyed by (coeffs, lo, hi), one per
# lo: at most the 763 segments of a census at SIEVE_CAP.
_SEGMENT_MASKS: dict = {}
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


class ExponentOutOfRange(ValueError):
    """Raised when an exponent expression leaves [1, p - 2] at this prime."""


@dataclass(frozen=True)
class ExpExpr:
    """Exponent of the form c + h * (p - 1) / 2, evaluated per prime."""

    c: int
    h: int = 0

    def __post_init__(self):
        # Python ints, bool refused: the bounds are Python-int arithmetic
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (self.c, self.h)):
            raise ValueError(f"exponent expression {self} needs int c and h")

    def evaluate(self, p):
        return self.c + self.h * ((p - 1) // 2)

    @cached_property
    def _half_bounds(self) -> tuple[int, int]:
        # With t = (p - 1)/2 the two bounds read h t >= 1 - c and
        # (2 - h) t >= 1 + c, so the admissible t form one interval.
        lo, hi = 0, _I64_MAX
        for a, b in ((self.h, 1 - self.c), (2 - self.h, 1 + self.c)):
            if a > 0:
                lo = max(lo, -(-b // a))
            elif a < 0:
                hi = min(hi, b // a)
            elif b > 0:
                lo, hi = 1, 0
        return min(lo, _I64_MAX), max(hi, _I64_MIN)

    def in_range(self, p):
        """Whether the exponent lies in [1, p - 2] at a prime p; element-wise for an int64 array.

        The interval of t = (p - 1)/2 where it does is found once in Python
        ints and clamped to int64, so any c and h compare exactly against t.
        """
        lo, hi = self._half_bounds
        t = (p - 1) // 2
        return (lo <= t) & (t <= hi)


ExprLike = Union[ExpExpr, tuple, int]


def _as_expr(e: ExprLike) -> ExpExpr:
    """e as an ExpExpr: one already, an int c, or a tuple (c,) or (c, h)."""
    if isinstance(e, ExpExpr):
        return e
    if isinstance(e, tuple) and 1 <= len(e) <= 2:
        return ExpExpr(*e)
    return ExpExpr(e)  # ExpExpr refuses anything but an int here


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


def _fprs_are_g4(p):
    """Whether the FPRs g mod an odd prime p have 1 - g primitive: all do iff
    p = 1 (mod 4), and none otherwise; element-wise for an int64 array. As
    g(1 - g) = -1, 1 - g = -1/g = g^(m-1) for p - 1 = 2m, and
    gcd(m - 1, 2m) = gcd(m - 1, 2) is 1 exactly when m is even."""
    return p % 4 == 1


def _fib_census_predicate(primes: np.ndarray, lo: int, hi: int, g4: bool) -> tuple[np.ndarray, np.ndarray]:
    """Primes p != 5 with a Fibonacci primitive root, and for g4 with p = 1 (mod 4).

    The closed form of x^2 - x - 1 hits only where 5 is a square mod p,
    so for p != 5 the t4 classes 1 and 9 mod 10 follow from its table,
    and the g4 classes 1 and 9 mod 20 from that and `_fprs_are_g4`. t4
    decides every odd prime and keeps the segment's mask; a g4 census
    without a kept mask decides only its p = 1 (mod 4) primes.
    """
    gate = _fprs_are_g4(primes) if g4 else None
    hit = _segment_hits(primes, lo, hi, _FIB_COEFFS, gate) & (primes != 5)
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


def _run_census(predicate, limit, checkpoints, workers, predicted, cap):
    """Census rows and the skipped count from one `_fork_map` row per sieve segment.

    A row is the segment's skipped, hit and prime totals. The segment that
    holds a checkpoint x writes its hits and primes p <= x into x's slot of
    one shared array, and the totals of the segments before it are added.
    """
    if limit < 2:
        raise ValueError("census limit must be at least 2")
    if limit > cap:
        raise LimitTooLarge(f"census limit {limit} above cap {cap}")
    cps = np.array(_normalize_checkpoints(checkpoints, limit), dtype=np.int64)
    segments = _segments(limit)
    slots = np.frombuffer(mmap.mmap(-1, 16 * cps.size), dtype=np.int64).reshape(2, cps.size)

    def segment_row(i: int) -> tuple[int, int, int]:
        lo, hi = segments[i]
        primes = primes_in_range(lo, hi)
        hit, skip = predicate(primes, lo, hi)
        at = np.flatnonzero(hit)
        a, b = np.searchsorted(cps, (lo, hi))
        upto = np.searchsorted(primes, cps[a:b], side="right")
        slots[:, a:b] = np.searchsorted(at, upto), upto
        return skip.sum(), at.size, primes.size

    totals = np.array(list(_fork_map(segment_row, len(segments), 3, workers)))
    segment = np.searchsorted([lo for lo, _ in segments], cps, side="right") - 1
    hits, pis = ((np.cumsum(totals, axis=0) - totals)[segment, 1:].T + slots).tolist()
    rows = [
        CensusRow(x=x, count=ch, pi_x=cpi, ratio=ch / cpi if cpi else 0.0, predicted=predicted)
        for x, ch, cpi in zip(cps.tolist(), hits, pis)
    ]
    return rows, int(totals[:, 0].sum())


def census_t4(limit: int, checkpoints: Optional[Iterable[int]] = None, workers: int = 1) -> list[CensusRow]:
    """Count primes p <= x in the right residue classes with an FPR."""
    rows, _ = _run_census(
        partial(_fib_census_predicate, g4=False), limit, checkpoints, workers,
        predicted_constants().t4_density, SIEVE_CAP,
    )
    return rows


def census_g4(limit: int, checkpoints: Optional[Iterable[int]] = None, workers: int = 1) -> list[CensusRow]:
    """Count primes p <= x where the doubly-periodic corner variant applies."""
    rows, _ = _run_census(
        partial(_fib_census_predicate, g4=True), limit, checkpoints, workers,
        predicted_constants().g4_density, SIEVE_CAP,
    )
    return rows


def _witness_rows(p: int, e1: int, e2: int) -> np.ndarray:
    """Primitive a mod p with a^e1 + a^e2 = 1, ascending.

    An exhaustive scan over the primitive elements alpha^j (gcd(j, p - 1) = 1)
    of one power table, O(p): `trinomial_witnesses`, the census primes that
    neither the closed form nor the fold-root kernel decides, and the
    verifier's hit primes, where it finds the least witness. The caller
    has proved p prime and both exponents in [1, p - 2]; nothing is checked
    again. Powers lie in [1, p - 1], so x + y = 1 mod p exactly when
    x + y = p + 1. Below the 1e6 cap, j * e < 1e12 is exact in int64.
    """
    # Built here, not by make_field, whose cache keeps every field it is asked for.
    field = FieldDescriptor(p, 1, p, None, factorize(p - 1))
    table = power_table(field, _least_root(p, field.q1_factors))
    n = p - 1
    js = primitive_exponents(n)
    hit = table[js * e1 % n] + table[js * e2 % n] == p + 1
    return np.sort(table[js[hit]])


def trinomial_witnesses(p: int, e1: ExprLike, e2: ExprLike) -> list[int]:
    """Primitive a mod p with a^e1 + a^e2 = 1, sorted, by exhaustive scan.

    Checks the 1e6 cap, that p is prime and that both exponents lie in
    [1, p - 2], then scans every primitive element with `_witness_rows`.
    """
    x1, x2 = _as_expr(e1), _as_expr(e2)
    if p > _TRINOMIAL_CAP:
        raise LimitTooLarge(f"prime {p} above cap {_TRINOMIAL_CAP}")
    if not is_prime(p):
        raise CompositeCharacteristic(f"characteristic {p} is not prime")
    if not (x1.in_range(p) and x2.in_range(p)):
        raise ExponentOutOfRange(f"exponents {x1}, {x2} leave [1, {p - 2}] at p={p}")
    return _witness_rows(p, x1.evaluate(p), x2.evaluate(p)).tolist()


def exists_primitive_trinomial(p: int, e1: ExprLike, e2: ExprLike) -> bool:
    return bool(trinomial_witnesses(p, e1, e2))


def _folded_coeffs(e1: ExpExpr, e2: ExpExpr) -> tuple[tuple[int, int], ...]:
    """Coefficients of the polynomial a primitive witness must satisfy.

    For primitive a, a^((p-1)/2) is -1, so each term folds to a signed
    power of a with a p-independent exponent. Exponents are shifted to be
    nonnegative, which is harmless since a is a unit, and the signs are
    chosen so the leading coefficient is positive: a fold and its negation
    have the same roots, so families that differ only by sign, such as
    a^2 - a - 1 and its negation, get one fold.
    """
    coeffs: dict[int, int] = {}
    for e in (e1, e2):
        s = -1 if e.h % 2 else 1
        coeffs[e.c] = coeffs.get(e.c, 0) + s
    coeffs[0] = coeffs.get(0, 0) - 1
    coeffs = {k: v for k, v in coeffs.items() if v}
    if not coeffs:
        return ()
    shift = max(0, -min(coeffs))
    sign = 1 if coeffs[max(coeffs)] > 0 else -1
    return tuple(sorted((k + shift, sign * v) for k, v in coeffs.items()))


def _fold_stride(coeffs: tuple[tuple[int, int], ...]) -> Optional[int]:
    """The g with every exponent of the fold in {0, g, 2g}, or None if there is none.

    Such a fold is G(x^g) for a G of degree at most 2, which
    `_closed_forms` solves; a fold with no positive exponent has g = 1.
    The order test takes g in int64, so a larger g gets None, and the fold
    goes the way of every other.
    """
    g = math.gcd(*(k for k, _ in coeffs)) or 1
    return g if g <= _I64_MAX and all(k in (0, g, 2 * g) for k, _ in coeffs) else None


def _quadratic(coeffs: tuple[tuple[int, int], ...]) -> tuple[int, tuple[int, int, int]]:
    """(g, (c0, c1, c2)) of a fold G(x^g) with G = c2 y^2 + c1 y + c0; g from `_fold_stride`."""
    g = _fold_stride(coeffs)
    return g, tuple(dict(coeffs).get(k * g, 0) for k in range(3))


def _quadratic_roots(p: np.ndarray, quadratics: list[tuple[int, int, int]]) -> np.ndarray:
    """Roots mod the odd primes p of each G = c2 y^2 + c1 y + c0, given as (c0, c1, c2); (G, 2, N).

    Both are -c0/c1 where c2 = 0, else (-c1 +- sqrt(d))/(2 c2); 0 where
    there is none and where G vanishes mod p. The discriminant d is the
    same integer at every p, so one `sqrt_small` call per distinct d gives
    where G has roots and the square root of d there; a d of 0 is a square
    everywhere. A non-constant fold's G has coefficients in [-2, 2], so c2
    vanishes mod an odd p only where c2 = 0, and the denominator 2 c2 or c1
    is +-1, +-2 or +-4 (1 or 2 for every fold that `_folded_coeffs` makes),
    inverted by halving: 1/2 is (p + 1)/2.
    """
    roots = np.zeros((len(quadratics), 2, p.size), dtype=np.int64)
    sqrts = {}
    for out, (c0, c1, c2) in zip(roots, quadratics):
        d = c1 * c1 - 4 * c0 * c2
        if c2 and d and d not in sqrts:
            square, root = sqrt_small(d, p)
            sqrts[d] = np.flatnonzero(square), root[square]
        # a linear G, or a double root where d = 0, has r = 0; a constant G has no root
        solve, r = sqrts[d] if c2 and d else (np.arange(p.size if c1 or c2 else 0), 0)
        ps = p[solve]
        num, den = (-c1, 2 * c2) if c2 else (-c0, c1)
        # 1/den for den in {+-1, +-2, +-4} is +-(1/2)^(|den| // 2)
        inv = np.sign(den) * ((ps + 1) // 2) ** (abs(den) // 2) % ps
        out[:, solve] = np.stack(((num + r) % ps, (num - r) % ps)) * inv % ps
    return roots


def _root_tests(p: np.ndarray, coeffs: tuple[tuple[int, int], ...]):
    """g, the (2, N) roots of a fold's G at the odd primes p, the columns
    where some root is nonzero (0 has no order), the roots to test there,
    their primes, and which are flip primes. The first root's tests
    decide both where c2 = 0, since the roots are one, and where
    c0 = +-c2 = +-1, so the roots multiply to +-1: for product +1 at any g
    and for product -1 at g = 1 the verdicts agree, except that at
    p = 3 (mod 4) with product -1, the flip primes, the odd tests pass for
    both roots or neither, and of a passing pair only the non-residue is
    primitive (proof in README, "Design notes"). Every other fold tests
    both roots.
    """
    g, (c0, c1, c2) = _quadratic(coeffs)
    (roots,) = _quadratic_roots(p, [(c0, c1, c2)])
    cols = np.flatnonzero(roots.any(axis=0))
    shared = not c2 or abs(c0) == abs(c2) == 1 and (c0 == c2 or g == 1)
    q = p[cols]
    return g, roots, cols, roots[: 2 - shared, cols], q, (q % 4 == 3) & (shared and c0 == -c2 != 0)


def _closed_forms(p: np.ndarray, coeffs: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, np.ndarray]:
    """Roots y mod the odd primes p of G, for a fold G(x^g), and which are y = a^g for a primitive a.

    The fold's exponents lie in {0, g, 2g}, so G = c2 y^2 + c1 y + c0.
    Both results are (2, N): the roots, and per root whether it has order
    N = (p - 1)/gcd(g, p - 1), for g = 1 whether it is primitive. The roots
    of `_root_tests` are tested in two stages at stride g: first
    `_half_test`, then `_odd_tests` only at the primes where a tested root
    is nonzero with y^(N/2) != 1, since a root with y^(N/2) = 1 has no
    order N, and at the flip primes, where the q = 2 test tells which root
    of a passing pair is primitive.
    """
    g, roots, cols, y, q, flips = _root_tests(p, coeffs)
    half = _half_test(y, q, g)
    odd = np.flatnonzero(((y != 0) & ~half).any(axis=0) | flips)
    passes = np.zeros(y.shape, dtype=bool)
    passes[:, odd] = _odd_tests(y[:, odd], q[odd], g)
    primitive = np.zeros(roots.shape, dtype=bool)
    primitive[: y.shape[0], cols] = passes & ~half
    if y.shape[0] == 1:  # a flip takes the non-residue
        primitive[1, cols] = np.where(flips, passes[0] & half[0], primitive[0, cols])
    return roots, primitive


def _fast_exists(p: np.ndarray, coeffs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Mask of the 1-D odd primes p where a fold G(x^g) has a primitive root: the census kernel.

    A polynomial that vanishes mod p is satisfied by every primitive root;
    otherwise some root of G must be the g-th power of one. The stages are
    those of `_closed_forms`, but at a flip prime the odd tests alone
    decide whether a root passes, so the q = 2 test runs only elsewhere.
    """
    g, _, cols, y, q, flips = _root_tests(p, coeffs)
    half = np.zeros(y.shape, dtype=bool)
    rest = np.flatnonzero(~flips)
    half[:, rest] = _half_test(y[:, rest], q[rest], g)
    odd = np.flatnonzero(((y != 0) & ~half).any(axis=0) | flips)
    passes = np.zeros(y.shape, dtype=bool)
    passes[:, odd] = _odd_tests(y[:, odd], q[odd], g)
    hit = np.zeros(p.shape, dtype=bool)
    hit[cols] = (passes & (~half | flips)).any(axis=0)
    hit |= math.gcd(*(v for _, v in coeffs)) % p == 0
    return hit


def _segment_hits(primes: np.ndarray, lo: int, hi: int, coeffs: tuple[tuple[int, int], ...],
                  gate: Optional[np.ndarray] = None) -> np.ndarray:
    """`_fast_exists` at the sieve primes of the census segment [lo, hi), False at 2.

    The mask over the segment's odd primes is computed once per process:
    it is kept in `_SEGMENT_MASKS` and read back by later censuses of the
    same segment and fold. The memo holds one fold's masks, one per segment
    start: keeping a mask of another fold, or of a kept start with another
    end (the last segment of a census to another limit), drops them first,
    so it never outgrows one census. With a gate the mask is further
    limited to the gated odd primes; then, when no mask is kept, only those
    are decided and nothing is kept.
    """
    key = (coeffs, lo, hi)
    bits = _SEGMENT_MASKS.get(key)
    hit = np.zeros(primes.shape, dtype=bool)
    if bits is None and gate is not None:
        hit[gate] = _fast_exists(primes[gate], coeffs)
        return hit
    odd = primes != 2
    if bits is None:
        if any(c != coeffs or start == lo for c, start, _ in _SEGMENT_MASKS):
            _SEGMENT_MASKS.clear()
        bits = _SEGMENT_MASKS[key] = np.packbits(_fast_exists(primes[odd], coeffs))
    hit[odd] = np.unpackbits(bits, count=int(odd.sum())).view(bool)
    return hit if gate is None else hit & gate


def _root_route(primes: np.ndarray, coeffs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Mask of the primes the fold-root kernel decides; the rest take the scan.

    The kernel pays O(d^2 log p) per prime against the scan's O(p). Its
    needs follow: p > 0.7 d^2 log2 p gives p > 1.1 d^2 > 2, so p is odd and
    a fold's leading coefficient, 1 or 2, is a unit mod p, and d < sqrt(p),
    so d p^2 < 2^63 below the 1e6 cap. Only the degree is read, so a fold
    of any degree is routed before anything of size d is allocated.
    """
    d = float(coeffs[-1][0])
    return primes > _ROOT_COST * d * d * np.log2(primes)


def _fold_roots_exist(primes: np.ndarray, coeffs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Mask of the primes where the folded polynomial f of degree d >= 3 has a primitive root.

    For a nonempty array of primes `_root_route` accepts; LimitTooLarge
    unless d p^2 < 2^63, the bound of `ff._poly_mulmod`. No root is found:
    a primitive root mod p is a non-residue, a root of the squarefree, split
    g = gcd(f, x^((p-1)/2) + 1), and by the CRT some root of g is primitive
    iff u = prod over the odd primes q | p - 1 of (x^((p-1)/q) - 1) is
    nonzero mod g (proof in README, "Design notes"). Per degree of g, read
    off a bincount of the degrees, one `_poly_powmod` over the (prime, odd
    factor) pairs of `_factor_pairs`, sorted by prime, gives the terms, and
    round r of `_poly_mulmod` multiplies in each prime's r-th term. No
    numpy set operation runs: np.unique imports numpy.ma on first use.
    """
    n, d = primes.size, coeffs[-1][0]
    if d * int(primes.max()) ** 2 > _I64_MAX:
        raise LimitTooLarge(f"degree {d} at p = {int(primes.max())}: d p^2 is not below 2^63")
    p = primes.astype(np.int64)[:, None]
    f = np.zeros((n, d + 1), dtype=np.int64)
    for k, v in coeffs:
        f[:, k:k + 1] = v % p
    f = _monic(f, d, p)
    power = np.hstack([_poly_powmod((p[:, 0] - 1) // 2, f[:, :d], p), 0 * p])
    power[:, 0] += 1
    g, dg = _poly_gcd(f, power % p, p)
    live = np.flatnonzero(dg > 0)
    idx, q = _factor_pairs(p[live, 0] - 1)
    at, q = live[idx[q > 2]], q[q > 2]
    order = np.argsort(at, kind="stable")
    at, q = at[order], q[order]
    hit = np.zeros(n, dtype=bool)
    for k in np.flatnonzero(np.bincount(dg[live])).tolist():
        sel, mine = np.flatnonzero(dg == k), dg[at] == k
        g_k, pk = _monic(g[sel], k, p[sel])[:, :k], p[sel]
        row = np.searchsorted(sel, at[mine])
        terms = _poly_powmod((pk[row, 0] - 1) // q[mine], g_k[row], pk[row])
        terms[:, 0] = (terms[:, 0] - 1) % pk[row, 0]
        # u = 1 times the terms: round r multiplies in each row's r-th term
        rank = np.arange(row.size) - np.searchsorted(row, row)
        u = np.eye(1, k, dtype=np.int64).repeat(sel.size, axis=0)
        for r in range(int(rank.max(initial=-1)) + 1):
            i = np.flatnonzero(rank == r)
            t = row[i]
            u[t] = _poly_mulmod(u[t], terms[i], g_k[t], pk[t])
        hit[sel] = u.any(axis=1)
    return hit


def _trinomial_predicate(primes: np.ndarray, lo: int, hi: int, e1: ExpExpr, e2: ExpExpr) -> tuple[np.ndarray, np.ndarray]:
    """Hit and skipped masks; a prime where an exponent leaves [1, p - 2] is skipped.

    Folds G(x^g) with exponents in {0, g, 2g} take the closed form at
    every prime, whose mask the segment keeps: the t4 census shares it
    when the fold is x^2 - x - 1, and folds equal up to sign share one.
    Other folds take the fold-root kernel where `_root_route` finds it
    cheaper than the exhaustive scan, and the scan elsewhere. No exponent
    is in range at p = 2.
    """
    skip = ~(e1.in_range(primes) & e2.in_range(primes))
    coeffs = _folded_coeffs(e1, e2)
    if _fold_stride(coeffs):
        return _segment_hits(primes, lo, hi, coeffs) & ~skip, skip
    live = primes[~skip]
    kernel = _root_route(live, coeffs)
    fast = np.zeros(live.shape, dtype=bool)
    if kernel.any():
        fast[kernel] = _fold_roots_exist(live[kernel], coeffs)
    fast[~kernel] = [
        _witness_rows(p, e1.evaluate(p), e2.evaluate(p)).size > 0
        for p in live[~kernel].tolist()
    ]
    hit = np.zeros(primes.shape, dtype=bool)
    hit[~skip] = fast
    return hit, skip


def trinomial_predicted(e1: ExprLike, e2: ExprLike) -> float:
    """Density heading for a trinomial census, read off the fold; 0.0 when none is known.

    a^2 - a - 1 and a^2 + a - 1, with the inverse roots, track the T4 census;
    2a = +-1 and a = +-2 ask for 2 or -2 to be primitive, at Artin's density
    A (README, "Densities"). A census with an exponent in range at only
    finitely many primes has none.
    """
    x1, x2 = _as_expr(e1), _as_expr(e2)
    if any(x._half_bounds[1] < _I64_MAX for x in (x1, x2)):
        return 0.0
    coeffs = _folded_coeffs(x1, x2)
    if coeffs in (_FIB_COEFFS, ((0, -1), (1, 1), (2, 1))):
        return predicted_constants().t4_density
    return predicted_constants().artin if coeffs in _ARTIN_FOLDS else 0.0


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
    that fold to G(x^g) with G of degree at most 2 are decided by a closed
    form, other folds by batched root-finding mod p, at O(d^2 log p) per
    prime; the primes where that costs more than the O(p) exhaustive scan
    take the scan.
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
    """Check three trinomial families whose witnesses provably stop.

    Family a folds to y^2 + y + 1 = 0 with y = a^i, an order-3 condition,
    and its exponents only fit in range for p >= 4i + 3, so it can never
    have a witness. Families b and c fold to y^2 - y + 1 = 0, an order-6
    condition, which forces p <= 6i + 1, and the bound is attained whenever
    6i + 1 is prime. Witnesses at or below the threshold are recorded as
    exceptions; any beyond it would be a violation of the claim. Per sieve
    segment, one `_quadratic_roots` call solves both G at every odd prime,
    with one square root of their common discriminant -3. A root y of
    y^2 +- y + 1 has y^3 = +-1, so its order is the least d in (1, 2, 3, 6)
    with y^d = 1, read off y^2, y^3 and y^6 rather than assumed to be 3 or
    6, and no p - 1 is factored. The roots of each G multiply to c0/c2 = 1,
    so they share that order. The fold of family G at y = a^i hits where it
    is n/gcd(i, n), n = p - 1. Each (i, family) pair takes its fold's hits
    at the primes where both exponents lie in [1, p - 2] and counts
    the others as skipped; p = 2 is never a hit. Only the hit primes are
    scanned exhaustively, by `_witness_rows`, for the least witness an
    entry records. Entries are in (p, i, family) order.
    """
    if limit < 2:
        raise ValueError("limit must be at least 2")
    if limit > _VERIFY_CAP:
        raise LimitTooLarge(f"limit {limit} above cap {_VERIFY_CAP}")
    if not 1 <= i_max <= _I_MAX_CAP:
        raise ValueError(f"i_max must be in 1..{_I_MAX_CAP}")

    families = [(i, *f, _folded_coeffs(*f[1:3])) for i in range(1, i_max + 1) for f in _claim_families(i)]
    folds = {fold: _quadratic(fold) for *_, fold in families}
    quadratics = list(dict.fromkeys(quadratic for _, quadratic in folds.values()))
    entries = []
    skipped = {"a": 0, "b": 0, "c": 0}
    for lo, hi in _segments(limit):
        primes = primes_in_range(lo, hi)
        odd = np.flatnonzero(primes != 2)
        first = _quadratic_roots(primes[odd], quadratics)[:, 0]
        # c0 = 1, so 0 is never a root: the first roots are nonzero where G has roots
        live = first.any(axis=0)
        rooted = odd[live]
        y, m = first[:, live], primes[rooted]
        y2 = y * y % m
        y3 = y2 * y % m
        # the least d with y^d = 1, and 0 where there is none
        order = np.select([y == 1, y2 == 1, y3 == 1, y3 * y3 % m == 1], [1, 2, 3, 6])
        n = m - 1
        found = {fold: rooted[order[quadratics.index(q)] == n // np.gcd(g, n)] for fold, (g, q) in folds.items()}
        for i, name, e1, e2, threshold, fold in families:
            skip = ~(e1.in_range(primes) & e2.in_range(primes))
            skipped[name] += int(skip.sum())
            hits = found[fold]
            for p in primes[hits[~skip[hits]]].tolist():
                least = _witness_rows(p, e1.evaluate(p), e2.evaluate(p))[0]
                entries.append((p, i, name, threshold, int(least)))
    entries.sort()

    thresholds = {
        name: tuple(_claim_families(i)[idx][3] for i in range(1, i_max + 1))
        for idx, name in enumerate(("a", "b", "c"))
    }
    return ZeroDensityReport(
        limit=limit,
        i_max=i_max,
        thresholds=thresholds,
        violations=tuple((name, p, i, w) for p, i, name, t, w in entries if p > t),
        exceptions=tuple((name, p, i, w) for p, i, name, t, w in entries if p <= t),
        skipped=skipped,
    )
