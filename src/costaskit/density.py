"""Prime censuses for construction applicability and primitive trinomials.

The counting side of the library: how often the fourth-variant
constructions apply among primes up to x, compared against the densities
predicted from Artin's constant, plus a brute-force verifier for the
families of trinomials that provably stop having primitive solutions.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .costas import _fork_map
from .ff import (
    SIEVE_CAP,
    FieldDescriptor,
    LimitTooLarge,
    _least_root,
    _monic,
    _poly_gcd,
    _poly_powmod,
    factorize,
    make_field,
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
# The fold-root kernel decides a prime of a degree-d fold when
# _ROOT_COST * d^2 * log2(p) < p: its O(d^2 log p) cost against the
# exhaustive scan's O(p), with the constant fitted to measured crossovers.
_ROOT_COST = 1.5
# x^2 - x - 1, whose primitive roots are the Fibonacci primitive roots.
_FIB_COEFFS = ((0, -1), (1, -1), (2, 1))
# Closed-form hit masks, packed by np.packbits over the odd primes of one
# census segment [lo, hi), keyed by (coeffs, lo, hi), least recently used
# first. The slots outnumber the 763 segments of a census at SIEVE_CAP.
_SEGMENT_MASKS: OrderedDict = OrderedDict()
_SEGMENT_SLOTS = 1024
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


class ExponentOutOfRange(ValueError):
    """Raised when an exponent expression leaves [1, p - 2] at this prime."""


@dataclass(frozen=True)
class ExpExpr:
    """Exponent of the form c + h * (p - 1) / 2, evaluated per prime."""

    c: int
    h: int = 0

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


def _fib_census_predicate(primes: np.ndarray, lo: int, hi: int, modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """Primes that are 1 or 9 mod the modulus and have a Fibonacci primitive root.

    Modulus 10 is the t4 census. Modulus 20 is the g4 census, which is the
    same question: both classes 1 and 9 mod 20 are 1 mod 4, where every
    FPR is a g4 witness (the proof is at fpr._fprs_are_g4). For odd
    p != 5 the t4 classes are where x^2 - x - 1 has roots at all, so t4
    decides every odd prime at no extra cost and keeps the segment's mask;
    the g4 classes also halve the primitive-root tests, so a g4 census
    without a kept mask decides only its own primes.
    """
    r = primes % modulus
    gate = (r == 1) | (r == 9)
    hit = _segment_hits(primes, lo, hi, _FIB_COEFFS, gate if modulus == 20 else None)
    return hit & gate, np.zeros_like(hit)


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

    A row is the segment's skipped count, then its hits and its primes per
    checkpoint, a prime counting at the first checkpoint >= p.
    """
    if limit < 2:
        raise ValueError("census limit must be at least 2")
    if limit > cap:
        raise LimitTooLarge(f"census limit {limit} above cap {cap}")
    cps = np.array(_normalize_checkpoints(checkpoints, limit), dtype=np.int64)
    m, segments = cps.size, _segments(limit)

    def segment_row(i: int) -> np.ndarray:
        lo, hi = segments[i]
        primes = primes_in_range(lo, hi)
        hit, skip = predicate(primes, lo, hi)
        slot = np.searchsorted(cps, primes)
        return np.r_[skip.sum(), np.bincount(slot[hit], minlength=m), np.bincount(slot, minlength=m)]

    total = sum(_fork_map(segment_row, len(segments), 1 + 2 * m, workers))
    hits = np.cumsum(total[1 : 1 + m]).tolist()
    pis = np.cumsum(total[1 + m :]).tolist()
    rows = [
        CensusRow(x=x, count=ch, pi_x=cpi, ratio=ch / cpi if cpi else 0.0, predicted=predicted)
        for x, ch, cpi in zip(cps.tolist(), hits, pis)
    ]
    return rows, int(total[0])


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


def _witness_rows(p: int, e1: int, e2: int) -> np.ndarray:
    """Primitive a mod p with a^e1 + a^e2 = 1, ascending.

    An exhaustive scan over the primitive elements alpha^j (gcd(j, p - 1) = 1)
    of one power table, O(p): `trinomial_witnesses`, the census primes that
    neither the closed form nor the fold-root kernel decides, and the
    verifier's hit primes, where it finds the least witness. The caller
    has proved p prime and both exponents in [1, p - 2]; nothing is checked
    again. With m = (p - 1)/2, every unit j is odd, so j(e + m) = je + m
    mod p - 1 and the row of powers for e + m is p minus the row for e.
    The units are symmetric under j -> n - j, so the row for m - k is p
    minus the row for k read backwards, and each exponent gathers the row
    for min(k, m - k), k = e mod m. Powers lie in [1, p - 1], so
    x + y = 1 mod p exactly when x + y = p + 1; with one row flipped that
    reads y - x = 1, with both flipped x + y = p - 1.
    """
    # Built here, not by make_field, whose cache keeps every field it is asked for.
    field = FieldDescriptor(p, 1, p, None, factorize(p - 1))
    table = power_table(field, _least_root(p, field.q1_factors))
    n, m = p - 1, (p - 1) // 2
    js = primitive_exponents(n)

    def powers(e: int) -> tuple[np.ndarray, bool]:
        k = e % m
        r = min(k, m - k)
        row = table[js * r % n]
        return (row, e >= m) if r == k else (row[::-1], e < m)

    (x, fx), (y, fy) = powers(e1), powers(e2)
    if fx == fy:
        hit = x + y == (p - 1 if fx else p + 1)
    else:
        hit = (y - x if fx else x - y) == 1
    return np.sort(table[js[hit]])


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
    `_closed_form_roots` solves; a fold with no positive exponent has g = 1.
    The order test takes g in int64, so a larger g gets None, and the fold
    goes the way of every other.
    """
    g = math.gcd(*(k for k, _ in coeffs)) or 1
    return g if g <= _I64_MAX and all(k in (0, g, 2 * g) for k, _ in coeffs) else None


def _small_inverse(d: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Inverse mod the odd primes p of small integers d that are nonzero mod p.

    With r the residue of d of least absolute value, 1/|r| is (k p + 1)/|r|
    for the one k in [0, |r|) that makes the division exact, so |r| exact
    divisions replace a modular power.
    """
    r = d % p
    r = np.where(2 * r > p, r - p, r)
    a = np.abs(r)
    inv = np.zeros_like(p)
    for k in range(int(a.max(initial=0))):
        t = k * p + 1
        exact = (k < a) & (t % a == 0)
        inv[exact] = t[exact] // a[exact]
    return np.where(r < 0, p - inv, inv)


def _quadratic_roots(c0, c1, c2, p: np.ndarray) -> np.ndarray:
    """Roots mod p of c2 x^2 + c1 x + c0 as a (2, N) array, 0 where there is none.

    The coefficients are small integers (fold coefficients, or 1 for a
    monic piece) that broadcast against the 1-D odd primes p, and c2 and c1
    must not both vanish mod p. Where c2 = 0 both rows hold -c0/c1;
    otherwise they hold (-c1 +- sqrt(disc))/(2 c2), and a non-residue
    discriminant leaves them 0. A root 0 is never primitive either, so
    the rows can go to primitive_root_mask as they are.
    """
    c0, c1, c2 = (np.broadcast_to(c, p.shape) % p for c in (c0, c1, c2))
    quad = c2 != 0
    r = np.zeros_like(p)
    disc = c1 * c1 - 4 * (c0 * c2 % p)
    r[quad] = sqrt_mod_array(disc[quad] % p[quad], p[quad])
    roots = np.zeros((2, p.size), dtype=np.int64)
    solve = np.flatnonzero(r >= 0)
    ps, r, sq = p[solve], r[solve], quad[solve]
    num = np.where(sq, -c1[solve], -c0[solve]) % ps
    inv = _small_inverse(np.where(sq, 2 * c2[solve], c1[solve]), ps)
    roots[:, solve] = np.stack(((num + r) % ps, (num - r) % ps)) * inv % ps
    return roots


def _residue_classes(d: int) -> np.ndarray:
    """Whether d is a square mod n, for the odd n below 4|d|, as a table by n.

    The Jacobi symbol (d/n) depends only on n mod 4|d|, and for a prime p
    it is the Legendre symbol, 0 when p divides d (Cohen, A Course in
    Computational Algebraic Number Theory, 1.4.10). Even n read False.
    """
    table = np.zeros(4 * abs(d), dtype=bool)
    for n in range(1, table.size, 2):
        a, b, t = d % n, n, 1
        while a:
            while a % 2 == 0:
                a //= 2
                if b % 8 in (3, 5):
                    t = -t
            a, b = b, a
            if a % 4 == 3 and b % 4 == 3:
                t = -t
            a %= b
        table[n] = b > 1 or t == 1
    return table


def _closed_form_roots(p: np.ndarray, coeffs: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, np.ndarray]:
    """Roots y mod the odd primes p of G, for a fold G(x^g), and which are y = a^g for a primitive a.

    The fold's exponents lie in {0, g, 2g} (`_fold_stride`), so G has
    degree at most 2. Both results are (2, N): the roots from
    `_quadratic_roots`, 0 where there is none and where G vanishes mod p,
    and their primitive_root_mask with this g, which tests each root for
    order (p - 1)/gcd(g, p - 1). For g = 1 the roots are the fold's own
    and the mask says which are primitive. The discriminant d is the same
    integer at every p, so a prime where d is a non-residue is turned away
    by a table lookup on p mod 4|d|, not by a square root.
    """
    g = _fold_stride(coeffs)
    c0, c1, c2 = (dict(coeffs).get(k * g, 0) for k in range(3))
    d = c1 * c1 - 4 * c0 * c2
    solve = math.gcd(c1, c2) % p != 0
    if d:
        solve &= _residue_classes(d)[p % (4 * abs(d))]
    solve = np.flatnonzero(solve)
    roots = np.zeros((2, p.size), dtype=np.int64)
    roots[:, solve] = _quadratic_roots(c0, c1, c2, p[solve])
    primitive = np.zeros(roots.shape, dtype=bool)
    primitive[:, solve] = primitive_root_mask(roots[:, solve], p[solve], g)
    return roots, primitive


def _fast_exists(primes, coeffs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Mask of odd primes where a fold G(x^g) has a primitive root.

    A polynomial that vanishes mod p is satisfied by every primitive root;
    otherwise one of the at most two roots y of G from `_closed_form_roots`
    must be the g-th power of a primitive root.
    """
    p = np.asarray(primes, dtype=np.int64).reshape(-1)
    hit = _closed_form_roots(p, coeffs)[1].any(axis=0)
    hit |= math.gcd(*(v for _, v in coeffs)) % p == 0
    return hit.reshape(np.shape(primes))


def _segment_hits(primes: np.ndarray, lo: int, hi: int, coeffs: tuple[tuple[int, int], ...],
                  gate: Optional[np.ndarray] = None) -> np.ndarray:
    """`_fast_exists` at the sieve primes of the census segment [lo, hi), False at 2.

    The mask over the segment's odd primes is computed once per process:
    it is kept in `_SEGMENT_MASKS` and read back by later censuses of the
    same segment and fold. With a gate the mask is further limited to the
    gated odd primes; then, when no mask is kept, only those are decided
    and nothing is kept.
    """
    key = (coeffs, lo, hi)
    bits = _SEGMENT_MASKS.get(key)
    hit = np.zeros(primes.shape, dtype=bool)
    if bits is None and gate is not None:
        hit[gate] = _fast_exists(primes[gate], coeffs)
        return hit
    odd = primes != 2
    if bits is None:
        bits = _SEGMENT_MASKS[key] = np.packbits(_fast_exists(primes[odd], coeffs))
        if len(_SEGMENT_MASKS) > _SEGMENT_SLOTS:
            _SEGMENT_MASKS.popitem(last=False)
    else:
        _SEGMENT_MASKS.move_to_end(key)
    hit[odd] = np.unpackbits(bits, count=int(odd.sum())).view(bool)
    return hit if gate is None else hit & gate


def _root_route(primes: np.ndarray, coeffs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Mask of the primes the fold-root kernel decides; the rest take the scan.

    The kernel pays O(d^2 log p) per prime against the scan's O(p). Its
    needs follow: p > 1.5 d^2 log2 p gives p > 2d, and a fold's leading
    coefficient, 1 or 2, is a unit mod every odd prime. Only the degree
    is read, so a fold of any degree is routed before anything of size d
    is allocated.
    """
    d = float(coeffs[-1][0])
    return primes > _ROOT_COST * d * d * np.log2(primes)


def _fold_roots_exist(primes: np.ndarray, coeffs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Mask of the primes where the folded polynomial f of degree d >= 3 has a primitive root.

    For a nonempty array of primes `_root_route` accepts. The roots of f
    in GF(p)* are those of g = gcd(f, x^(p-1) - 1). A piece of degree 3
    or more is split into its gcds with (x + delta)^((p-1)/2) - 1,
    (x + delta)^((p-1)/2) + 1 and x + delta, for delta = 0, 1, 2, ... in
    turn (equal-degree splitting: Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 1.6.1), until every piece has degree 1
    or 2. One `_quadratic_roots` call solves those, and one
    primitive_root_mask call tests every candidate.
    """
    n, d = primes.size, coeffs[-1][0]
    p = primes.astype(np.int64)[:, None]
    f = np.zeros((n, d + 1), dtype=np.int64)
    for k, v in coeffs:
        f[:, k:k + 1] = v % p
    f = _monic(f, d, p)
    power = np.hstack([_poly_powmod(0, p[:, 0] - 1, f[:, :d], p), 0 * p])
    g, dg = _poly_gcd(f, (power - np.eye(1, d + 1, dtype=np.int64)) % p, p)
    own = np.arange(n)
    small, at = [], []
    delta = 0
    while True:
        parts = []
        for k in np.unique(dg[dg > 0]).tolist():
            sel = np.flatnonzero(dg == k)
            own_k, pk = own[sel], p[own[sel]]
            g_k = _monic(g[sel], k, pk)
            if k <= 2:
                small.append(np.pad(g_k, ((0, 0), (0, 2 - k))))
                at.append(own_k)
                continue
            power = np.hstack([_poly_powmod(delta, (pk[:, 0] - 1) // 2, g_k[:, :k], pk), 0 * pk])
            one, x = np.eye(2, k + 1, dtype=np.int64)
            for b in (power - one, power + one, np.broadcast_to(x + delta * one, power.shape)):
                parts.append((*_poly_gcd(g_k, b % pk, pk), own_k))
        if not parts:
            break
        g = np.concatenate([np.pad(q, ((0, 0), (0, d + 1 - q.shape[1]))) for q, _, _ in parts])
        dg = np.concatenate([dq for _, dq, _ in parts])
        own = np.concatenate([oq for _, _, oq in parts])
        delta += 1
    hit = np.zeros(n, dtype=bool)
    if small:
        c, at = np.concatenate(small), np.concatenate(at)
        roots = _quadratic_roots(c[:, 0], c[:, 1], c[:, 2], primes[at])
        hit[np.tile(at, 2)[primitive_root_mask(roots.ravel(), np.tile(primes[at], 2))]] = True
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
    exceptions; any beyond it would be a violation of the claim. Each
    (i, family) pair reads its hit and skipped masks from the census
    predicate one sieve segment at a time, so the closed form for G(x^g)
    decides every prime. Only the hit primes are scanned exhaustively, by
    `_witness_rows`, for the least witness an entry records. Entries are
    in (p, i, family) order.
    """
    if limit < 2:
        raise ValueError("limit must be at least 2")
    if limit > _VERIFY_CAP:
        raise LimitTooLarge(f"limit {limit} above cap {_VERIFY_CAP}")
    if not 1 <= i_max <= _I_MAX_CAP:
        raise ValueError(f"i_max must be in 1..{_I_MAX_CAP}")

    entries = []
    skipped = {"a": 0, "b": 0, "c": 0}
    for lo, hi in _segments(limit):
        primes = primes_in_range(lo, hi)
        for i in range(1, i_max + 1):
            for name, e1, e2, threshold in _claim_families(i):
                hit, skip = _trinomial_predicate(primes, lo, hi, e1, e2)
                skipped[name] += int(skip.sum())
                for p in primes[hit].tolist():
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
