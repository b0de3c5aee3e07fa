"""Finite fields GF(p^k) with integer-coded elements.

An element of GF(p^k) is coded as an integer in [0, q): the base-p digits
of the code are the polynomial coefficients, constant term least
significant. For k > 1 the field modulus is the smallest monic irreducible
of degree k under that same coding, so every field of a given order has one
canonical representation and all results are reproducible without seeds.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np


class LimitTooLarge(ValueError):
    """Raised when a bound exceeds the documented cap for its routine."""


class CompositeCharacteristic(ValueError):
    """The requested field characteristic is not prime."""


class DegreeOutOfRange(ValueError):
    """The extension degree is outside the supported range 1..6."""


class FieldTooLarge(ValueError):
    """The field order exceeds the cap for this operation."""


class EvenModulus(ValueError):
    """A square root modulo 2 was requested."""


_MAX_DEGREE = 6
_MAX_ORDER = 2**31
_PRIMITIVE_SCAN_CAP = 10**6
SIEVE_CAP = 10**8

# Miller-Rabin with the first thirteen primes as bases is deterministic below
# _PRIME_CAP = psi_13, the least strong pseudoprime to all of them (Sorenson &
# Webster, Math. Comp. 86, 2017), which is 1287836182261 * 2575672364521.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_CAP = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below `_PRIME_CAP`; LimitTooLarge at or above it."""
    if n >= _PRIME_CAP:
        raise LimitTooLarge(f"{n} not below the primality cap {_PRIME_CAP}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_to(x: int) -> list[int]:
    """The primes p <= x, for x < 2^16."""
    return _TRIAL_PRIMES[: bisect.bisect_right(_TRIAL_PRIMES, x)]


# The wheel: flag j stands for the odd number 2j + 1, and the multiples of
# 3, 5, 7, 11 and 13 are struck. Flags j and j + 15015 stand for numbers
# 30030 = 2 * 3 * 5 * 7 * 11 * 13 apart, so the flags of any run of odd
# numbers repeat this pattern from some offset.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL = np.ones(15015, dtype=bool)
for _q in _WHEEL_PRIMES:
    _WHEEL[_q // 2 :: _q] = False


def primes_in_range(lo: int, hi: int) -> np.ndarray:
    """Primes in the half-open interval [lo, hi), ascending, as int64.

    Sieves the odd numbers of the segment: the wheel, rotated to the first
    of them and tiled, has the multiples of 3 to 13 struck, and the primes
    from 17 up to sqrt(hi) strike the rest. hi - 1 is capped at SIEVE_CAP.
    """
    if hi - 1 > SIEVE_CAP:
        raise LimitTooLarge(f"sieve limit {hi - 1} above cap {SIEVE_CAP}")
    lo = max(lo, 2)
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    base = lo | 1  # flag j stands for base + 2j
    flags = np.resize(np.roll(_WHEEL, -(base // 2 % _WHEEL.size)), (hi - base + 1) // 2)
    # base + 2j is a multiple of q where j = -base / 2 mod q, 1/2 being
    # (q + 1)/2 mod q, and the first to strike is q^2 or past it. (Python
    # ints: the same arithmetic in numpy, run at import, touched about 0.4
    # MiB more of numpy's code, which every process's peak RSS counts.)
    for q in _primes_to(math.isqrt(hi - 1))[len(_WHEEL_PRIMES) + 1 :]:
        flags[max((q * q - base) // 2, (q + 1) // 2 * -base % q) :: q] = False
    if base <= _WHEEL_PRIMES[-1]:
        flags[[(w - base) // 2 for w in _WHEEL_PRIMES if base <= w < hi]] = True
    primes = np.flatnonzero(flags) * 2 + base
    return np.concatenate([[2], primes]) if lo == 2 else primes


# The one table of small primes. Trial division by these proves any
# cofactor below 2^32 prime, and every sieve and batched kernel takes its
# base primes from it: their bounds are square roots of numbers below 2^31.
# Each pass sieves with the primes of the pass before, from [2, 3] up.
_TRIAL_PRIMES = [2, 3]
for _top in (16, 1 << 8, 1 << 16):
    _TRIAL_PRIMES = primes_in_range(2, _top).tolist()


@lru_cache(maxsize=4096)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((prime, multiplicity), ...) ascending.

    Raises LimitTooLarge when what is left after trial division below 2^16
    is composite, since it cannot be split.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    out: list[tuple[int, int]] = []
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            m = 0
            while n % p == 0:
                n //= p
                m += 1
            out.append((p, m))
    if n > 1:
        if n >> 32 and not is_prime(n):
            raise LimitTooLarge(f"cofactor {n} has no prime factor below 2^16")
        out.append((n, 1))
    return tuple(out)


def prime_power(q: int) -> Optional[tuple[int, int]]:
    """Return (p, k) with q = p^k and p prime, or None if q is not a prime power."""
    fs = factorize(q) if q >= 2 else ()
    return fs[0] if len(fs) == 1 else None


@dataclass(frozen=True)
class FieldDescriptor:
    """Canonical description of GF(p^k)."""

    p: int
    k: int
    q: int
    modulus: Optional[tuple[int, ...]]
    q1_factors: tuple[tuple[int, int], ...]

    def __repr__(self) -> str:
        return f"GF({self.q})"


def _batches(start: int, stop: int):
    """Consecutive runs of codes from start up to stop: 16, 32, 64, ... long.

    Candidate moduli and candidate primitive elements are tested a run at a
    time, so an answer d codes into the search takes about log2(d / 16) + 1
    rounds.
    """
    size = 16
    while start < stop:
        yield np.arange(start, min(start + size, stop))
        start += size
        size *= 2


def _least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Coefficients, constant term first, of the least monic irreducible of degree k >= 2.

    Ben-Or's test over growing batches of candidates in code order: m is
    irreducible iff gcd(x^(p^j) - x, m) = 1 for every j <= k/2. A candidate
    with constant term 0 is divisible by x; it is dropped first, because
    `_poly_gcd` ignores powers of x. Every degree has a monic irreducible,
    so the search always ends.
    """
    place = p ** np.arange(k, dtype=np.int64)
    x = np.eye(1, k + 1, 1, dtype=np.int64)
    for t in _batches(0, p**k):
        low = t[t % p != 0, None] // place % p
        mods = np.full((len(low), 1), p, dtype=np.int64)
        m = np.hstack([low, np.ones_like(mods)])
        ok = np.ones(len(low), dtype=bool)
        for j in range(1, k // 2 + 1):
            power = np.hstack([_poly_powmod(np.full(len(low), p**j), low, mods), 0 * mods])
            ok &= _poly_gcd(m, (power - x) % mods, mods)[1] == 0
        if ok.any():
            return tuple(m[ok.argmax()].tolist())


@lru_cache(maxsize=None)
def _make_field_cached(p: int, k: int) -> FieldDescriptor:
    q = p**k
    if q > _MAX_ORDER:
        raise FieldTooLarge(f"field order {q} exceeds {_MAX_ORDER}")
    modulus = _least_irreducible(p, k) if k > 1 else None
    return FieldDescriptor(p=p, k=k, q=q, modulus=modulus, q1_factors=factorize(q - 1))


def make_field(p: int, k: int = 1) -> FieldDescriptor:
    """Construct (and cache) GF(p^k). k is capped at 6 and p^k at 2^31."""
    if not is_prime(p):
        raise CompositeCharacteristic(f"characteristic {p} is not prime")
    if not 1 <= k <= _MAX_DEGREE:
        raise DegreeOutOfRange(f"degree {k} outside 1..{_MAX_DEGREE}")
    return _make_field_cached(p, k)


def _mul_matrices(field: FieldDescriptor, codes: np.ndarray) -> np.ndarray:
    """(N, k, k) matrices over GF(p^k), k > 1: row j of matrix i holds the
    digits of codes[i] * x^j, so digits @ matrix multiplies by codes[i].

    Each row is the one above it shifted up one place, with x^k = -f folded
    back in for the modulus x^k + f.
    """
    p, k = field.p, field.k
    f = np.array(field.modulus[:k], dtype=np.int64)
    row = codes[:, None] // p ** np.arange(k, dtype=np.int64) % p
    out = np.empty((len(codes), k, k), dtype=np.int64)
    for j in range(k):
        out[:, j] = row
        row = np.hstack([0 * row[:, :1], row[:, :-1]]) - row[:, -1:] * f % p
        row %= p
    return out


@lru_cache(maxsize=4096)
def least_primitive(field: FieldDescriptor) -> int:
    """Code of the least primitive element of the field.

    Over GF(p^k), k > 1, candidates are tested in growing batches from code
    p up, since the smaller codes lie in GF(p)*. With M_a the multiplication
    matrix of a, a is primitive unless M_a^((q-1)/r) = I for a prime r
    dividing q - 1; the powers are taken by batched square-and-multiply,
    exact in int64 because every entry stays below p <= 46341.
    """
    p, k, n = field.p, field.k, field.q - 1
    if k == 1:
        return _least_root(p, field.q1_factors) if p > 2 else 1
    exps = np.array([n // r for r, _ in field.q1_factors], dtype=np.int64)
    eye = np.eye(k, dtype=np.int64)
    for codes in _batches(p, field.q):
        mats = np.repeat(_mul_matrices(field, codes), len(exps), axis=0)
        e = np.tile(exps, len(codes))
        acc = np.broadcast_to(eye, mats.shape)
        while e.any():
            acc = np.where((e & 1 == 1)[:, None, None], acc @ mats % p, acc)
            mats = mats @ mats % p
            e >>= 1
        ok = ~(acc == eye).all(axis=(1, 2)).reshape(len(codes), len(exps)).any(axis=1)
        if ok.any():
            return int(codes[ok.argmax()])


def power_table(field: FieldDescriptor, alpha: int) -> np.ndarray:
    """Codes of alpha^0 .. alpha^(q-2) as an int64 array.

    Built by block doubling: once the first m powers are known, the next m
    are those times alpha^m. In GF(p) that product is codes * c % p; in
    GF(p^k) it is a k x k GF(p)-linear map on the base-p digits.
    """
    p, n = field.p, field.q - 1
    out = np.empty(n, dtype=np.int64)
    out[0] = 1
    filled = 1
    if field.k == 1:
        c = alpha
        while filled < n:
            m = min(filled, n - filled)
            out[filled : filled + m] = out[:m] * c % p
            filled += m
            c = c * c % p
    else:
        place = p ** np.arange(field.k, dtype=np.int64)
        mat = _mul_matrices(field, np.array([alpha]))[0]
        while filled < n:
            m = min(filled, n - filled)
            digits = out[:m, None] // place % p
            out[filled : filled + m] = digits @ mat % p @ place
            filled += m
            mat = mat @ mat % p
    return out


@lru_cache(maxsize=1)
def field_tables(field: FieldDescriptor) -> tuple[np.ndarray, np.ndarray]:
    """(exp, logs) of the least primitive element g: exp[i] = g^i, logs[g^i] = i
    and logs[0] = -1, read-only and kept for the last field asked for (README
    "Caches"). The 10^6 log-table cap is checked before either is built."""
    if field.q > _PRIMITIVE_SCAN_CAP:
        raise FieldTooLarge(f"log table capped at order {_PRIMITIVE_SCAN_CAP}")
    exp = power_table(field, least_primitive(field))
    logs = np.full(field.q, -1, dtype=np.int64)
    logs[exp] = np.arange(field.q - 1)
    exp.flags.writeable = logs.flags.writeable = False
    return exp, logs


def primitive_exponents(n: int) -> np.ndarray:
    """Exponents i in [0, n) with gcd(i, n) = 1, as an int64 array.

    For a generator alpha of a cyclic group of order n, alpha^i generates
    it exactly for these i.
    """
    coprime = np.ones(n, dtype=bool)
    for q, _ in factorize(n):
        coprime[::q] = False
    return np.flatnonzero(coprime).astype(np.int64, copy=False)


def affine_map(field: FieldDescriptor, codes: np.ndarray, s: int, c: int) -> np.ndarray:
    """Codes of s * x + c for each code x, with integers s, c taken mod p."""
    p = field.p
    if field.k == 1:
        return (codes * s + c) % p
    place = p ** np.arange(field.k, dtype=np.int64)
    digits = codes[:, None] // place % p * s
    digits[:, 0] += c
    return digits % p @ place


def sqrt_mod_p(a: int, p: int) -> Optional[tuple[int, ...]]:
    """Square roots of a modulo an odd prime p, sorted, or None for a non-residue.

    The fixed-length Tonelli-Shanks of `sqrt_small` (Crandall & Pomerance,
    Algorithm 2.3.8) in Python ints. For a non-residue, t stays a
    non-residue, so x^2 = a at the end exactly where a is a square.
    """
    if p == 2:
        raise EvenModulus("square roots mod 2 are not supported")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if not 0 <= a < p:
        raise ValueError(f"residue {a} outside [0, {p})")
    if a == 0:
        return (0,)
    # p - 1 = s * 2^e with s odd; x^2 = a * t holds at every step below.
    e = ((p - 1) & (1 - p)).bit_length() - 1
    s = (p - 1) >> e
    x = pow(a, (s + 1) // 2, p)
    t = pow(a, s, p)
    if e > 1:
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        c = pow(z, s, p)
        for k in range(e - 1, 0, -1):
            if pow(t, 1 << (k - 1), p) != 1:
                x = x * c % p
                t = t * c * c % p
            c = c * c % p
    return tuple(sorted((x, p - x))) if x * x % p == a else None


def _is_primitive_root_unchecked(a: int, p: int, p1_factors: tuple[tuple[int, int], ...]) -> bool:
    # For loops over candidates whose caller has already proved p prime.
    return a % p != 0 and all(pow(a, (p - 1) // f, p) != 1 for f, _ in p1_factors)


def _least_root(p: int, p1_factors: tuple[tuple[int, int], ...]) -> int:
    # Least primitive root of an odd prime p its caller has already proved.
    g = 2
    while not _is_primitive_root_unchecked(g, p, p1_factors):
        g += 1
    return g


# Batched kernels over arrays of primes. Every modulus is below 2^31, so a
# product of two residues stays below 2^62 and int64 arithmetic is exact.
# Callers pass primes they have already proved (the census passes sieve
# output); nothing here tests primality.


def _modulus_array(p) -> np.ndarray:
    p = np.asarray(p, dtype=np.int64)
    if p.size and int(p.max()) >= _MAX_ORDER:
        raise LimitTooLarge(f"modulus {int(p.max())} not below 2^31")
    return p


def pow_mod_array(a, e, p) -> np.ndarray:
    """Element-wise a^e mod p for e >= 0 and 0 < p < 2^31, by binary exponentiation."""
    p = _modulus_array(p)
    e = np.array(e, dtype=np.int64)
    if (e < 0).any():
        raise ValueError("exponents must be nonnegative")
    base = np.asarray(a, dtype=np.int64) % p
    out = np.ones(np.broadcast_shapes(base.shape, e.shape), dtype=np.int64) % p
    while e.any():
        # Multiply by base where the bit is set and by 1 elsewhere; this
        # arithmetic select is faster than np.where and works in place.
        out *= (base - 1) * (e & 1) + 1
        out %= p
        e >>= 1
        base *= base
        base %= p
    return out


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


def sqrt_small(d: int, p) -> tuple[np.ndarray, np.ndarray]:
    """Where a nonzero integer d is a square mod each odd prime p, and the smaller root there.

    Both results are shaped like the 1-D p; the root is 0 where d is a
    non-residue and where p divides d. `_residue_classes(d)`, a table by
    p mod 4|d|, says where d is a square, and Tonelli-Shanks runs only at
    the primes it accepts that do not divide d, in its fixed-length form
    (Crandall & Pomerance, Prime Numbers: A Computational Perspective,
    Algorithm 2.3.8): e - 1 steps at a prime with p - 1 = s * 2^e.
    """
    p = _modulus_array(p)
    if (p % 2 == 0).any():
        raise EvenModulus("square roots mod 2 are not supported")
    square = _residue_classes(d)[p % (4 * abs(d))]
    root = np.zeros_like(p)
    idx = np.flatnonzero(square & (d % p != 0))

    # p - 1 = s * 2^e with s odd, the largest e first, so that e > k is a prefix
    low = (p[idx] - 1) & (1 - p[idx])
    order = np.argsort(-low)
    idx, low = idx[order], low[order]
    p = p[idx]
    a = d % p
    e = np.frexp(low)[1].astype(np.int64) - 1  # exact: low is a power of two
    s = (p - 1) // low
    # x = a^((s+1)/2) and t = a^s from one power; x^2 = a * t at every step
    x = pow_mod_array(a, s // 2, p)
    t = x * x % p * a % p
    x = x * a % p

    # c = z^s for a non-residue z wherever e >= 2. The least non-residue is
    # a prime below sqrt(p) + 1, which the table finds.
    z = np.zeros(np.count_nonzero(e > 1), dtype=np.int64)
    pending = np.arange(z.size)
    for q in _primes_to(math.isqrt(int(p.max(initial=0))) + 1):
        if not pending.size:
            break
        found = ~_residue_classes(q)[p[pending] % (4 * q)]
        z[pending[found]] = q
        pending = pending[~found]
    c = pow_mod_array(z, s[: z.size], p[: z.size])
    for k in range(int(e.max(initial=1)) - 1, 0, -1):
        n = np.count_nonzero(e > k)
        pk, u = p[:n], t[:n]
        for _ in range(k - 1):
            u = u * u % pk
        # where t^(2^(k-1)) = -1, multiply x by c and t by c^2, of order 2^k
        flip = u != 1
        x[:n] = np.where(flip, x[:n] * c[:n] % pk, x[:n])
        c[:n] = c[:n] * c[:n] % pk
        t[:n] = np.where(flip, t[:n] * c[:n] % pk, t[:n])
    root[idx] = np.minimum(x, p - x)
    return square, root


def _exact_division(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q^-1 mod 2^32 and floor((2^32 - 1) / q) for odd q, as uint32.

    An m < 2^32 is divisible by q exactly when m * q^-1 mod 2^32 is at most
    the bound, and then that product is m / q (Granlund & Montgomery,
    "Division by invariant integers using multiplication", PLDI 1994). The
    inverse is Newton's iteration x <- x (2 - q x): q is its own
    inverse mod 2^3, and each step doubles the bits that are right.
    """
    q = q.astype(np.uint32)
    inv = q.copy()
    for _ in range(4):
        inv *= 2 - q * inv
    return inv, np.uint32(2**32 - 1) // q


def _cofactors(m: np.ndarray, i: np.ndarray, q: np.ndarray) -> np.ndarray:
    """m with each prime q[j] divided out of m[i[j]] as often as it divides it.

    The pairs come sorted by i. The valuations are taken at the pairs only,
    and each entry is divided by the product of its prime powers.
    """
    mi = m[i]
    power = q.copy()
    more = np.flatnonzero(mi // power % q == 0)
    while more.size:
        power[more] *= q[more]
        more = more[mi[more] // power[more] % q[more] == 0]
    rem = m.copy()
    first = np.flatnonzero(np.diff(i, prepend=-1))
    rem[i[first]] //= np.multiply.reduceat(power, first)
    return rem


def _factor_pairs(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (index, prime factor) pair of a 1-D int64 array 1 <= n < 2^32.

    The power of 2 is the lowest set bit. Every odd prime q up to the
    square root of the largest odd part m is tested against every entry at
    once by `_exact_division`, a multiply and a compare per (entry, q)
    cell, in blocks of at most 2^16 cells. Only at the pairs found are the
    valuations taken, and their prime powers divided out of m with one
    product per entry: what is left is 1 or a single prime, which makes
    the entry's last pair. The pairs come as the 2s, then the odd primes
    by index, then the cofactors; a caller that needs another order sorts.
    """
    m = n // (n & -n)
    top = int(m.max(initial=0))
    if top >> 32:
        raise LimitTooLarge(f"odd part {top} not below 2^32")
    odd = np.array(_primes_to(math.isqrt(top))[1:], dtype=np.int64)
    inv, bound = _exact_division(odd)
    k = max(odd.size, 1)
    rows = (1 << 16) // k
    blocks = (np.flatnonzero(m[s : s + rows, None].astype(np.uint32) * inv <= bound) + s * k
              for s in range(0, n.size, rows))
    i, q = np.divmod(np.concatenate([np.empty(0, dtype=np.int64), *blocks]), k)
    q = odd[q]  # from column to prime
    rem = _cofactors(m, i, q)
    big = np.flatnonzero(rem > 1)
    evens = np.flatnonzero(n & 1 == 0)
    twos = np.broadcast_to(2, evens.shape)
    return np.concatenate([evens, i, big]), np.concatenate([twos, q, rem[big]])


def _order_tests(a, p, g) -> tuple[np.ndarray, np.ndarray]:
    """Order tests of a[..., i] mod the 1-D primes p[i], with the test at q = 2 kept apart.

    The units mod p are cyclic, so the g-th powers of the primitive roots
    are exactly the elements of order N = (p-1)/gcd(g, p-1) (Ireland &
    Rosen, A Classical Introduction to Modern Number Theory, ch. 4); g = 1
    asks whether a is primitive. a has order N iff a^(N/q) != 1 for every
    prime q dividing N, and a^N = 1. Returns two masks shaped like a:
    whether a != 0 mod p and a passes every test but a^(N/2) != 1, and
    whether a^(N/2) = 1 (False where N is odd); a has order N exactly where
    `passes & ~half`. g is one stride for all of a, or an int sequence of
    a's leading shape, one per row of a 2-D a. One `_factor_pairs(p - 1)`
    serves every row: a prime divides N only if it divides p - 1, so each
    distinct g keeps the pairs whose q divides its N. One batched power
    per row tests a^(N/q) != 1 for those pairs, and a^N = 1 where Fermat
    does not give it. (One power over all rows is slower once the rows
    outgrow the cache, and holds every row's tests at once.)
    """
    p = _modulus_array(p)
    a = np.asarray(a, dtype=np.int64) % p
    passes = a != 0
    half = np.zeros(a.shape, dtype=bool)
    if not p.size:
        return passes, half
    idx, q = _factor_pairs(p - 1)
    strides = np.broadcast_to(g, a.shape[:-1]).reshape(-1).tolist()
    # per distinct g, each test's index, q, exponent and modulus: the pairs
    # with q | N (all of them where N = p - 1 at every p), then q = 1
    tests = {}
    for g_r in dict.fromkeys(strides):
        n = (p - 1) // np.gcd(g_r, p - 1)
        short = np.flatnonzero(n < p - 1)
        at, q_r = idx, q
        if short.size:
            keep = np.flatnonzero(n[idx] % q == 0)
            at, q_r = np.r_[idx[keep], short], np.r_[q[keep], np.ones(short.size, dtype=np.int64)]
        tests[g_r] = at, q_r, n[at] // q_r, p[at]
    rows = zip(a.reshape(-1, p.size), passes.reshape(-1, p.size), half.reshape(-1, p.size), strides)
    for row_a, row_passes, row_half, g_r in rows:
        at, q, exps, mods = tests[g_r]
        one = pow_mod_array(row_a[at], exps, mods) == 1
        # a test fails where its power is 1 for a factor q > 1, and not 1 for q = 1
        row_passes[at[(one == (q > 1)) & (q != 2)]] = False
        row_half[at[one & (q == 2)]] = True
    return passes, half


# Batched polynomial arithmetic mod p: row i of each (N, w) array holds the
# coefficients, constant term first, of one polynomial over GF(p[i]), and p
# is an (N, 1) column of primes below 2^31. The fold-root census of
# `density` and the modulus search of `make_field` share it.


def _poly_mulmod(a: np.ndarray, b: np.ndarray, f: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a * b mod (x^k + f) row by row, coefficients low to high.

    a, b and f are (N, k) arrays of residues mod the (N, 1) primes p; f
    holds the low coefficients of a monic modulus. The k row products are
    summed unreduced and the high half is folded back reducing only the
    coefficient folded, so every entry stays below k p^2 in absolute value:
    exact while k p^2 < 2^63, which the fold-root kernel checks and
    `make_field` (k <= 6, p <= 46340) meets. Column-major, for contiguous
    column slices.
    """
    k = f.shape[1]
    acc = np.zeros((f.shape[0], 2 * k - 1), dtype=np.int64, order="F")
    for i in range(k):
        acc[:, i:i + k] += a[:, i:i + 1] * b
    for j in range(2 * k - 2, k - 1, -1):
        acc[:, j - k:j] -= acc[:, j:j + 1] % p * f
    return acc[:, :k] % p


def _poly_powmod(e: np.ndarray, f: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x^e mod (x^k + f) row by row, by left-to-right square-and-multiply."""
    f = np.asfortranarray(f)
    r = np.zeros_like(f)
    r[:, 0] = 1
    for bit in range(int(e.max(initial=0)).bit_length() - 1, -1, -1):
        r = _poly_mulmod(r, r, f, p)
        # times x: shift up one place and fold x^k back in
        step = -r[:, -1:] * f
        step[:, 1:] += r[:, :-1]
        step %= p
        r = np.where((e >> bit & 1 == 1)[:, None], step, r)
    return r


def _strip_x(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows divided by their largest power of x, and their degrees (-1 for 0)."""
    w = a.shape[1]
    nz = a != 0
    low = nz.argmax(axis=1)
    cols = low[:, None] + np.arange(w)
    a = np.where(cols < w, np.take_along_axis(a, np.minimum(cols, w - 1), axis=1), 0)
    deg = np.where(nz.any(axis=1), w - 1 - nz[:, ::-1].argmax(axis=1) - low, -1)
    return a, deg


def _poly_gcd(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gcd of each pair of rows of a and b, up to a unit and a power of x, with its degree.

    Euclid from the low end (von zur Gathen & Gerhard, Modern Computer
    Algebra, ch. 3): while b(0) != 0, b(0) a - a(0) b has the same gcd with
    b and vanishes at 0, so it is divided by x. Each step lowers the degree
    of a by at least one, a swap of the rows where da < db keeps the larger
    degree in a, and a is the gcd once b is 0: such a row is written out
    and dropped, and the working columns shrink to the largest degree
    left. The combination is formed from columns 1 up, which divides it by
    x; only a nonzero row whose new x-coefficient is 0 as well goes
    through `_strip_x`. a and b are (N, w) with w >= 2; the gcd rows come back
    (N, w), 0 with degree -1 where a and b are both 0.
    """
    (a, da), (b, db) = _strip_x(a), _strip_x(b)
    g, dg = np.zeros_like(a), np.full_like(da, -1)
    at = np.arange(len(a))
    while True:
        swap = np.flatnonzero(da < db)
        a[swap], b[swap], da[swap], db[swap] = b[swap], a[swap], db[swap], da[swap]
        done = db < 0
        if done.any():
            g[at[done], :a.shape[1]], dg[at[done]] = a[done], da[done]
            a, b, da, db, p, at = (v[~done] for v in (a, b, da, db, p, at))
        if not at.size:
            return g, dg
        # two columns at least, so dividing by x leaves one
        w = max(int(da.max()), 1) + 1
        a, b = a[:, :w], b[:, :w]
        nxt = np.zeros_like(b)
        t = nxt[:, :-1]
        np.remainder(b[:, :1] * a[:, 1:] - a[:, :1] * b[:, 1:], p, out=t)
        nz = t != 0
        low = np.flatnonzero(~nz[:, 0] & nz.any(axis=1))
        if low.size:
            t[low] = _strip_x(t[low])[0]
            nz[low] = t[low] != 0
        a, da = nxt, np.where(nz[:, 0], w - 2 - nz[:, ::-1].argmax(axis=1), -1)


def _monic(g: np.ndarray, k: int, p: np.ndarray) -> np.ndarray:
    """The k + 1 low coefficients of each row of degree k, made monic."""
    return g[:, :k + 1] * pow_mod_array(g[:, k], p[:, 0] - 2, p[:, 0])[:, None] % p
