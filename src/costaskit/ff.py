"""Finite fields GF(p^k) with integer-coded elements.

An element of GF(p^k) is coded as an integer in [0, q): the base-p digits
of the code are the polynomial coefficients, constant term least
significant. For k > 1 the field modulus is the smallest monic irreducible
of degree k under that same coding, so every field of a given order has one
canonical representation and all results are reproducible without seeds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np


class LimitTooLarge(ValueError):
    """Raised when a bound exceeds the documented cap for its routine."""


class CompositeCharacteristic(ValueError):
    """The requested field characteristic is not prime."""


class DegreeOutOfRange(ValueError):
    """The extension degree is outside the supported range 1..6."""


class FieldTooLarge(ValueError):
    """The field order exceeds the cap for this operation."""


class NoIrreducibleFound(ValueError):
    """The modulus search exhausted all candidates (unreachable for valid input)."""


class FieldMismatch(ValueError):
    """Elements of distinct fields were combined."""


class DivisionByZero(ZeroDivisionError):
    """Division or inversion of the zero element."""


class ZeroElement(ValueError):
    """A multiplicative-only operation received the zero element."""


class NotPrimitive(ValueError):
    """An element required to generate the unit group does not."""


class EvenModulus(ValueError):
    """A square root modulo 2 was requested."""


_MAX_DEGREE = 6
_MAX_ORDER = 2**31
_PRIMITIVE_SCAN_CAP = 10**6
SIEVE_CAP = 10**8

# Deterministic Miller-Rabin witness set for n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for any n the package handles."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def primes_in_range(lo: int, hi: int) -> np.ndarray:
    """Primes in the half-open interval [lo, hi), ascending, as int64.

    Sieves the segment with the primes up to sqrt(hi), found the same way;
    hi - 1 is capped at SIEVE_CAP.
    """
    if hi - 1 > SIEVE_CAP:
        raise LimitTooLarge(f"sieve limit {hi - 1} above cap {SIEVE_CAP}")
    lo = max(lo, 2)
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(hi - lo, dtype=bool)
    for q in primes_in_range(2, math.isqrt(hi - 1) + 1).tolist():
        start = max(q * q, -(-lo // q) * q)
        flags[start - lo :: q] = False
    return np.flatnonzero(flags) + lo


# Trial division by these proves any cofactor below 2^32 prime.
_TRIAL_PRIMES = primes_in_range(2, 1 << 16).tolist()


@lru_cache(maxsize=65536)
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
    if q < 2:
        return None
    fs = factorize(q)
    if len(fs) != 1:
        return None
    return fs[0]


def _decode(p: int, k: int, rep: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(rep % p)
        rep //= p
    return out


def _encode(p: int, coeffs: Sequence[int]) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * p + c
    return out


def _poly_has_root(coeffs: Sequence[int], p: int) -> bool:
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return True
    return False


def _poly_rem_is_zero(dividend: Sequence[int], divisor: Sequence[int], p: int) -> bool:
    # Both monic, coefficient lists LSB first.
    rem = list(dividend)
    dd = len(divisor) - 1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            for j in range(dd + 1):
                rem[i - dd + j] = (rem[i - dd + j] - c * divisor[j]) % p
    return all(c == 0 for c in rem[:dd])


def _is_irreducible(coeffs: Sequence[int], p: int, k: int) -> bool:
    if coeffs[0] == 0:
        return k == 1
    if _poly_has_root(coeffs, p):
        return k == 1
    if k <= 3:
        return True
    # Degrees 4..6: a factorization with no linear part forces a monic
    # divisor of degree 2..k//2.
    for d in range(2, k // 2 + 1):
        for t in range(p**d):
            divisor = _decode(p, d, t) + [1]
            if _poly_rem_is_zero(coeffs, divisor, p):
                return False
    return True


@dataclass(frozen=True)
class FieldDescriptor:
    """Canonical description of GF(p^k); acts as the element factory."""

    p: int
    k: int
    q: int
    modulus: Optional[tuple[int, ...]]
    q1_factors: tuple[tuple[int, int], ...]

    def element(self, rep: int) -> "FieldElement":
        if not 0 <= rep < self.q:
            raise ValueError(f"element code {rep} outside [0, {self.q})")
        return FieldElement(self, rep)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self) -> Iterator["FieldElement"]:
        for rep in range(self.q):
            yield FieldElement(self, rep)

    def __repr__(self) -> str:
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def _make_field_cached(p: int, k: int) -> FieldDescriptor:
    q = p**k
    if q > _MAX_ORDER:
        raise FieldTooLarge(f"field order {q} exceeds {_MAX_ORDER}")
    modulus: Optional[tuple[int, ...]] = None
    if k > 1:
        for t in range(q):
            coeffs = _decode(p, k, t) + [1]
            if _is_irreducible(coeffs, p, k):
                modulus = tuple(coeffs)
                break
        else:
            raise NoIrreducibleFound(f"no monic irreducible of degree {k} over GF({p})")
    return FieldDescriptor(p=p, k=k, q=q, modulus=modulus, q1_factors=factorize(q - 1))


def make_field(p: int, k: int = 1) -> FieldDescriptor:
    """Construct (and cache) GF(p^k). k is capped at 6 and p^k at 2^31."""
    if not is_prime(p):
        raise CompositeCharacteristic(f"characteristic {p} is not prime")
    if not 1 <= k <= _MAX_DEGREE:
        raise DegreeOutOfRange(f"degree {k} outside 1..{_MAX_DEGREE}")
    return _make_field_cached(p, k)


class FieldElement:
    """Immutable element of a FieldDescriptor, supporting field arithmetic.

    Integers mix freely with elements and embed as scalars (n mod p).
    """

    __slots__ = ("field", "rep")

    def __init__(self, field: FieldDescriptor, rep: int):
        if not 0 <= rep < field.q:
            raise ValueError(f"element code {rep} outside [0, {field.q})")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rep", rep)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other: object) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
            return other
        if isinstance(other, int):
            return FieldElement(self.field, other % self.field.p)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: object) -> "FieldElement":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        f = self.field
        if f.k == 1:
            return FieldElement(f, (self.rep + rhs.rep) % f.p)
        a = _decode(f.p, f.k, self.rep)
        b = _decode(f.p, f.k, rhs.rep)
        return FieldElement(f, _encode(f.p, [(x + y) % f.p for x, y in zip(a, b)]))

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        f = self.field
        if f.k == 1:
            return FieldElement(f, -self.rep % f.p)
        a = _decode(f.p, f.k, self.rep)
        return FieldElement(f, _encode(f.p, [-x % f.p for x in a]))

    def __sub__(self, other: object) -> "FieldElement":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "FieldElement":
        lhs = self._coerce(other)
        if lhs is NotImplemented:
            return NotImplemented
        return lhs + (-self)

    def __mul__(self, other: object) -> "FieldElement":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        f = self.field
        if f.k == 1:
            return FieldElement(f, self.rep * rhs.rep % f.p)
        return FieldElement(f, _mul_rep(f, self.rep, rhs.rep))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "FieldElement":
        if not isinstance(e, int):
            return NotImplemented
        f = self.field
        if self.rep == 0:
            if e == 0:
                return f.one
            if e < 0:
                raise DivisionByZero("zero has no negative powers")
            return f.zero
        e %= f.q - 1
        if f.k == 1:
            return FieldElement(f, pow(self.rep, e, f.p))
        acc = 1
        base = self.rep
        while e:
            if e & 1:
                acc = _mul_rep(f, acc, base)
            base = _mul_rep(f, base, base)
            e >>= 1
        return FieldElement(f, acc)

    def inv(self) -> "FieldElement":
        if self.rep == 0:
            raise DivisionByZero("zero is not invertible")
        return self ** (self.field.q - 2)

    def __truediv__(self, other: object) -> "FieldElement":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self * rhs.inv()

    def __rtruediv__(self, other: object) -> "FieldElement":
        lhs = self._coerce(other)
        if lhs is NotImplemented:
            return NotImplemented
        return lhs * self.inv()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.rep == other.rep
        if isinstance(other, int):
            return self.rep == other % self.field.p
        return NotImplemented

    def __lt__(self, other: "FieldElement") -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.field != self.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
        return self.rep < other.rep

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.k, self.rep))

    def __bool__(self) -> bool:
        return self.rep != 0

    def __repr__(self) -> str:
        return f"GF({self.field.q})[{self.rep}]"


def _mul_rep(f: FieldDescriptor, a: int, b: int) -> int:
    p, k = f.p, f.k
    ca = _decode(p, k, a)
    cb = _decode(p, k, b)
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(ca):
        if x:
            for j, y in enumerate(cb):
                prod[i + j] += x * y
    mod = f.modulus
    assert mod is not None
    for i in range(2 * k - 2, k - 1, -1):
        c = prod[i] % p
        if c:
            for j in range(k):
                prod[i - k + j] -= c * mod[j]
        prod[i] = 0
    return _encode(p, [c % p for c in prod[:k]])


def is_primitive(a: FieldElement) -> bool:
    """True iff a generates the full unit group."""
    if a.rep == 0:
        raise ZeroElement("zero is not a unit")
    q1 = a.field.q - 1
    return all(a ** (q1 // f) != a.field.one for f, _ in a.field.q1_factors)


@lru_cache(maxsize=4096)
def least_primitive(field: FieldDescriptor) -> int:
    """Code of the least primitive element of the field."""
    if field.k == 1:
        return smallest_primitive_root(field.p)
    return next(r for r in range(1, field.q) if is_primitive(FieldElement(field, r)))


def _digit_matrix(field: FieldDescriptor, a: int) -> np.ndarray:
    # Row j holds the digits of a * x^j, so digits @ matrix multiplies by a.
    p, k = field.p, field.k
    return np.array([_decode(p, k, _mul_rep(field, a, p**j)) for j in range(k)], dtype=np.int64)


@lru_cache(maxsize=8)
def power_table(field: FieldDescriptor, alpha: int) -> np.ndarray:
    """Codes of alpha^0 .. alpha^(q-2) as a read-only int64 array.

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
        mat = _digit_matrix(field, alpha)
        while filled < n:
            m = min(filled, n - filled)
            digits = out[:m, None] // place % p
            out[filled : filled + m] = digits @ mat % p @ place
            filled += m
            mat = mat @ mat % p
    out.flags.writeable = False
    return out


def discrete_logs(field: FieldDescriptor, base: int) -> np.ndarray:
    """logs[code] = i where code = base^i, 0 <= i <= q-2, for a primitive base.

    Slot 0 holds -1. Capped at order 10^6.
    """
    if field.q > _PRIMITIVE_SCAN_CAP:
        raise FieldTooLarge(f"log table capped at order {_PRIMITIVE_SCAN_CAP}")
    logs = np.full(field.q, -1, dtype=np.int64)
    logs[power_table(field, base)] = np.arange(field.q - 1)
    return logs


def field_tables(field: FieldDescriptor) -> tuple[np.ndarray, np.ndarray]:
    """(exp, logs) of the least primitive element g: exp[i] = g^i, logs[g^i] = i
    and logs[0] = -1. The 10^6 log-table cap is checked before either is built."""
    g = least_primitive(field)
    logs = discrete_logs(field, g)
    return power_table(field, g), logs


@lru_cache(maxsize=8)
def primitive_exponents(n: int) -> np.ndarray:
    """Exponents i in [0, n) with gcd(i, n) = 1, as a read-only int64 array.

    For a generator alpha of a cyclic group of order n, alpha^i generates
    it exactly for these i.
    """
    coprime = np.ones(n, dtype=bool)
    for q, _ in factorize(n):
        coprime[::q] = False
    out = np.flatnonzero(coprime).astype(np.int64, copy=False)
    out.flags.writeable = False
    return out


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
    """Square roots of a modulo an odd prime p, sorted, or None for a non-residue."""
    if p == 2:
        raise EvenModulus("square roots mod 2 are not supported")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if not 0 <= a < p:
        raise ValueError(f"residue {a} outside [0, {p})")
    if a == 0:
        return (0,)
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return tuple(sorted((r, p - r)))
    # Tonelli-Shanks for p = 1 (mod 4).
    s = p - 1
    e = 0
    while s % 2 == 0:
        s //= 2
        e += 1
    n = 2
    while pow(n, (p - 1) // 2, p) != p - 1:
        n += 1
    x = pow(a, (s + 1) // 2, p)
    b = pow(a, s, p)
    g = pow(n, s, p)
    r = e
    while b != 1:
        t = b
        m = 0
        while t != 1:
            t = t * t % p
            m += 1
        gs = pow(g, 1 << (r - m - 1), p)
        x = x * gs % p
        g = gs * gs % p
        b = b * g % p
        r = m
    return tuple(sorted((x, p - x)))


def is_primitive_root(a: int, p: int, p1_factors: Optional[tuple[tuple[int, int], ...]] = None) -> bool:
    """True iff a generates the units mod prime p. Factors of p-1 may be supplied."""
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if p1_factors is None:
        p1_factors = factorize(p - 1)
    return _is_primitive_root_unchecked(a, p, p1_factors)


def _is_primitive_root_unchecked(a: int, p: int, p1_factors: tuple[tuple[int, int], ...]) -> bool:
    # For loops over candidates whose caller has already proved p prime.
    a %= p
    if a == 0:
        return False
    p1 = p - 1
    return all(pow(a, p1 // f, p) != 1 for f, _ in p1_factors)


def smallest_primitive_root(p: int) -> int:
    """Least primitive root modulo prime p (1 for p = 2)."""
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if p == 2:
        return 1
    return _least_root(p, factorize(p - 1))


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


def _square_repeatedly(t: np.ndarray, k: np.ndarray, p: np.ndarray) -> np.ndarray:
    # t^(2^k) mod p element-wise, each element squared only its own k times.
    t = t.copy()
    todo = np.flatnonzero(k > 0)
    for done in itertools.count(1):
        if not todo.size:
            return t
        t[todo] = t[todo] * t[todo] % p[todo]
        todo = todo[k[todo] > done]


def sqrt_mod_array(a, p) -> np.ndarray:
    """Element-wise square root of a mod odd prime p, or -1 for a non-residue.

    Of the two roots r and p - r the smaller is returned (0 for a = 0).
    Tonelli-Shanks (Cohen, A Course in Computational Algebraic Number
    Theory, 1.5.1), with every loop run over the shrinking set of elements
    it has not finished yet.
    """
    p = _modulus_array(p)
    a, p = np.broadcast_arrays(np.asarray(a, dtype=np.int64) % p, p)
    if (p % 2 == 0).any():
        raise EvenModulus("square roots mod 2 are not supported")
    out = np.where(a == 0, 0, -1)
    idx = np.flatnonzero(a)
    a, p = a.ravel()[idx], p.ravel()[idx]

    # p - 1 = s * 2^e with s odd; x = a^((s+1)/2) and b = a^s from one power.
    low = (p - 1) & (1 - p)
    e = np.frexp(low)[1].astype(np.int64) - 1  # exact: low is a power of two
    s = (p - 1) // low
    x = pow_mod_array(a, s // 2, p)
    b = x * x % p * a % p
    x = x * a % p
    # Euler's criterion: a is a residue iff b^(2^(e-1)) = 1.
    residue = _square_repeatedly(b, e - 1, p) == 1

    # Where b != 1 the root is corrected by powers of g = z^s for a
    # non-residue z. A residue has b != 1 only if e >= 2, so these p are
    # 1 mod 4 and, by quadratic reciprocity, an odd prime z is a square mod
    # p iff p is a square mod z; 2 is a non-residue iff p = 5 mod 8. The
    # least non-residue is a prime below sqrt(p) + 1.
    act = np.flatnonzero(residue & (b != 1))
    z = np.zeros_like(p)
    pending = act
    for c in primes_in_range(2, math.isqrt(int(p.max(initial=0))) + 2).tolist():
        if not pending.size:
            break
        if c == 2:
            found = p[pending] % 8 == 5
        else:
            found = ~np.isin(p[pending] % c, np.arange(1, c) ** 2 % c)
        z[pending[found]] = c
        pending = pending[~found]
    g = np.zeros_like(p)
    g[act] = pow_mod_array(z[act], s[act], p[act])
    r = e
    while act.size:
        pa, ba = p[act], b[act]
        # m = least m with ba^(2^m) = 1; 0 < m < r because ba is a residue.
        m = np.zeros_like(ba)
        t = ba
        live = t != 1
        while live.any():
            t = np.where(live, t * t % pa, t)
            m += live
            live = t != 1
        gs = _square_repeatedly(g[act], r[act] - m - 1, pa)
        x[act] = x[act] * gs % pa
        g[act] = gs * gs % pa
        b[act] = ba * g[act] % pa
        r[act] = m
        act = act[b[act] != 1]
    out.ravel()[idx[residue]] = np.minimum(x, p - x)[residue]
    return out


def primitive_root_mask(a, p) -> np.ndarray:
    """Whether a[..., i] generates the units mod p[i], for a 1-D array of primes p.

    p - 1 is factored by trial division with the primes up to sqrt(max p):
    every (index, prime factor) pair is collected first, what is left of
    p - 1 afterwards is 1 or a single prime, and one batched exponentiation
    tests a^((p-1)/q) != 1 for all pairs at once. a = 0 mod p is not
    primitive; leading axes of a are tested against the same p.
    """
    p = _modulus_array(p)
    a = np.asarray(a, dtype=np.int64) % p
    if not p.size:
        return np.zeros(a.shape, dtype=bool)
    n = p - 1
    rem = n.copy()
    idx_parts, q_parts = [], []
    live = np.arange(p.size)
    for q in primes_in_range(2, math.isqrt(int(p.max())) + 1).tolist():
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
    idx = np.concatenate([*idx_parts, big])
    q = np.concatenate([*q_parts, rem[big]])

    ok = a != 0
    exps, mods = n[idx] // q, p[idx]
    for row_a, row_ok in zip(a.reshape(-1, p.size), ok.reshape(-1, p.size)):
        row_ok[idx[pow_mod_array(row_a[idx], exps, mods) == 1]] = False
    return ok
