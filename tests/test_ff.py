"""Field arithmetic, primality, and modular square roots."""

from __future__ import annotations

import bisect
import math
import tracemalloc

import pytest
import numpy as np
from hypothesis import example, given, settings, strategies as st

import oracles
from costaskit import ff
from oracles import field_add, field_mul, field_pow, multiplicative_order, primitive_elements
from costaskit.ff import (
    CompositeCharacteristic,
    DegreeOutOfRange,
    EvenModulus,
    FieldTooLarge,
    LimitTooLarge,
    affine_map,
    factorize,
    field_tables,
    is_prime,
    least_primitive,
    make_field,
    pow_mod_array,
    power_table,
    prime_power,
    primitive_exponents,
    sqrt_mod_p,
    sqrt_small,
)

FIELD_PARAMS = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (2, 2), (3, 2), (2, 3), (5, 2), (3, 3), (2, 4)]

# Every extension field up to order 2^16.
SMALL_EXTENSIONS = [
    (p, k) for p in range(2, 257) if is_prime(p) for k in range(2, 7) if p**k <= 2**16
]


def test_is_prime_matches_sieve():
    primes = set(oracles.simple_sieve(10000))
    for n in range(10000):
        assert is_prime(n) == (n in primes)


def test_is_prime_large_values():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31)
    assert not is_prime(1)
    assert not is_prime(-7)


def test_is_prime_refused_from_the_thirteen_base_bound():
    # psi_13, the least strong pseudoprime to the bases 2 through 41, would pass
    psi13 = 1287836182261 * 2575672364521
    assert ff._PRIME_CAP == psi13
    assert not is_prime(psi13 - 1)
    for call, n in ((is_prime, psi13), (is_prime, psi13 + 2), (prime_power, psi13), (factorize, 2 * psi13)):
        with pytest.raises(LimitTooLarge):
            call(n)
    # psi_12, below the cap, passes the bases 2 through 37 and fails base 41
    psi12 = 399165290221 * 798330580441
    assert is_prime(399165290221) and is_prime(798330580441)
    assert not is_prime(psi12)
    with pytest.raises(LimitTooLarge):
        prime_power(psi12)


def test_factorize_known_values():
    assert factorize(1) == ()
    assert factorize(2) == ((2, 1),)
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert factorize(2**20) == ((2, 20),)
    assert factorize(999983) == ((999983, 1),)
    assert factorize(2 * (2**61 - 1)) == ((2, 1), (2**61 - 1, 1))
    with pytest.raises(ValueError):
        factorize(0)
    # no prime factor below 2^16, so trial division cannot split these
    with pytest.raises(LimitTooLarge):
        factorize(65537**2)
    with pytest.raises(LimitTooLarge):
        prime_power(65537 * 65539)


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_round_trip(n):
    fs = factorize(n)
    prod = 1
    for p, m in fs:
        assert is_prime(p)
        assert m >= 1
        prod *= p**m
    assert prod == n
    assert list(fs) == sorted(fs)


def _check_factor_pairs(values: list[int]) -> None:
    n = np.array(values, dtype=np.int64)
    idx, q = ff._factor_pairs(n)
    pairs = sorted(zip(idx.tolist(), q.tolist()))
    ref_idx, ref_q = oracles.trial_division_pairs(n)
    assert pairs == sorted(zip(ref_idx.tolist(), ref_q.tolist()))
    # the primes, each divided out as often as it divides, multiply back to n
    left = list(values)
    for i, p in pairs:
        assert is_prime(p) and left[i] % p == 0
        while left[i] % p == 0:
            left[i] //= p
    assert left == [1] * len(values)


def _top_prime_powers() -> list[int]:
    """q^k for the largest prime q with q^k < 2^31, k = 2..30: 46337^2 for
    k = 2, as 46337 < 2^15.5 < 46349 are neighbouring primes."""
    out = []
    for k in range(2, 31):
        q = math.isqrt(2**31 - 1) if k == 2 else int((2**31 - 1) ** (1 / k)) + 1
        while q**k >= 2**31 or not is_prime(q):
            q -= 1
        out.append(q**k)
    return out


_WORD_TOP = 2**31 - 1
_FACTOR_EDGES = [
    1,
    *(2**k for k in range(31)),
    *_top_prime_powers(),
    # n = q t at both ends of t
    *(q * t for q in (3, 46337, 46349) for t in (1, 2, 3, _WORD_TOP // q - 1, _WORD_TOP // q)),
    *range(_WORD_TOP - 40, _WORD_TOP + 1),
]


@settings(max_examples=200)
@given(st.lists(
    st.one_of(st.integers(1, _WORD_TOP), st.integers(1, 1000), st.sampled_from(_FACTOR_EDGES)), max_size=60,
).map(lambda v: v + v[::3]))
def test_factor_pairs_match_trial_division(values):
    _check_factor_pairs(values)


def test_factor_pairs_edge_cases():
    assert 46337**2 < 2**31 < 46349**2 and is_prime(46337) and is_prime(46349)
    for values in ([1], [], [2**k for k in range(31)], _FACTOR_EDGES, _FACTOR_EDGES[::-1]):
        _check_factor_pairs(values)
    # no odd prime to test: every odd part is below 9
    for values in ([1, 2, 3, 4, 5, 6, 7, 8], [8, 8, 3, 1], *([v] for v in range(1, 9))):
        _check_factor_pairs(values)
    # the odd part, not n, has to lie below 2^32
    assert [a.tolist() for a in ff._factor_pairs(np.array([2**40, 3 << 40]))] == [[0, 1, 1], [2, 2, 3]]
    with pytest.raises(LimitTooLarge):
        ff._factor_pairs(np.array([5, 2**32 + 1]))


def test_exact_division_inverts_every_odd_trial_prime():
    q = np.array(ff._TRIAL_PRIMES[1:], dtype=np.int64)
    inv, bound = ff._exact_division(q)
    assert inv.dtype == bound.dtype == np.uint32
    for p, v, b in zip(q.tolist(), inv.tolist(), bound.tolist()):
        assert p * v % 2**32 == 1 and b == (2**32 - 1) // p, p


def test_factor_pairs_memory_is_bounded():
    # The top 2^17 segment below the sieve cap has 7160 primes and its odd
    # parts 907 odd primes to test; one broadcast of them all would hold
    # 26 MB, the 2^16-cell blocks hold 320 KB.
    n = ff.primes_in_range(ff.SIEVE_CAP + 1 - (1 << 17), ff.SIEVE_CAP + 1) - 1
    tracemalloc.start()
    try:
        ff._factor_pairs(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


_PRIMES_BELOW_270001 = oracles.simple_sieve(270_001)


def _sieve_reference(lo: int, hi: int) -> list[int]:
    ref = _PRIMES_BELOW_270001
    return ref[bisect.bisect_left(ref, lo) : bisect.bisect_left(ref, max(lo, hi))]


@settings(max_examples=500)
@given(st.integers(-10, 2 * 10**5), st.integers(0, 70_000))
@example(169, 1)
@example(289, 1)
@example(30029, 30030)
def test_primes_in_range_matches_simple_sieve(lo, width):
    assert ff.primes_in_range(lo, lo + width).tolist() == _sieve_reference(lo, lo + width)


def test_primes_in_range_edges():
    # ranges from and to the wheel primes, 17, 169 = 13^2 and 289 = 17^2, hi <= lo among them
    edges = [-3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 17, 18, 168, 169, 170, 288, 289, 290, 30031]
    for lo in edges:
        for hi in edges:
            assert ff.primes_in_range(lo, hi).tolist() == _sieve_reference(lo, hi), (lo, hi)
    lo = ff.SIEVE_CAP - 3000
    window = ff.primes_in_range(lo, ff.SIEVE_CAP + 1)
    assert window.dtype == np.int64
    assert window.tolist() == [v for v in range(lo, ff.SIEVE_CAP + 1) if is_prime(v)]
    assert ff._TRIAL_PRIMES == oracles.simple_sieve(2**16)


def test_prime_power():
    assert prime_power(2) == (2, 1)
    assert prime_power(1024) == (2, 10)
    assert prime_power(121) == (11, 2)
    assert prime_power(27) == (3, 3)
    assert prime_power(12) is None
    assert prime_power(1) is None
    assert prime_power(0) is None


def test_make_field_moduli_pinned():
    assert make_field(2, 2).modulus == (1, 1, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(2, 3).modulus == (1, 1, 0, 1)
    assert make_field(7).modulus is None


@pytest.mark.parametrize("p,k", SMALL_EXTENSIONS)
def test_make_field_modulus_matches_bruteforce(p, k):
    assert make_field(p, k).modulus == oracles.smallest_irreducible_bruteforce(p, k)


@st.composite
def _gcd_batches(draw):
    """Rows (a, b, p) of one width: a = c u and b = c v share a random factor c,
    times powers of x, with some rows 0, so the rows finish at different steps."""
    w = draw(st.integers(2, 9))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        p = draw(st.sampled_from([2, 3, 5, 7, 13, 65521]))

        def poly(n):
            return draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=max(n, 1)))

        c = poly(w - 1)
        pair = []
        for _ in range(2):
            if draw(st.integers(0, 5)) == 0:
                pair.append([0] * w)
                continue
            u = oracles._poly_mul_mod(c, poly(w - len(c) + 1), p)
            u = [0] * draw(st.integers(0, w - len(u))) + u
            pair.append(u + [0] * (w - len(u)))
        rows.append((*pair, p))
    return rows


@settings(max_examples=200)
@given(_gcd_batches())
# every combination has a nonzero x-coefficient or is 0: the column slice alone
@example([([2, 3, 1], [3, 4, 1], 7), ([1, 1, 0], [1, 0, 0], 7)])
# 1 + 2x - (1 + 2x + x^2) = -x^2 needs `_strip_x`
@example([([1, 2, 1], [1, 2, 0], 7), ([2, 3, 1], [3, 4, 1], 7)])
def test_poly_gcd_matches_oracle(rows):
    a, b, p = (np.array(v, dtype=np.int64) for v in zip(*rows))
    g, dg = ff._poly_gcd(a, b, p[:, None])
    assert g.shape == a.shape
    for (x, y, q), row, d in zip(rows, g.tolist(), dg.tolist()):
        want = oracles.poly_gcd_reference(x, y, q)
        assert d == len(want) - 1
        assert not any(row[d + 1:])
        if d >= 0:
            assert [c * pow(row[d], q - 2, q) % q for c in row[:d + 1]] == want


@pytest.mark.parametrize("p,k", SMALL_EXTENSIONS)
def test_least_primitive_matches_bruteforce(p, k):
    f = make_field(p, k)
    assert least_primitive(f) == oracles.least_primitive_bruteforce(f)


# Certified once with the element-by-element search these kernels replaced.
@pytest.mark.parametrize("p,k,modulus,alpha", [
    (211, 4, (1, 1, 0, 0, 1), 229),
    (1289, 3, (1, 1, 0, 1), 1296),
    (31, 6, (5, 0, 0, 0, 0, 0, 1), 34),
    (46337, 2, (3, 0, 1), 46344),
])
def test_large_fields_pinned(p, k, modulus, alpha):
    f = make_field(p, k)
    assert f.modulus == modulus
    assert least_primitive(f) == alpha


def test_candidate_batches_double(monkeypatch):
    # x^3 + x + 1 is code 1290 over GF(1289); 81 rounds of 16 codes, or 7
    # doubling rounds. GF(17^4)'s least primitive element 307 is 290 codes
    # past 17: 19 rounds of 16, or 5.
    rounds = []
    batches = ff._batches

    def counted(start, stop):
        for codes in batches(start, stop):
            rounds.append(len(codes))
            yield codes

    field = make_field(17, 4)
    monkeypatch.setattr(ff, "_batches", counted)
    assert ff._least_irreducible(1289, 3) == (1, 1, 0, 1)
    assert rounds == [16, 32, 64, 128, 256, 512, 1024]
    rounds.clear()
    assert ff.least_primitive.__wrapped__(field) == 307
    assert rounds == [16, 32, 64, 128, 256]


def test_make_field_validation():
    with pytest.raises(CompositeCharacteristic):
        make_field(4)
    with pytest.raises(CompositeCharacteristic):
        make_field(1)
    with pytest.raises(DegreeOutOfRange):
        make_field(2, 0)
    with pytest.raises(DegreeOutOfRange):
        make_field(2, 7)
    with pytest.raises(FieldTooLarge):
        make_field(65537, 2)


def test_field_descriptor_basics():
    f = make_field(3, 2)
    assert f.q == 9
    assert repr(f) == "GF(9)"
    assert f.q1_factors == ((2, 3),)


def test_gf9_hand_arithmetic():
    # Modulus x^2 + 1, so code 3 is the imaginary unit i and code 4 is 1 + i.
    f = make_field(3, 2)
    assert power_table(f, 3).tolist() == [1, 3, 2, 6] * 2
    assert power_table(f, 4).tolist() == [1, 4, 6, 7, 2, 8, 3, 5]
    assert least_primitive(f) == 4
    assert (field_mul(f, 3, 3), field_mul(f, 4, 4)) == (2, 6)
    assert (multiplicative_order(f, 3), multiplicative_order(f, 4)) == (4, 8)


@st.composite
def _field_codes(draw, count):
    p, k = draw(st.sampled_from(FIELD_PARAMS))
    f = make_field(p, k)
    return f, [draw(st.integers(min_value=0, max_value=f.q - 1)) for _ in range(count)]


@given(_field_codes(3), st.integers(-20, 20), st.integers(-20, 20))
def test_field_axioms(fc, s, t):
    f, (a, b, c) = fc
    add, mul = lambda x, y: field_add(f, x, y), lambda x, y: field_mul(f, x, y)
    # The oracle's arithmetic is a field ...
    assert add(add(a, b), c) == add(a, add(b, c))
    assert add(a, b) == add(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, b) == mul(b, a)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, 0) == a and mul(a, 1) == a
    assert add(a, int(affine_map(f, np.array([a]), -1, 0)[0])) == 0
    # ... and the package's tables and affine map compute in it.
    exp, logs = field_tables(f)
    n = f.q - 1
    if a and b:
        assert int(exp[(logs[a] + logs[b]) % n]) == mul(a, b)
    if b:
        assert mul(b, int(exp[-logs[b] % n])) == 1
    assert int(affine_map(f, np.array([a]), s, t)[0]) == add(mul(s % f.p, a), t % f.p)


@given(_field_codes(1), st.integers(min_value=-20, max_value=40), st.integers(min_value=-20, max_value=40))
def test_pow_is_homomorphic(fc, m, n):
    f, (a,) = fc
    if a == 0:
        return
    table = power_table(f, a)
    power = lambda e: int(table[e % (f.q - 1)])
    assert power(m) == field_pow(f, a, m)
    assert field_mul(f, power(m), power(n)) == power(m + n)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_order_and_primitivity_match_oracle(p):
    f = make_field(p)
    for a in range(1, p):
        assert multiplicative_order(f, a) == oracles.brute_order(a, p)
    assert primitive_elements(f) == oracles.brute_primitive_roots(p)


def test_primitive_elements_extension_count():
    # The unit group is cyclic, so phi(q-1) elements are primitive.
    from math import prod

    for p, k in [(2, 2), (3, 2), (2, 3), (5, 2), (3, 3)]:
        f = make_field(p, k)
        phi = f.q - 1
        for fac, _ in f.q1_factors:
            phi = phi // fac * (fac - 1)
        elems = primitive_elements(f)
        assert len(elems) == phi
        assert all(multiplicative_order(f, e) == f.q - 1 for e in elems)
        assert elems == sorted(elems)


def test_lagrange_over_full_small_fields():
    # Every power table repeats with the period of its base's order, which divides q - 1.
    for p, k in [(11, 1), (101, 1), (2, 3), (3, 2), (5, 2), (2, 4), (3, 3)]:
        f = make_field(p, k)
        for e in range(1, f.q):
            order = multiplicative_order(f, e)
            table = power_table(f, e).tolist()
            assert (f.q - 1) % order == 0
            assert table == table[:order] * ((f.q - 1) // order)
            assert 1 not in table[1:order]


def test_primitive_elements_pinned():
    assert primitive_elements(make_field(5)) == [2, 3]
    assert primitive_elements(make_field(11)) == [2, 6, 7, 8]
    assert primitive_elements(make_field(3)) == [2]


def test_primitive_elements_cap():
    with pytest.raises(FieldTooLarge):
        primitive_elements(make_field(1048583))


def test_log_table_gf11():
    # 2 is the least primitive root mod 11
    table = field_tables(make_field(11))[1].tolist()
    assert table[0] == -1
    assert table[1] == 0
    assert table[2] == 1
    assert table[6] == 9
    assert sorted(table[1:]) == list(range(10))


def test_log_table_inverts_powers():
    f = make_field(3, 2)
    g = oracles.least_primitive_bruteforce(f)
    exp, logs = (t.tolist() for t in field_tables(f))
    assert logs[0] == -1
    for i in range(f.q - 1):
        assert exp[i] == field_pow(f, g, i) == [r for r, t in enumerate(logs) if t == i][0]


def test_table_cache_contract():
    # field_tables keeps one field's pair, read-only; the kernels behind it
    # keep nothing and return a fresh array per call.
    f = make_field(3, 2)
    exp, logs = field_tables(f)
    again = field_tables(f)
    assert again[0] is exp and again[1] is logs
    assert not exp.flags.writeable and not logs.flags.writeable
    for make in (lambda: power_table(f, 4), lambda: primitive_exponents(8)):
        a, b = make(), make()
        assert a.flags.writeable and not np.shares_memory(a, b)


def test_sqrt_mod_p_matches_brute():
    # The primes 3 mod 4 (3, 7, 11, 19, 23, 31, 43, 47) run Tonelli-Shanks with e = 1.
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 43, 47, 97]:
        for a in range(p):
            got = sqrt_mod_p(a, p)
            want = oracles.brute_sqrts(a, p)
            if not want:
                assert got is None
            else:
                assert got == tuple(want)


def test_sqrt_mod_p_pinned_and_errors():
    assert sqrt_mod_p(5, 41) == (13, 28)
    assert sqrt_mod_p(0, 7) == (0,)
    assert sqrt_mod_p(3, 7) is None
    with pytest.raises(EvenModulus):
        sqrt_mod_p(1, 2)
    with pytest.raises(ValueError):
        sqrt_mod_p(1, 9)
    with pytest.raises(ValueError):
        sqrt_mod_p(7, 7)


def test_primitive_roots_mod_p():
    # the scalar test behind fpr_set and least_primitive, multiples of p included
    for p in [2, 3, 5, 7, 11, 13, 29, 41]:
        roots = oracles.brute_primitive_roots(p)
        for a in range(2 * p):
            assert ff._is_primitive_root_unchecked(a, p, factorize(p - 1)) == (a % p in roots)
        assert least_primitive(make_field(p)) == min(roots)


def test_least_primitive_root_pinned():
    assert [least_primitive(make_field(p)) for p in (2, 7, 41)] == [1, 3, 6]


def _prime_at_least(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


# 7340033 = 7 * 2^20 + 1 makes Tonelli-Shanks run its longest loops; the
# least quadratic non-residues of 9257329, 22000801 and 48473881 are 53,
# 59 and 67.
_TWO_ADIC_AND_LATE_NONRESIDUE = (7340033, 9257329, 22000801, 48473881)
_ODD_PRIMES = st.one_of(
    st.sampled_from([3, 5, 7, 13, 17, 2**31 - 1, *_TWO_ADIC_AND_LATE_NONRESIDUE]),
    st.integers(3, 2**31 - 2).map(_prime_at_least),
)


@settings(max_examples=100)
@given(st.lists(
    st.tuples(st.integers(-(2**62), 2**62), st.integers(0, 2**62), st.integers(1, 2**31 - 1)),
    min_size=1, max_size=30,
))
def test_pow_mod_array_matches_pow(cases):
    a, e, p = (np.array(col, dtype=np.int64) for col in zip(*cases))
    assert pow_mod_array(a, e, p).tolist() == [pow(x, y, m) for x, y, m in cases]


def _sqrt_as_tuple(square: bool, r: int, p: int):
    return tuple(sorted({r, (p - r) % p})) if square else None


@settings(max_examples=100)
@given(st.lists(st.tuples(_ODD_PRIMES, st.integers(-20, 20).filter(bool)), min_size=1, max_size=30))
def test_sqrt_small_matches_sqrt_mod_p(cases):
    for d in {d for _, d in cases}:
        p = np.array([q for q, c in cases if c == d], dtype=np.int64)
        square, root = sqrt_small(d, p)
        for q, s, r in zip(p.tolist(), square.tolist(), root.tolist()):
            assert _sqrt_as_tuple(s, r, q) == sqrt_mod_p(d % q, q), (d, q)


def test_sqrt_small_every_small_residue():
    p = np.array([3, 5, *_TWO_ADIC_AND_LATE_NONRESIDUE])
    for d in [*range(-300, 0), *range(1, 301)]:
        square, root = sqrt_small(d, p)
        for q, s, r in zip(p.tolist(), square.tolist(), root.tolist()):
            assert _sqrt_as_tuple(s, r, q) == sqrt_mod_p(d % q, q), (d, q)
    # non-residues on both sides of the p = 3 (mod 4) split
    assert sqrt_small(3, [7])[0].tolist() == sqrt_small(2, [5])[0].tolist() == [False]
    with pytest.raises(EvenModulus):
        sqrt_small(1, [2, 3])


# p - 1 = s * 2^e with e = 32, 57, 26 and 27; the first two lie above 2^31
_SCALAR_TWO_ADIC = (18446744069414584321, 4179340454199820289)
_BATCHED_TWO_ADIC = (469762049, 2013265921, *_TWO_ADIC_AND_LATE_NONRESIDUE)


def test_sqrt_mod_p_checked_by_squaring():
    # checked against Euler's criterion and by squaring, not against sqrt_small
    for p in _SCALAR_TWO_ADIC:
        assert is_prime(p)
        assert sqrt_mod_p(0, p) == (0,)
        for a in range(1, 301):
            got = sqrt_mod_p(a, p)
            if got is None:
                assert pow(a, (p - 1) // 2, p) == p - 1, (a, p)
            else:
                r, other = got
                assert r * r % p == a and r + other == p, (a, p)


def test_sqrt_small_checked_by_squaring():
    assert all(is_prime(q) for q in _BATCHED_TWO_ADIC)
    p = np.array(_BATCHED_TWO_ADIC)
    for d in [*range(-20, 0), *range(1, 21)]:
        square, root = sqrt_small(d, p)
        for q, s, r in zip(p.tolist(), square.tolist(), root.tolist()):
            if s:
                assert r * r % q == d % q and r <= q - r, (d, q)
            else:
                assert pow(d, (q - 1) // 2, q) == q - 1 or d % q == 0, (d, q)


def test_residue_classes_match_euler():
    for d in range(-40, 41):
        if not d:
            continue
        table = ff._residue_classes(d)
        for p in oracles.simple_sieve(600)[1:]:
            assert table[p % (4 * abs(d))] == (pow(d, (p - 1) // 2, p) != p - 1), (d, p)


def _has_order_n(a, p, g: int = 1) -> list[bool]:
    # a has order N = (p - 1)/gcd(g, p - 1) where it passes every test but
    # q = 2 and fails that one; half must say whether a^(N/2) = 1
    passes, half = ff._order_tests(a, p, g)
    for x, q, h in zip(np.ravel(a).tolist(), np.resize(p, np.size(a)).tolist(), half.ravel().tolist()):
        n = (q - 1) // math.gcd(g, q - 1)
        assert h == (n % 2 == 0 and pow(x, n // 2, q) == 1), (x, q, g)
    return (passes & ~half).tolist()


@settings(max_examples=100)
@given(st.lists(
    st.tuples(st.integers(2, 10**7).map(_prime_at_least), st.integers(0, 2**40)),
    min_size=1, max_size=30,
))
def test_primitive_root_mask_matches_oracle(cases):
    p = np.array([q for q, _ in cases], dtype=np.int64)
    a = np.array([x for _, x in cases], dtype=np.int64)
    got = _has_order_n(np.stack((a, a + 1)), p)
    assert got[0] == [oracles.is_primitive(make_field(q), x % q) for q, x in cases]
    assert got[1] == [oracles.is_primitive(make_field(q), (x + 1) % q) for q, x in cases]


def test_primitive_root_mask_small_primes():
    # 19 - 1 = 2 * 3^2 and 101 - 1 = 2^2 * 5^2 leave a square for the trial loop
    for p in (2, 3, 5, 7, 11, 13, 19, 29, 41, 101):
        a = np.arange(2 * p)
        want = [oracles.is_primitive(make_field(p), int(x) % p) for x in a]
        assert _has_order_n(a, np.full(a.size, p)) == want
        # g-th powers of primitive roots: order (p - 1)/gcd(g, p - 1), down to
        # order 1 where p - 1 divides g
        for g in range(2, 13):
            powers = {pow(r, g, p) for r in range(1, p) if oracles.is_primitive(make_field(p), r)}
            want = [int(x) % p in powers for x in a]
            assert _has_order_n(a, np.full(a.size, p), g) == want, (p, g)
    passes, half = ff._order_tests(np.empty((2, 0), dtype=np.int64), [], 1)
    assert passes.shape == half.shape == (2, 0)


def test_order_tests_take_one_stride_per_row():
    # rows with their own g, repeats and zeros among them, in one call: each
    # row equals a call of its own, which `_has_order_n` holds to pow
    p = np.array(oracles.simple_sieve(3000)[1:], dtype=np.int64)
    strides = [1, 2, 3, 4, 6, 12, 5, 1, 10, 2**62]
    a = np.stack([(np.arange(p.size) * (r + 2) + r) % p for r in range(len(strides))])
    passes, half = ff._order_tests(a, p, strides)
    for row, g in enumerate(strides):
        assert (passes & ~half)[row].tolist() == _has_order_n(a[row], p, g), g
        own = ff._order_tests(a[row], p, g)
        assert passes[row].tolist() == own[0].tolist() and half[row].tolist() == own[1].tolist(), g


def test_batched_kernels_reject_modulus_from_two_to_the_31():
    assert pow_mod_array(3, 2**31 - 2, 2**31 - 1).tolist() == 1
    for big in (2**31, 2**31 + 11):
        with pytest.raises(LimitTooLarge):
            pow_mod_array(2, 3, [5, big])
        with pytest.raises(LimitTooLarge):
            sqrt_small(1, [5, big])
        with pytest.raises(LimitTooLarge):
            ff._order_tests(2, [5, big], 1)


def test_primitive_exponents_match_gcd_definition():
    orders = [q - 1 for q in (2**6, 3**7, 5**6, 7**5, 11**4, 65521)]
    for n in [*range(1, 4097), *orders]:
        js = np.arange(n, dtype=np.int64)
        got = primitive_exponents(n)
        assert got.dtype == np.int64
        assert np.array_equal(got, js[np.gcd(js, n) == 1]), n
