"""Field arithmetic, primality, and modular square roots."""

from __future__ import annotations

import bisect
import math
import tracemalloc

import pytest
import numpy as np
from hypothesis import example, given, settings, strategies as st

import oracles
from costaskit import density, ff
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


@pytest.mark.parametrize("p, k", [(997, 2), (97, 3), (31, 4), (13, 5), (7, 6), (46337, 2)])
def test_digit_columns_near_the_caps(p, k):
    # power_table and affine_map take the GF(p^k) digits one at a time, from
    # x // p^j; the sums they form stay below 2 q p, exact in int64 up to
    # q < 2^31 (GF(46337^2), whose table is too large to build here).
    f = make_field(p, k)
    rng = np.random.default_rng(p)
    codes = np.concatenate([[0, 1, f.q - 1], rng.integers(0, f.q, 200)])
    for s, c in ((-1, 1), (3, -2), (p - 1, p + 5)):
        want = [field_add(f, field_mul(f, s % p, x), c % p) for x in codes.tolist()]
        assert affine_map(f, codes, s, c).tolist() == want
    if f.q > 10**6:
        return
    a = least_primitive(f)
    table = power_table(f, a)
    assert (np.sort(table) == np.arange(1, f.q)).all()
    for i in rng.integers(0, f.q - 2, 200).tolist():
        assert int(table[i + 1]) == field_mul(f, int(table[i]), a)


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


@pytest.mark.parametrize("n", [4095, 4096, 4097, 8193])
def test_pow_mod_array_across_block_edges(n):
    # the kernel runs in blocks of 4096: the last element of each block,
    # the first of the next, and a last block of one
    rng = np.random.default_rng(n)
    a = rng.integers(-(2**40), 2**40, n)
    e = rng.integers(0, 2**rng.integers(0, 63, n), dtype=np.int64)
    p = rng.integers(1, 2**31, n)
    e[-1], p[-1] = 2**62 + 3, 2**31 - 1
    want = [pow(x, y, m) for x, y, m in zip(a.tolist(), e.tolist(), p.tolist())]
    assert pow_mod_array(a, e, p).tolist() == want


def test_pow_mod_array_broadcasts_rows_over_one_exponent_row():
    # a 2-D a with 1-D e and p, across a block edge
    rng = np.random.default_rng(7)
    p = rng.integers(1, 2**31, 1500)
    e = rng.integers(0, 2**31, 1500)
    a = rng.integers(0, 2**31, (3, 1500))
    got = pow_mod_array(a, e, p)
    assert got.shape == (3, 1500)
    assert got.tolist() == [[pow(x, y, m) for x, y, m in zip(row, e.tolist(), p.tolist())] for row in a.tolist()]
    assert pow_mod_array(np.empty((2, 0), dtype=np.int64), [], []).shape == (2, 0)


def test_pow_mod_array_memory_is_bounded():
    # Past the 8-byte result, a 4096-element block holds its 128 KiB table
    # and a few 32 KiB digit and product arrays. Exponents near 2^27, as
    # for the order tests below the sieve cap.
    n = 20_000
    rng = np.random.default_rng(3)
    a, e, p = rng.integers(0, 2**27, n), rng.integers(2**26, 2**27, n), rng.integers(2**26, 2**27, n)
    tracemalloc.start()
    try:
        pow_mod_array(a, e, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n + (1 << 19)


def test_pow_mod_array_broadcast_memory_is_bounded():
    # An (8, 20 000) a over one row of exponents and moduli. The broadcast
    # e and p are copied out a block at a time, so past the 8-byte result
    # the peak stays within the 1-D bound, below one full-size int64 copy.
    rng = np.random.default_rng(4)
    a = rng.integers(0, 2**27, (8, 20_000))
    e, p = rng.integers(2**26, 2**27, 20_000), rng.integers(2**26, 2**27, 20_000)
    tracemalloc.start()
    try:
        got = pow_mod_array(a, e, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * a.size + (1 << 19) < 2 * 8 * a.size
    # each row a run of blocks, against the 1-D kernel
    assert all((got[i] == pow_mod_array(a[i], e, p)).all() for i in range(8))


def test_pow_mod_array_exponent_lengths():
    # e = 0 and 1; odd and even bit lengths, so the top window holds one
    # bit or two; every exponent of a block equal or mixed
    p = np.array([2**31 - 1, 7, 1, 65537, 1000003], dtype=np.int64)
    a = np.array([3, 10, 5, 2**31 - 2, -9], dtype=np.int64)
    for e in [0, 1, 2, 3, 4, 5, 7, 8, 2**30, 2**31 - 2, 2**62 - 1, 2**62]:
        assert pow_mod_array(a, e, p).tolist() == [pow(x, e, m) for x, m in zip(a.tolist(), p.tolist())], e
    mixed = np.arange(p.size) ** 7
    assert pow_mod_array(a, mixed, p).tolist() == [pow(*c) for c in zip(a.tolist(), mixed.tolist(), p.tolist())]
    assert pow_mod_array(0, 0, 5).tolist() == 1 and pow_mod_array(4, 0, 1).tolist() == 0


@pytest.mark.parametrize("args, message", [
    ((2, 3, 0), "modulus 0 is not positive"),
    ((2, 3, -7), "modulus -7 is not positive"),
    ((2, 3, [5, 0, 7]), "modulus 0 is not positive"),
    ((2.5, 3, 7), "bases must be int64 integers, not float64"),
    ((2, 3.7, 7), "exponents must be int64 integers, not float64"),
    ((2, 3, 7.0), "moduli must be int64 integers, not float64"),
    ((True, 3, 7), "bases must be int64 integers, not bool"),
    ((2, [True], 7), "exponents must be int64 integers, not bool"),
    ((2, 3, True), "moduli must be int64 integers, not bool"),
    ((2**63, 3, 7), "bases must be int64 integers, not uint64"),
    ((2, -1, 7), "exponents must be nonnegative"),
])
def test_pow_mod_array_refuses_bad_input(args, message):
    with pytest.raises(ValueError) as info:
        pow_mod_array(*args)
    assert type(info.value) is ValueError and str(info.value) == message


def test_batched_kernels_refuse_bad_moduli():
    for p in ([0, 5], [-3], [3.0], [True]):
        with pytest.raises(ValueError, match="moduli|modulus"):
            sqrt_small(5, p)
        for stage in (ff._half_test, ff._odd_tests):
            with pytest.raises(ValueError, match="moduli|modulus"):
                stage([2], p, 1)


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


@pytest.mark.parametrize("d", [
    *range(-16, 0), *range(1, 21), *(q for q in oracles.simple_sieve(68) if q > 20),
])
def test_residue_classes_match_jacobi_and_are_read_only(d):
    # every fold discriminant, and every prime the non-residue search tries below SIEVE_CAP
    table = ff._residue_classes(d)
    assert table.tolist() == [n % 2 == 1 and oracles.jacobi(d, n) != -1 for n in range(4 * abs(d))]
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[1] = not table[1]
    assert ff._residue_classes(d) is table


def test_residue_classes_built_once_per_key_in_a_census():
    ff._residue_classes.cache_clear()
    density.census_t4(3 * 10**5, workers=1)
    info = ff._residue_classes.cache_info()
    # each key's table was built once, and later segments read it again
    assert info.misses == info.currsize > 0 and info.hits > 0


def test_residue_classes_match_euler():
    for d in range(-40, 41):
        if not d:
            continue
        table = ff._residue_classes(d)
        for p in oracles.simple_sieve(600)[1:]:
            assert table[p % (4 * abs(d))] == (pow(d, (p - 1) // 2, p) != p - 1), (d, p)


def _order_tests(a, p, g):
    # both stages of the order test at every column
    return ff._odd_tests(a, p, g), ff._half_test(a, p, g)


def _has_order_n(a, p, g: int = 1) -> list[bool]:
    # a has order N = (p - 1)/gcd(g, p - 1) where it passes every test but
    # q = 2 and fails that one; half must say whether a^(N/2) = 1
    passes, half = _order_tests(a, p, g)
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
    passes, half = _order_tests(np.empty((2, 0), dtype=np.int64), [], 1)
    assert passes.shape == half.shape == (2, 0)


def test_orders_agree_with_order_tests():
    # the g-th powers of the primitive roots are the elements of order
    # (p - 1)/gcd(g, p - 1), at one stride or at 2^62, past every p - 1
    p = np.array(oracles.simple_sieve(3000)[1:], dtype=np.int64)
    a = np.stack([(np.arange(p.size) * (r + 2) + r) % p for r in range(4)])
    order = np.array([[oracles.brute_order(v, q) if v else 0 for v, q in zip(row, p.tolist())] for row in a.tolist()])
    for g in (1, 2, 3, 4, 6, 12, 2**62):
        passes, half = _order_tests(a, p, g)
        assert (order == (p - 1) // np.gcd(g, p - 1)).tolist() == (passes & ~half).tolist(), g
        assert (passes & ~half).tolist() == [_has_order_n(row, p, g) for row in a], g


def test_batched_kernels_reject_modulus_from_two_to_the_31():
    assert pow_mod_array(3, 2**31 - 2, 2**31 - 1).tolist() == 1
    for big in (2**31, 2**31 + 11):
        with pytest.raises(LimitTooLarge):
            pow_mod_array(2, 3, [5, big])
        with pytest.raises(LimitTooLarge):
            sqrt_small(1, [5, big])
        for stage in (ff._half_test, ff._odd_tests):
            with pytest.raises(LimitTooLarge):
                stage(2, [5, big], 1)


def test_primitive_exponents_match_gcd_definition():
    orders = [q - 1 for q in (2**6, 3**7, 5**6, 7**5, 11**4, 65521)]
    for n in [*range(1, 4097), *orders]:
        js = np.arange(n, dtype=np.int64)
        got = primitive_exponents(n)
        assert got.dtype == np.int64
        assert np.array_equal(got, js[np.gcd(js, n) == 1]), n
