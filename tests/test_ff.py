"""Field arithmetic, primality, and modular square roots."""

from __future__ import annotations

import pytest
import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from oracles import multiplicative_order, primitive_elements
from costaskit.ff import (
    CompositeCharacteristic,
    DegreeOutOfRange,
    DivisionByZero,
    EvenModulus,
    FieldMismatch,
    FieldTooLarge,
    LimitTooLarge,
    ZeroElement,
    discrete_logs,
    factorize,
    is_prime,
    is_primitive,
    is_primitive_root,
    make_field,
    pow_mod_array,
    prime_power,
    primitive_exponents,
    primitive_root_mask,
    smallest_primitive_root,
    sqrt_mod_array,
    sqrt_mod_p,
)

FIELD_PARAMS = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (2, 2), (3, 2), (2, 3), (5, 2), (3, 3), (2, 4)]


def test_is_prime_matches_sieve():
    primes = set(oracles.simple_sieve(10000))
    for n in range(10000):
        assert is_prime(n) == (n in primes)


def test_is_prime_large_values():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31)
    assert not is_prime(1)
    assert not is_prime(-7)


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


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2)])
def test_make_field_modulus_matches_bruteforce(p, k):
    assert make_field(p, k).modulus == oracles.smallest_irreducible_bruteforce(p, k)


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
    assert f.zero.rep == 0 and f.one.rep == 1
    assert [e.rep for e in f.elements()] == list(range(9))
    with pytest.raises(ValueError):
        f.element(9)
    with pytest.raises(ValueError):
        f.element(-1)


def test_gf9_hand_arithmetic():
    # Modulus x^2 + 1, so element 3 is the imaginary unit.
    f = make_field(3, 2)
    i = f.element(3)
    assert (i * i).rep == 2
    one_plus_i = f.element(4)
    assert (one_plus_i * one_plus_i).rep == 6
    assert (one_plus_i**8).rep == 1
    assert multiplicative_order(one_plus_i) == 8
    assert is_primitive(one_plus_i)
    assert not is_primitive(i)


def test_int_mixing():
    f = make_field(11)
    a = f.element(4)
    assert (1 - a).rep == 8
    assert (a + 20).rep == 2
    assert (3 * a).rep == 1
    assert a == 4
    assert a != 5
    assert (2 / f.element(3)).rep == 8


def test_field_mismatch():
    a = make_field(2, 2).element(1)
    b = make_field(3, 2).element(1)
    with pytest.raises(FieldMismatch):
        a + b
    assert a != b


def test_pow_edge_cases():
    f = make_field(5)
    z = f.zero
    assert (z**0).rep == 1
    assert (z**3).rep == 0
    with pytest.raises(DivisionByZero):
        z**-1
    with pytest.raises(DivisionByZero):
        z.inv()
    a = f.element(2)
    assert (a**-1).rep == 3
    assert a ** (f.q - 1) == f.one
    with pytest.raises(ZeroElement):
        multiplicative_order(z)


@st.composite
def _field_elems(draw, count):
    p, k = draw(st.sampled_from(FIELD_PARAMS))
    f = make_field(p, k)
    reps = [draw(st.integers(min_value=0, max_value=f.q - 1)) for _ in range(count)]
    return f, [f.element(r) for r in reps]


@settings(deadline=None)
@given(_field_elems(3))
def test_field_axioms(fe):
    f, (a, b, c) = fe
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + f.zero == a
    assert a * f.one == a
    assert a + (-a) == f.zero
    if b.rep != 0:
        assert b * b.inv() == f.one
        assert (a / b) * b == a


@settings(deadline=None)
@given(_field_elems(1), st.integers(min_value=-20, max_value=40), st.integers(min_value=-20, max_value=40))
def test_pow_is_homomorphic(fe, m, n):
    f, (a,) = fe
    if a.rep == 0:
        return
    assert a**m * a**n == a ** (m + n)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_order_and_primitivity_match_oracle(p):
    f = make_field(p)
    for a in range(1, p):
        assert multiplicative_order(f.element(a)) == oracles.brute_order(a, p)
    lib = [e.rep for e in primitive_elements(f)]
    assert lib == oracles.brute_primitive_roots(p)


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
        assert all(multiplicative_order(e) == f.q - 1 for e in elems)
        assert [e.rep for e in elems] == sorted(e.rep for e in elems)


def test_lagrange_over_full_small_fields():
    for p, k in [(11, 1), (101, 1), (2, 3), (3, 2), (5, 2), (2, 4), (3, 3)]:
        f = make_field(p, k)
        for e in f.elements():
            if e.rep == 0:
                continue
            assert e ** (f.q - 1) == f.one
            assert (f.q - 1) % multiplicative_order(e) == 0


def test_primitive_elements_pinned():
    assert [e.rep for e in primitive_elements(make_field(5))] == [2, 3]
    assert [e.rep for e in primitive_elements(make_field(11))] == [2, 6, 7, 8]
    assert [e.rep for e in primitive_elements(make_field(3))] == [2]


def test_primitive_elements_cap():
    with pytest.raises(FieldTooLarge):
        primitive_elements(make_field(1048583))


def test_log_table_gf11():
    table = discrete_logs(make_field(11), 2).tolist()
    assert table[0] == -1
    assert table[1] == 0
    assert table[2] == 1
    assert table[6] == 9
    assert sorted(table[1:]) == list(range(10))


def test_log_table_inverts_powers():
    f = make_field(3, 2)
    for alpha in primitive_elements(f):
        table = discrete_logs(f, alpha.rep).tolist()
        assert table[0] == -1
        for i in range(f.q - 1):
            assert (alpha**i).rep == [r for r, t in enumerate(table) if t == i][0]


def test_sqrt_mod_p_matches_brute():
    for p in [3, 5, 7, 11, 13, 17, 29, 41, 97]:
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
    for p in [2, 3, 5, 7, 11, 13, 29, 41]:
        roots = oracles.brute_primitive_roots(p)
        for a in range(1, p):
            assert is_primitive_root(a, p) == (a in roots)
        assert smallest_primitive_root(p) == min(roots)
    assert not is_primitive_root(0, 5)
    assert not is_primitive_root(10, 5)
    with pytest.raises(ValueError):
        is_primitive_root(2, 10)
    with pytest.raises(ValueError):
        smallest_primitive_root(1)


def test_smallest_primitive_root_pinned():
    assert smallest_primitive_root(2) == 1
    assert smallest_primitive_root(7) == 3
    assert smallest_primitive_root(41) == 6


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


@settings(deadline=None, max_examples=100)
@given(st.lists(
    st.tuples(st.integers(-(2**62), 2**62), st.integers(0, 2**62), st.integers(1, 2**31 - 1)),
    min_size=1, max_size=30,
))
def test_pow_mod_array_matches_pow(cases):
    a, e, p = (np.array(col, dtype=np.int64) for col in zip(*cases))
    assert pow_mod_array(a, e, p).tolist() == [pow(x, y, m) for x, y, m in cases]


def _sqrt_as_tuple(r: int, p: int):
    return None if r < 0 else tuple(sorted({r, (p - r) % p}))


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(_ODD_PRIMES, st.integers(0, 2**40)), min_size=1, max_size=30))
def test_sqrt_mod_array_matches_sqrt_mod_p(cases):
    p = np.array([q for q, _ in cases], dtype=np.int64)
    a = np.array([x % q for q, x in cases], dtype=np.int64)
    got = sqrt_mod_array(a, p).tolist()
    for r, (q, x) in zip(got, cases):
        assert _sqrt_as_tuple(r, q) == sqrt_mod_p(x % q, q), (x, q)


def test_sqrt_mod_array_every_small_residue():
    for p in (3, 5, *_TWO_ADIC_AND_LATE_NONRESIDUE):
        a = np.arange(min(p, 1000), dtype=np.int64)
        got = sqrt_mod_array(a, p).tolist()
        assert got[0] == 0
        assert [_sqrt_as_tuple(r, p) for r in got] == [sqrt_mod_p(x, p) for x in a.tolist()]
    # non-residues on both sides of the p = 3 (mod 4) split
    assert sqrt_mod_array([3, 2, 5], [7, 5, 7340033]).tolist()[:2] == [-1, -1]
    with pytest.raises(EvenModulus):
        sqrt_mod_array(1, [2, 3])


@settings(deadline=None, max_examples=100)
@given(st.lists(
    st.tuples(st.integers(2, 10**7).map(_prime_at_least), st.integers(0, 2**40)),
    min_size=1, max_size=30,
))
def test_primitive_root_mask_matches_is_primitive_root(cases):
    p = np.array([q for q, _ in cases], dtype=np.int64)
    a = np.array([x for _, x in cases], dtype=np.int64)
    got = primitive_root_mask(np.stack((a, a + 1)), p)
    assert got[0].tolist() == [is_primitive_root(x, q) for q, x in cases]
    assert got[1].tolist() == [is_primitive_root(x + 1, q) for q, x in cases]


def test_primitive_root_mask_small_primes():
    # 19 - 1 = 2 * 3^2 and 101 - 1 = 2^2 * 5^2 leave a square for the trial loop
    for p in (2, 3, 5, 7, 11, 13, 19, 29, 41, 101):
        a = np.arange(2 * p)
        want = [is_primitive_root(int(x), p) for x in a]
        assert primitive_root_mask(a, np.full(a.size, p)).tolist() == want
    assert primitive_root_mask(np.empty((2, 0), dtype=np.int64), []).shape == (2, 0)


def test_batched_kernels_reject_modulus_from_two_to_the_31():
    assert pow_mod_array(3, 2**31 - 2, 2**31 - 1).tolist() == 1
    for big in (2**31, 2**31 + 11):
        with pytest.raises(LimitTooLarge):
            pow_mod_array(2, 3, [5, big])
        with pytest.raises(LimitTooLarge):
            sqrt_mod_array(1, [5, big])
        with pytest.raises(LimitTooLarge):
            primitive_root_mask(2, [5, big])


def test_primitive_exponents_match_gcd_definition():
    orders = [q - 1 for q in (2**6, 3**7, 5**6, 7**5, 11**4, 65521)]
    for n in [*range(1, 4097), *orders]:
        js = np.arange(n, dtype=np.int64)
        got = primitive_exponents(n)
        assert got.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, js[np.gcd(js, n) == 1]), n
