"""Sieving, Artin products, applicability censuses, trinomial counts."""

from __future__ import annotations

import math
import os
from functools import lru_cache
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import costaskit
import costaskit.density as density
import oracles
from costaskit.density import (
    CensusRow,
    ExpExpr,
    ExponentOutOfRange,
    LimitTooLarge,
    _fast_exists,
    _folded_coeffs,
    _pool_size,
    artin_constant,
    census_g4,
    census_t4,
    exists_primitive_trinomial,
    predicted_constants,
    prime_sieve,
    trinomial_census,
    trinomial_predicted,
    trinomial_witnesses,
    verify_zero_density_claims,
)
from costaskit.fpr import fpr_set, g4_applicable


def test_prime_sieve_inclusive():
    assert list(prime_sieve(2)) == [2]
    assert list(prime_sieve(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert list(prime_sieve(31))[-1] == 31
    assert list(prime_sieve(1)) == []
    assert list(prime_sieve(10**4)) == oracles.simple_sieve(10**4 + 1)
    assert list(prime_sieve(30, 12)) == [13, 17, 19, 23, 29]
    assert list(prime_sieve(13, 13)) == [13] and list(prime_sieve(30, -5))[:2] == [2, 3]
    assert list(prime_sieve(10**4, 5000)) == [p for p in oracles.simple_sieve(10**4 + 1) if p >= 5000]


def test_prime_sieve_cap():
    with pytest.raises(LimitTooLarge):
        prime_sieve(10**8 + 1)
    with pytest.raises(LimitTooLarge):
        prime_sieve(10**8 + 1, 10**8)


def test_prime_counts():
    assert sum(1 for _ in prime_sieve(10**6)) == 78498


def test_artin_constant_values():
    assert artin_constant(2) == 0.5
    assert abs(artin_constant(10**6) - 0.3739558136) < 1e-6
    with pytest.raises(ValueError):
        artin_constant(1)


def test_artin_constant_matches_exact_product():
    for bound in (2, 3, 4, 5, 10, 97, 100, 541, 1000):
        assert abs(artin_constant(bound) - float(oracles.artin_product(bound))) < 1e-15, bound


def test_import_leaves_mpmath_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(costaskit.__file__)))
    r = subprocess.run(
        [sys.executable, "-c", "import sys, costaskit; print('mpmath' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert r.returncode == 0 and r.stdout.strip() == "False", r.stderr


def test_artin_constant_monotone():
    bounds = [2, 3, 10, 100, 1000, 10**4]
    values = [artin_constant(b) for b in bounds]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_predicted_constants():
    c = predicted_constants()
    assert round(c.t4_density, 4) == 0.2657
    assert round(c.g4_density, 4) == 0.0886
    assert c.ratio == 3.0
    assert c.t4_density == 27 * c.artin / 38
    assert c.g4_density == 9 * c.artin / 38


def test_census_t4_first_entries():
    rows = census_t4(100)
    assert [r.x for r in rows] == [10, 100]
    # 5 is skipped by the residue gate, so the census starts at 11
    assert rows[0].count == 0
    counted = [p for p in oracles.simple_sieve(101)
               if p % 10 in (1, 9) and oracles.brute_fprs(p)]
    assert rows[1].count == len(counted)
    assert counted[:5] == [11, 19, 31, 41, 59]
    assert 29 not in counted


def test_census_row_fields():
    rows = census_t4(1000)
    last = rows[-1]
    assert last.x == 1000
    assert last.pi_x == 168
    assert last.ratio == last.count / last.pi_x
    assert last.predicted == predicted_constants().t4_density


def test_census_g4_subset_of_t4():
    t4 = {p for p in oracles.simple_sieve(2001)
          if p % 10 in (1, 9) and oracles.brute_fprs(p)}
    g4_rows = census_g4(2000)
    expected = {p for p in t4 if p % 20 in (1, 9)}
    assert g4_rows[-1].count == len(expected)


def test_census_checkpoint_validation():
    with pytest.raises(ValueError):
        census_t4(100, checkpoints=[])
    with pytest.raises(ValueError):
        census_t4(100, checkpoints=[1, 50])
    with pytest.raises(ValueError):
        census_t4(100, checkpoints=[200])
    rows = census_t4(100, checkpoints=[50])
    assert [r.x for r in rows] == [50, 100]


def test_census_caps():
    with pytest.raises(LimitTooLarge):
        census_t4(10**8 + 1)
    with pytest.raises(LimitTooLarge):
        trinomial_census(10**6 + 1, (1, 0), (1, 0))
    with pytest.raises(ValueError):
        census_t4(1)


def test_census_sharding_deterministic():
    seq = census_t4(3 * 10**4, workers=1)
    par = census_t4(3 * 10**4, workers=2)
    assert seq == par
    tri_seq = trinomial_census(3 * 10**4, (2, 0), (1, 1), workers=1)
    tri_par = trinomial_census(3 * 10**4, (2, 0), (1, 1), workers=2)
    assert tri_seq == tri_par


def _scalar_census(limit, cps, predicate):
    # (count, pi_x) at each checkpoint and the skipped total, one prime at a time
    rows, skipped, count, pi_x = [], 0, 0, 0
    primes = iter(prime_sieve(limit))
    p = next(primes)
    for x in cps:
        while p is not None and p <= x:
            pi_x += 1
            hit = predicate(p)
            skipped += hit is None
            count += bool(hit)
            p = next(primes, None)
        rows.append((x, count, pi_x))
    return rows, skipped


def _trinomial_scalar(e1, e2):
    e1, e2 = ExpExpr(*e1), ExpExpr(*e2)

    def predicate(p):
        if not (e1.in_range(p) and e2.in_range(p)):
            return None
        return exists_primitive_trinomial(p, e1, e2)
    return predicate


_CENSUS_LIMIT = 2 * 10**4
_CENSUS_CPS = [2, 3, 5, 7, 10, 11, 100, 1000, 4999, 12345, _CENSUS_LIMIT]
_SCALAR_PREDICATES = {
    "t4": lambda p: p % 10 in (1, 9) and bool(fpr_set(p)),
    "g4": lambda p: p % 20 in (1, 9) and g4_applicable(p),
}
_FAMILIES = {
    "1/1": ((1, 0), (1, 0)),
    "2/1,1": ((2, 0), (1, 1)),
    "1/-1,2": ((1, 0), (-1, 2)),
    "1/2,1": ((1, 0), (2, 1)),
    # in range only at p = 11, and far outside int64 everywhere
    "huge": ((3 - 5 * 2**62, 2**62), (1, 0)),
    # degree 3 after folding: the exhaustive scan
    "3/1": ((3, 0), (1, 0)),
    "3,1/1,1": ((3, 1), (1, 1)),
}


@lru_cache(maxsize=None)
def _scalar_expected(kind):
    predicate = _SCALAR_PREDICATES.get(kind) or _trinomial_scalar(*_FAMILIES[kind])
    return _scalar_census(_CENSUS_LIMIT, tuple(_CENSUS_CPS), predicate)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["t4", "g4", *_FAMILIES])
def test_census_matches_scalar_loop(monkeypatch, kind, workers):
    # Small chunks, so the segment merge and the pool both run.
    monkeypatch.setattr(density, "_CHUNK", 997)
    if kind in _SCALAR_PREDICATES:
        census = census_t4 if kind == "t4" else census_g4
        got = census(_CENSUS_LIMIT, _CENSUS_CPS, workers=workers)
        got_skipped = 0
    else:
        result = trinomial_census(_CENSUS_LIMIT, *_FAMILIES[kind], _CENSUS_CPS, workers=workers)
        got, got_skipped = result.rows, result.skipped
    assert ([(r.x, r.count, r.pi_x) for r in got], got_skipped) == _scalar_expected(kind)


def test_pool_size_clamp(monkeypatch):
    cpus = os.cpu_count() or 1
    assert _pool_size(10**6, 10**6) == cpus
    assert _pool_size(10**6, 1) == 1
    assert _pool_size(1, 10**6) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _pool_size(10**6, 10**6) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _pool_size(10**6, 7) == 7
    assert _pool_size(3, 7) == 3


def test_expexpr():
    e = ExpExpr(1, 1)
    assert e.evaluate(11) == 6
    assert e.in_range(11)
    assert not ExpExpr(2).in_range(3)
    assert ExpExpr(-1, 2).evaluate(11) == 9


def test_trinomial_witnesses_pinned():
    # alpha = 7 mod 11: 7 + 49 = 56 = 1 mod 11, and 7 is primitive
    assert trinomial_witnesses(11, (1, 0), (2, 0)) == [7]
    assert exists_primitive_trinomial(11, (1, 0), (2, 0))
    # FPR shape at 11: folded form is a^2 - a - 1, witness is the FPR 8
    assert trinomial_witnesses(11, (2, 0), (1, 1)) == [8]
    with pytest.raises(ExponentOutOfRange):
        trinomial_witnesses(3, (2, 0), (1, 1))
    with pytest.raises(ValueError):
        trinomial_witnesses(9, (1, 0), (2, 0))


def test_trinomial_witnesses_bruteforce_oracle():
    for p in oracles.simple_sieve(200):
        if p < 5:
            continue
        roots = oracles.brute_primitive_roots(p)
        e1, e2 = 2, 1 + (p - 1) // 2
        expected = [a for a in roots if (pow(a, e1, p) + pow(a, e2, p)) % p == 1]
        assert trinomial_witnesses(p, (2, 0), (1, 1)) == expected, p


@st.composite
def _prime_and_pairs(draw):
    # exponent pairs drawn from a small pool, so pairs share exponents, and the
    # pool holds e + (p - 1)/2 beside e, so pairs share folded rows as well
    p = draw(st.sampled_from([q for q in oracles.simple_sieve(128) if q > 2]))
    m = (p - 1) // 2
    pool = draw(st.lists(st.integers(1, p - 2), min_size=1, max_size=3))
    pool += [e + m if e < m else e - m for e in pool if e != m]
    pairs = st.tuples(st.sampled_from(pool), st.sampled_from(pool))
    return p, draw(st.lists(pairs, min_size=1, max_size=6))


@settings(deadline=None, max_examples=200)
@given(_prime_and_pairs())
@example((3, [(1, 1)]))
@example((7, [(1, 4), (4, 1), (4, 4), (1, 1), (2, 5), (3, 3)]))
def test_witness_rows_match_bruteforce(case):
    p, pairs = case
    expected = [oracles.brute_trinomial_witnesses(p, a, b) for a, b in pairs]
    assert [r.tolist() for r in density._witness_rows(p, pairs)] == expected, case
    assert [trinomial_witnesses(p, a, b) for a, b in pairs] == expected, case


def test_zero_density_matches_scalar_loop():
    # i_max at its cap: one batched scan per prime against one public call
    # per (prime, i, family)
    limit, i_max = 3000, 10
    violations, exceptions, skipped = [], [], {"a": 0, "b": 0, "c": 0}
    for p in prime_sieve(limit):
        for i in range(1, i_max + 1):
            for name, e1, e2, threshold in density._claim_families(i):
                if not (e1.in_range(p) and e2.in_range(p)):
                    skipped[name] += 1
                    continue
                found = trinomial_witnesses(p, e1, e2)
                if found:
                    (violations if p > threshold else exceptions).append((name, p, i, found[0]))
    report = verify_zero_density_claims(limit, i_max)
    assert report.violations == tuple(violations)
    assert report.exceptions == tuple(exceptions)
    assert report.skipped == skipped


def test_fpr_pattern_matches_fpr_set():
    for p in oracles.simple_sieve(2000):
        if p < 5:
            continue
        assert exists_primitive_trinomial(p, (2, 0), (1, 1)) == bool(fpr_set(p)), p


def test_folded_coeffs():
    assert _folded_coeffs(ExpExpr(2), ExpExpr(1, 1)) == ((0, -1), (1, -1), (2, 1))
    assert _folded_coeffs(ExpExpr(1), ExpExpr(-1, 2)) == ((0, 1), (1, -1), (2, 1))
    assert _folded_coeffs(ExpExpr(1), ExpExpr(1)) == ((0, -1), (1, 2))
    # degree above 2 defers to the exhaustive scan
    assert _fast_exists(11, _folded_coeffs(ExpExpr(3), ExpExpr(1, 1))) is None


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from([p for p in oracles.simple_sieve(300) if p > 2]),
    st.integers(-3, 3), st.integers(0, 3),
    st.integers(-3, 3), st.integers(0, 3),
)
def test_fast_path_matches_bruteforce(p, c1, h1, c2, h2):
    e1, e2 = ExpExpr(c1, h1), ExpExpr(c2, h2)
    if not (e1.in_range(p) and e2.in_range(p)):
        return
    fast = _fast_exists(p, _folded_coeffs(e1, e2))
    if fast is None:
        return
    assert fast == exists_primitive_trinomial(p, e1, e2), (p, e1, e2)


def test_trinomial_census_artin_shape():
    result = trinomial_census(10**4, (1, 0), (1, 0))
    assert result.skipped == 1
    # inverse of 2 is primitive exactly when 2 is
    expected = sum(
        1 for p in oracles.simple_sieve(10**4 + 1)
        if p > 2 and oracles.brute_order(2 % p, p) == p - 1
    )
    assert result.rows[-1].count == expected
    assert result.rows[-1].predicted == predicted_constants().artin


def test_trinomial_census_fpr_shape_offset():
    # identical to the T4 census except that p = 5 also counts
    t4 = census_t4(5000)
    tri = trinomial_census(5000, (2, 0), (1, 1))
    assert tri.skipped == 2
    assert tri.rows[-1].count == t4[-1].count + 1
    assert tri.rows[-1].predicted == predicted_constants().t4_density


def test_trinomial_census_order_six_family():
    result = trinomial_census(10**4, (1, 0), (-1, 2))
    assert result.skipped == 1
    assert result.rows[-1].count == 2
    for row in result.rows:
        if row.x >= 10:
            assert row.count == 2
    assert result.rows[-1].predicted == 0.0


def test_trinomial_predicted():
    c = predicted_constants()
    assert trinomial_predicted((1, 0), (1, 0)) == c.artin
    assert trinomial_predicted((2, 0), (1, 1)) == c.t4_density
    assert trinomial_predicted((1, 1), (2, 0)) == c.t4_density
    assert trinomial_predicted((1, 0), (-1, 2)) == 0.0


def test_zero_density_small_run():
    report = verify_zero_density_claims(1000, 3)
    assert report.violations == ()
    assert sorted(report.exceptions) == [
        ("b", 7, 1, 3),
        ("b", 13, 2, 2),
        ("b", 19, 3, 2),
        ("c", 3, 1, 2),
        ("c", 7, 1, 3),
        ("c", 13, 2, 2),
        ("c", 19, 3, 2),
    ]
    assert not any(e[0] == "a" for e in report.exceptions)
    assert report.thresholds["a"] == (3, 6, 9)
    assert report.thresholds["b"] == (7, 13, 19)
    assert report.thresholds["c"] == (7, 13, 19)


def test_zero_density_family_b_sharp_at_six_i_plus_one():
    # at p = 6i + 1 every primitive root is a witness, so the bound
    # on witness-bearing primes cannot be lowered to 6i
    report = verify_zero_density_claims(100, 1)
    b_entries = [e for e in report.exceptions if e[0] == "b"]
    assert b_entries == [("b", 7, 1, 3)]
    assert (3 + pow(3, 5, 7)) % 7 == 1


def test_zero_density_validation():
    with pytest.raises(LimitTooLarge):
        verify_zero_density_claims(10**5 + 1, 3)
    with pytest.raises(ValueError):
        verify_zero_density_claims(1000, 0)
    with pytest.raises(ValueError):
        verify_zero_density_claims(1000, 11)


def test_zero_density_skip_counts_are_small_p_only():
    report = verify_zero_density_claims(500, 2)
    # family a needs p >= 4i + 3, so skips are the primes below that
    expected_a = sum(
        1 for i in (1, 2) for p in oracles.simple_sieve(501) if p < 4 * i + 3
    )
    assert report.skipped["a"] == expected_a
