"""Fibonacci primitive roots and the applicability predicates built on them."""

from __future__ import annotations

import time

import numpy as np
import pytest

import oracles
from costaskit.constructions import find_spec
from costaskit.density import _FIB_COEFFS, _closed_forms, _segments
from costaskit.ff import _PRIME_CAP, SIEVE_CAP, FieldTooLarge, LimitTooLarge, make_field, prime_power
from costaskit.fpr import (
    EvenPrime,
    NotAnFpr,
    NotAPrimePower,
    PreconditionNotMet,
    fpr_candidates,
    fpr_report,
    fpr_reports,
    fpr_set,
    fpr_to_t4_root,
    g4_applicable,
    g4_witness,
    phong_check,
    t4_admissible,
    t4_applicable,
    t4_witness,
)

ODD_PRIMES_2K = [p for p in oracles.simple_sieve(2000) if p > 2]


def test_fpr_pinned():
    assert fpr_candidates(11) == [4, 8]
    assert fpr_set(11) == [8]
    assert fpr_candidates(29) == [6, 24]
    assert fpr_set(29) == []
    assert fpr_set(5) == [3]
    assert fpr_candidates(7) == []
    assert fpr_candidates(61) == [18, 44]
    assert fpr_set(61) == [18, 44]


def test_fpr_results_are_fresh_lists():
    fpr_set(11).append(99)
    assert fpr_set(11) == [8]
    fpr_candidates(11).clear()
    assert fpr_candidates(11) == [4, 8]


def test_fpr_validation():
    with pytest.raises(EvenPrime):
        fpr_set(2)
    with pytest.raises(EvenPrime):
        fpr_candidates(2)
    with pytest.raises(ValueError):
        fpr_set(9)
    with pytest.raises(ValueError):
        fpr_candidates(15)


def test_fpr_matches_bruteforce():
    for p in ODD_PRIMES_2K:
        fprs = oracles.brute_fprs(p)
        assert fpr_set(p) == fprs, p
        expected = [x for x in range(p) if (x * x - x - 1) % p == 0]
        assert fpr_candidates(p) == expected, p
        # g4 over GF(p) by definition: the least FPR g with 1 - g primitive
        g4 = [g for g in fprs if oracles.brute_order((1 - g) % p, p) == p - 1]
        assert g4_witness(p) == (g4[0] if g4 else None), p
        assert fpr_report(p).g4_applicable == bool(g4), p


def test_range_reports_match_scalar_at_the_sieve_cap():
    # The census's last segment, the highest primes the batched kernels
    # decide, against the scalar path (sqrt_mod_p, factorize, pow), which
    # shares none of them, at every prime.
    lo, hi = _segments(SIEVE_CAP)[-1]
    reports = list(fpr_reports(lo, hi - 1))
    assert len(reports) > 6000
    for r in reports:
        assert r == fpr_report(r.p), r.p
    # both classes mod 4 carry FPRs, so both branches of the one-root rule run
    assert {r.p % 4 for r in reports if r.fprs} == {1, 3}


def test_range_flags_where_the_first_root_is_a_residue():
    # At p = 3 (mod 4) where the closed form's first root y of x^2 - x - 1
    # is a square, y is not primitive, and -1/y is iff y passes the odd
    # tests: the one place the odd stage runs for a residue. The flags of
    # `fpr --range` there, against the exhaustive scan.
    p = np.array(oracles.simple_sieve(20000)[1:])
    y = _closed_forms(p, _FIB_COEFFS)[0][0].tolist()
    flips = [q for q, r in zip(p.tolist(), y) if q % 4 == 3 and r and pow(r, (q - 1) // 2, q) == 1]
    reports = {r.p: r for r in fpr_reports(3, flips[-1])}
    for q in flips:
        assert list(reports[q].fprs) == oracles.brute_fprs(q), q
    # both outcomes occur: -1/y primitive, and no FPR at all
    assert len(flips) > 200 and 0 < sum(bool(reports[q].fprs) for q in flips) < len(flips)


def test_candidates_exist_iff_residue_class_fits():
    for p in ODD_PRIMES_2K:
        r = fpr_report(p)
        assert bool(r.candidates) == r.residue_class_ok, p


def test_report_pinned():
    r = fpr_report(11)
    assert (r.p, r.residue_class_ok) == (11, True)
    assert r.candidates == (4, 8)
    assert r.fprs == (8,)
    assert r.t4_root == 7

    r = fpr_report(7)
    assert not r.residue_class_ok
    assert r.candidates == () and r.fprs == () and r.t4_root is None

    assert fpr_report(5).t4_root == 2
    r = fpr_report(29)
    assert r.residue_class_ok and r.fprs == () and r.t4_root is None


def test_report_internal_consistency():
    for p in ODD_PRIMES_2K:
        r = fpr_report(p)
        assert set(r.fprs) <= set(r.candidates)
        if r.fprs:
            assert r.t4_root == min(r.fprs) - 1
        else:
            assert r.t4_root is None


def test_fpr_to_t4_root():
    assert fpr_to_t4_root(11, 8) == 7
    assert fpr_to_t4_root(5, 3) == 2
    assert fpr_to_t4_root(41, 7) == 6
    with pytest.raises(NotAnFpr):
        fpr_to_t4_root(11, 4)
    with pytest.raises(NotAnFpr):
        fpr_to_t4_root(11, 2)


def test_t4_root_inverts_its_fpr():
    # g - 1 is g's inverse, which is how it inherits primitivity.
    for p in ODD_PRIMES_2K:
        for g in fpr_set(p):
            a = fpr_to_t4_root(p, g)
            assert (a * g) % p == 1
            assert (a * a + a) % p == 1


def test_t4_root_matches_parameter_search():
    for p in ODD_PRIMES_2K:
        if p > 500:
            break
        spec = find_spec("t4", make_field(p))
        root = fpr_report(p).t4_root
        if root is None:
            assert spec is None, p
        else:
            assert spec is not None and spec.alpha == root, p


def test_predicates_refuse_the_primality_cap():
    # the cap, 1287836182261 * 2575672364521 and 1 mod 10, passes the
    # thirteen-base test, so each of these would answer as for a prime
    for call in (t4_admissible, fpr_report, phong_check):
        with pytest.raises(LimitTooLarge):
            call(_PRIME_CAP)


def test_t4_admissible_pinned():
    assert t4_admissible(4) and t4_admissible(5) and t4_admissible(9)
    assert t4_admissible(11) and t4_admissible(29) and t4_admissible(61)
    assert not t4_admissible(2)
    assert not t4_admissible(7)
    assert not t4_admissible(25)
    assert not t4_admissible(49)
    with pytest.raises(NotAPrimePower):
        t4_admissible(12)
    with pytest.raises(NotAPrimePower):
        t4_admissible(1)


def test_t4_applicable_pinned():
    for q in (4, 5, 9, 11, 19, 31, 41, 59, 61):
        assert t4_applicable(q), q
    for q in (2, 3, 7, 8, 13, 16, 25, 27, 29, 49, 64):
        assert not t4_applicable(q), q


def test_applicable_implies_admissible():
    for q in range(2, 2001):
        pk = prime_power(q)
        if pk is None or pk[1] > 6:
            continue
        if t4_applicable(q):
            assert t4_admissible(q), q


def test_t4_extension_scan_cap():
    # The witnesses over GF(101^3) need no field; the g3 scan still reads
    # the tables and meets their cap.
    assert not t4_applicable(101**3) and not g4_applicable(101**3)
    with pytest.raises(FieldTooLarge):
        find_spec("g3", make_field(101, 3))


def _powers_below_2_16(degrees: range) -> list[int]:
    return sorted(p**k for p in oracles.simple_sieve(256) for k in degrees if p**k < 1 << 16)


def test_witnesses_match_the_table_scan():
    # Every prime power below 2^16 with 2 <= k <= 6, and the primes below
    # 2^12, against the scan of the field's tables.
    extensions = _powers_below_2_16(range(2, 7))
    assert len(extensions) == 79
    for q in extensions + oracles.simple_sieve(1 << 12):
        assert (t4_witness(q), g4_witness(q)) == oracles.reference_witnesses(q), q


def test_extension_witnesses_need_no_field():
    # Above the degree and log-table caps the answer is still None, at once.
    big = _powers_below_2_16(range(7, 16))
    assert len(big) == 13 and (big[0], big[-1]) == (128, 59049)
    start = time.perf_counter()
    for q in big + [101**3, 1009**2, 46337**2, 2**30, 3**19]:
        assert t4_witness(q) is None and g4_witness(q) is None, q
    assert time.perf_counter() - start < 0.05


def test_g4_pinned():
    assert g4_witness(41) == 7
    assert g4_witness(61) == 18
    assert g4_witness(4) == 2
    assert g4_witness(5) == 3
    assert g4_witness(9) == 5
    assert g4_witness(11) is None
    assert g4_witness(29) is None
    assert g4_applicable(41) and g4_applicable(61)
    for q in (4, 5, 9):
        assert g4_applicable(q), q
    for q in (2, 3, 7, 8, 11, 16, 19, 25, 29, 31, 59):
        assert not g4_applicable(q), q


def test_g4_characterization_small_fields():
    # g4_applicable runs only the witness search; this sweep holds it
    # against the residue-class characterization.
    for q in range(2, 2001):
        pk = prime_power(q)
        if pk is None or pk[1] > 6:
            continue
        ok = g4_applicable(q)
        expected = q in (4, 5, 9) or (
            pk[1] == 1 and q % 20 in (1, 9) and t4_applicable(q)
        )
        assert ok == expected, q
        if ok:
            assert t4_applicable(q), q


def test_phong_pinned():
    assert phong_check(11) is True
    assert phong_check(59) is True
    for bad in (5, 13, 15, 19):
        with pytest.raises(PreconditionNotMet):
            phong_check(bad)


def test_phong_holds_for_all_qualifying_primes():
    halves = set(oracles.simple_sieve(5001))
    for p in oracles.simple_sieve(10**4):
        if p % 10 in (1, 9) and (p - 1) // 2 in halves:
            assert phong_check(p), p
