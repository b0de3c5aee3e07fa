"""Sieving, Artin products, applicability censuses, trinomial counts."""

from __future__ import annotations

import math
import mmap
import os
from functools import lru_cache
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import costaskit
import costaskit.density as density
from costaskit import costas
import costaskit.ff as ff
import oracles
from costaskit.density import (
    CensusRow,
    ExpExpr,
    ExponentOutOfRange,
    LimitTooLarge,
    _fast_exists,
    _folded_coeffs,
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


def test_census_sharding_deterministic(monkeypatch):
    # Eight segments, so workers=2 forks a worker wherever there are two
    # CPUs. The memo is cleared before each parallel run, so the workers
    # decide every segment themselves rather than read the serial run's masks.
    monkeypatch.setattr(density, "_CHUNK", 1 << 12)
    assert len(density._segments(3 * 10**4)) == 8
    seq = census_t4(3 * 10**4, workers=1)
    density._SEGMENT_MASKS.clear()
    par = census_t4(3 * 10**4, workers=2)
    assert seq == par
    tri_seq = trinomial_census(3 * 10**4, (2, 0), (1, 1), workers=1)
    density._SEGMENT_MASKS.clear()
    tri_par = trinomial_census(3 * 10**4, (2, 0), (1, 1), workers=2)
    assert tri_seq == tri_par


def _fib_censuses(limit, workers):
    return (
        census_t4(limit, workers=workers),
        census_g4(limit, workers=workers),
        trinomial_census(limit, (2, 0), (1, 1), workers=workers),
    )


def test_fib_censuses_share_segment_masks(monkeypatch):
    # Seven segments, so workers=2 forks a worker; it inherits the patched
    # kernel, the warm memo and the shared counter.
    monkeypatch.setattr(density, "_CHUNK", 1 << 14)
    calls = np.frombuffer(mmap.mmap(-1, 8), dtype=np.int64)
    kernel = density._closed_form_roots

    def counted(p, coeffs):
        calls[0] += 1
        return kernel(p, coeffs)

    monkeypatch.setattr(density, "_closed_form_roots", counted)
    cold = _fib_censuses(10**5, 1)
    assert calls[0] == len(density._segments(10**5))
    calls[0] = 0
    assert _fib_censuses(10**5, 1) == cold
    assert _fib_censuses(10**5, 2) == cold
    assert calls[0] == 0


def test_cold_g4_keeps_no_mask():
    # A g4 census decides only its own residue classes, so it keeps nothing
    # for t4 to read; t4 then keeps the full mask, which g4 reads.
    g4 = census_g4(10**4)
    assert not density._SEGMENT_MASKS
    census_t4(10**4)
    assert len(density._SEGMENT_MASKS) == 1
    assert census_g4(10**4) == g4


def test_segment_memo_holds_packed_bits(monkeypatch):
    census_t4(10**6)
    segments = len(density._segments(10**6))
    assert len(density._SEGMENT_MASKS) == segments
    assert density._SEGMENT_SLOTS >= len(density._segments(density.SIEVE_CAP))
    # one bit per odd prime: pi(10^6) = 78498, at most a byte of padding a segment
    assert sum(b.nbytes for b in density._SEGMENT_MASKS.values()) <= 78498 / 8 + segments
    # the least recently used segment goes first
    monkeypatch.setattr(density, "_SEGMENT_SLOTS", 2)
    density._SEGMENT_MASKS.clear()
    census_t4(3 * 10**5)
    assert [lo for _, lo, _ in density._SEGMENT_MASKS] == [2 + (1 << 17), 2 + (1 << 18)]


def test_residue_classes_match_euler():
    for d in range(-40, 41):
        if not d:
            continue
        table = density._residue_classes(d)
        for p in oracles.simple_sieve(600)[1:]:
            assert table[p % (4 * abs(d))] == (pow(d, (p - 1) // 2, p) != p - 1), (d, p)


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
    # degrees 3, 4 and 5 after folding: the fold-root kernel above p = 2d
    "3/1": ((3, 0), (1, 0)),
    "3,1/1,1": ((3, 1), (1, 1)),
    "4/1": ((4, 0), (1, 0)),
    "5,1/2": ((5, 1), (2, 0)),
    # degree 16: the exhaustive scan below the routing crossover near 4700,
    # the kernel above it
    "16/1": ((16, 0), (1, 0)),
    # folds G(x^g) of degrees 4 and 6, G = y^2 - y + 1: the closed form with
    # an order test at every prime (the verifier's family b at i = 2 and 3)
    "2/4,1": ((2, 0), (4, 1)),
    "3/6,1": ((3, 0), (6, 1)),
    # the Fibonacci fold negated: a^-2 + a^-1 = 1
    "-2,2/-1,2": ((-2, 2), (-1, 2)),
    # y^2 + y + 1 at y = a^(2^63), a stride beyond int64: in range only at
    # p = 11 (exponents 3 and 1), which the scan decides
    "stride 2^63": ((2**63, -(2**63 - 3) // 5), (2**64, -(2**64 - 1) // 5)),
}


@lru_cache(maxsize=None)
def _scalar_expected(kind):
    predicate = _SCALAR_PREDICATES.get(kind) or _trinomial_scalar(*_FAMILIES[kind])
    return _scalar_census(_CENSUS_LIMIT, tuple(_CENSUS_CPS), predicate)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["t4", "g4", *_FAMILIES])
def test_census_matches_scalar_loop(monkeypatch, kind, workers):
    # Small segments, so the segment merge and the forked worker both run.
    monkeypatch.setattr(density, "_CHUNK", 997)
    if kind in _SCALAR_PREDICATES:
        census = census_t4 if kind == "t4" else census_g4
        got = census(_CENSUS_LIMIT, _CENSUS_CPS, workers=workers)
        got_skipped = 0
    else:
        result = trinomial_census(_CENSUS_LIMIT, *_FAMILIES[kind], _CENSUS_CPS, workers=workers)
        got, got_skipped = result.rows, result.skipped
    assert ([(r.x, r.count, r.pi_x) for r in got], got_skipped) == _scalar_expected(kind)


def _processes(workers, count):
    """Processes `_fork_map` runs for count tasks: the caller and the children
    it forks. The fork is faked, so no process starts however many are asked for."""
    forks, reaped = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", lambda: forks.append(1) or len(forks))
        mp.setattr(os, "waitpid", lambda pid, options: reaped.append(pid) or (pid, 0))
        rows = costas._fork_map(lambda i: (i,), count, 1, workers)
        assert next(rows).tolist() == [0]
        rows.close()
    assert reaped == list(range(1, len(forks) + 1))
    return 1 + len(forks)


def test_pool_size_clamp(monkeypatch):
    # The one clamp on processes, shared by censuses and the Costas check.
    cpus = os.cpu_count() or 1
    assert _processes(10**6, 10**6) == cpus
    assert _processes(10**6, 1) == 1
    assert _processes(1, 10**6) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _processes(10**6, 10**6) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _processes(10**6, 7) == 7
    assert _processes(3, 7) == 3


# Runs in a fresh interpreter under a timeout, so a census that waits for
# good on a dead worker fails the test instead of stalling the suite. The
# child takes the second segment, as the parent holds its first one until
# the child has taken one; with "exit" the child dies there, with "raise"
# that segment's task raises in any process, and with "raise-parent" the
# parent's first segment raises.
_FAULTY_CENSUS = """
import mmap, os, sys, time
import numpy as np
from costaskit import density

class Boom(Exception):
    pass

mode = sys.argv[1]
density._CHUNK = 1 << 14  # seven segments to 1e5
os.cpu_count = lambda: 2
censuses = (lambda w: density.census_t4(10**5, workers=w),
            lambda w: density.trinomial_census(10**5, (3, 0), (1, 0), workers=w))
want = [census(1) for census in censuses]
parent = os.getpid()
bad = np.frombuffer(mmap.mmap(-1, 8), dtype=np.int64)
sieve, waitpid = density.primes_in_range, os.waitpid
statuses = []

def faulty(lo, hi):
    if os.getpid() != parent:
        bad[0] = lo
        if mode == "exit":
            os._exit(7)
    elif not bad[0]:
        deadline = time.monotonic() + 30
        while not bad[0]:
            assert time.monotonic() < deadline, "the child never took a segment"
            time.sleep(0.001)
        if mode == "raise-parent":
            raise Boom(lo)
    if lo == bad[0] and mode == "raise":
        raise Boom(lo)
    return sieve(lo, hi)

def record_status(pid, options):
    got = waitpid(pid, options)
    if got[0]:
        statuses.append(got[1])
    return got

density.primes_in_range = faulty
os.waitpid = record_status
for census, rows in zip(censuses, want):
    bad[0] = 0
    density._SEGMENT_MASKS.clear()
    try:
        got = census(2)
    except Boom:
        got = "Boom"
    print(got == rows if mode == "exit" else got)
try:
    waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print(*sorted({os.waitstatus_to_exitcode(s) for s in statuses}), len(statuses))
"""


@pytest.mark.parametrize("mode, lines", [
    ("exit", "True\nTrue\n7 2\n"),
    ("raise", "Boom\nBoom\n0 2\n"),
    ("raise-parent", "Boom\nBoom\n0 2\n"),
])
def test_census_survives_faulty_worker(mode, lines):
    src = os.path.dirname(os.path.dirname(os.path.abspath(costaskit.__file__)))
    r = subprocess.run(
        [sys.executable, "-c", _FAULTY_CENSUS, mode], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert (r.returncode, r.stdout) == (0, lines), r.stderr


def test_expexpr():
    e = ExpExpr(1, 1)
    assert e.evaluate(11) == 6
    assert e.in_range(11)
    assert not ExpExpr(2).in_range(3)
    assert ExpExpr(-1, 2).evaluate(11) == 9


def test_in_range_exact_for_arrays_and_scalars():
    # one interval test in int64, exact however large c and h are
    primes = oracles.simple_sieve(1000)
    cases = [(c, h) for c in range(-9, 10) for h in range(-4, 5)] + [
        (3 - 5 * 2**62, 2**62), (2**70, -2**68), (-2**70, 2**66), (2**64, 0), (1, 2**63), (-2**65, 2),
    ]
    for e in (ExpExpr(c, h) for c, h in cases):
        expected = [1 <= e.evaluate(p) <= p - 2 for p in primes]
        assert e.in_range(np.array(primes, dtype=np.int64)).tolist() == expected, e
        assert [e.in_range(p) for p in primes] == expected, e


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


def test_exhaustive_scan_keeps_no_tables():
    # Each scan builds an O(p) power table and exponent list; none outlives the call.
    primes = density.primes_in_range(999000, 10**6)[:4].tolist()
    tracemalloc.start()
    try:
        for p in primes:
            trinomial_witnesses(p, 3, 1)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 8 << 20


@st.composite
def _prime_and_pairs(draw):
    # exponent pairs drawn from a small pool that holds e + (p - 1)/2 beside e,
    # so the two exponents of a pair often read the same row of powers, one
    # of them flipped
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
    assert [density._witness_rows(p, a, b).tolist() for a, b in pairs] == expected, case
    assert [trinomial_witnesses(p, a, b) for a, b in pairs] == expected, case


def test_zero_density_matches_scalar_loop():
    # i_max at its cap: the closed form at every prime, and a scan at the hit
    # primes, against one exhaustive public call per (prime, i, family)
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


_SMALL_PRIMES = [q for q in oracles.simple_sieve(2000) if q > 2]


@st.composite
def _fold_and_prime(draw):
    d = draw(st.integers(3, 6))
    low = draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d))
    lead = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    coeffs = tuple((k, v) for k, v in enumerate(low) if v) + ((d, lead),)
    return coeffs, draw(st.sampled_from(_SMALL_PRIMES))


@settings(deadline=None, max_examples=150)
@given(_fold_and_prime())
# (x - 1)(x - 2)(x - 3) splits fully at 13, so the splitting loop runs
@example((((0, -6), (1, 11), (2, -6), (3, 1)), 13))
# roots -2, 6, 8 at 37 share their character at delta = 0 and 1, so
# delta = 2 splits off -2, the one primitive root, as the factor x + 2
@example((((0, -15), (1, -17), (2, -12), (3, 1)), 37))
# (x - 2)^2 (x - 6) at 11: a repeated root, and 2 is primitive mod 11
@example((((0, -24), (1, 28), (2, -10), (3, 1)), 11))
# x (x^2 - x - 1): a root at 0 beside the FPRs of 11
@example((((1, -1), (2, -1), (3, 1)), 11))
# the least prime above 2d
@example((((0, -1), (1, 1), (3, 1)), 7))
# a degree-6 fold at 401 routes to the scan by cost; the kernel still agrees
@example((((0, -1), (1, 1), (6, 1)), 401))
def test_fold_root_kernel_matches_bruteforce(case):
    coeffs, p = case
    d, lead = coeffs[-1]
    primes = np.array([p], dtype=np.int64)
    if p <= 2 * d or lead % p == 0:
        assert not density._root_route(primes, coeffs)[0]
        return
    expected = bool(oracles.brute_fold_primitive_roots(p, coeffs))
    assert density._fold_roots_exist(primes, coeffs).tolist() == [expected], case


def test_root_route():
    cubic = _folded_coeffs(ExpExpr(3), ExpExpr(1))
    # p <= 2d, then the cubic's crossover between 83 and 89
    primes = np.array([3, 5, 83, 89, 10007], dtype=np.int64)
    assert density._root_route(primes, cubic).tolist() == [False, False, False, True, True]
    assert not density._root_route(np.array([401]), ((0, -1), (1, 1), (6, 1)))[0]
    # only the degree is read: a fold of degree about 5 * 2^62 routes every prime to the scan
    huge = _folded_coeffs(*(ExpExpr(*e) for e in _FAMILIES["huge"]))
    assert not density._root_route(np.array(oracles.simple_sieve(10**4)), huge).any()
    # degree 40: the crossover lies between 3e4 and 4e4
    d40 = _folded_coeffs(ExpExpr(40), ExpExpr(1))
    assert density._root_route(np.array([30011, 40009]), d40).tolist() == [False, True]


def test_folded_coeffs():
    assert _folded_coeffs(ExpExpr(2), ExpExpr(1, 1)) == ((0, -1), (1, -1), (2, 1))
    assert _folded_coeffs(ExpExpr(1), ExpExpr(-1, 2)) == ((0, 1), (1, -1), (2, 1))
    assert _folded_coeffs(ExpExpr(1), ExpExpr(1)) == ((0, -1), (1, 2))
    # the leading coefficient is positive, so a fold and its negation are one
    assert _folded_coeffs(ExpExpr(-2, 2), ExpExpr(-1, 2)) == density._FIB_COEFFS
    assert _folded_coeffs(ExpExpr(3, 1), ExpExpr(1, 1)) == ((0, 1), (1, 1), (3, 1))
    for i in range(1, 11):
        (_, *a), (_, *b), (_, *c) = (f[:3] for f in density._claim_families(i))
        assert _folded_coeffs(*a) == ((0, 1), (i, 1), (2 * i, 1))
        assert _folded_coeffs(*b) == _folded_coeffs(*c) == ((0, 1), (i, -1), (2 * i, 1))


def test_fold_stride():
    assert density._fold_stride(density._FIB_COEFFS) == 1
    assert density._fold_stride(((0, 1), (3, -1), (6, 1))) == 3
    assert density._fold_stride(((0, 1), (4, 1))) == 4
    assert density._fold_stride(((0, -3),)) == density._fold_stride(()) == 1
    assert density._fold_stride(((0, 1), (1, 1), (3, 1))) is None
    assert density._fold_stride(((0, 1), (2, 1), (6, 1))) is None
    assert density._fold_stride(((0, 1), (2**63, 1), (2**64, 1))) is None


def test_small_inverse_matches_pow():
    p = np.array([q for q in oracles.simple_sieve(3000) if q > 2], dtype=np.int64)
    for d in range(-13, 14):
        live = d % p != 0
        want = [pow(d, -1, int(q)) for q in p[live]]
        assert density._small_inverse(np.full(p.size, d)[live], p[live]).tolist() == want, d
    # the quadratic formula's denominators after reduction mod p, mixed in one call
    d = np.array([2, 1, 2 * (7 - 1), 3 - 11, 4], dtype=np.int64)
    q = np.array([3, 5, 7, 11, 13], dtype=np.int64)
    assert density._small_inverse(d, q).tolist() == [pow(int(x), -1, int(m)) for x, m in zip(d, q)]


_ODD_PRIMES_2000 = [q for q in oracles.simple_sieve(2000) if q > 2]


@st.composite
def _stride_fold_and_prime(draw):
    # G(x^g) with G = c2 y^2 + c1 y + c0; the prime is sometimes an odd prime
    # factor of the discriminant, where G has a double root or degenerates
    g = draw(st.integers(1, 8))
    c0, c1, c2 = (draw(st.integers(-2, 2)) for _ in range(3))
    coeffs = tuple((k * g, v) for k, v in enumerate((c0, c1, c2)) if v)
    disc = abs(c1 * c1 - 4 * c0 * c2)
    at_disc = [q for q in _ODD_PRIMES_2000 if disc % q == 0]
    if at_disc and draw(st.booleans()):
        return g, coeffs, draw(st.sampled_from(at_disc))
    return g, coeffs, draw(st.sampled_from(_ODD_PRIMES_2000))


@settings(deadline=None, max_examples=300)
@given(_stride_fold_and_prime())
# y^2 - y + 1 at p = 3, a double root of order 2 (the verifier's family c at i = 1)
@example((1, ((0, 1), (1, -1), (2, 1)), 3))
# (y - 1)^2: the root 1 is a^g for a primitive a exactly when p - 1 divides g
@example((6, ((0, 1), (6, -2), (12, 1)), 7))
@example((4, ((0, 1), (4, -2), (8, 1)), 7))
# 2y^2 + y + 2 has discriminant -15: a double root at p = 5
@example((3, ((0, 2), (3, 1), (6, 2)), 5))
# G = 2y: only the root 0, never a power of a unit
@example((2, ((2, 2),), 11))
# nothing left: every primitive root is a witness
@example((5, (), 3))
def test_stride_closed_form_matches_bruteforce(case):
    g, coeffs, p = case
    assert density._fold_stride(coeffs) in (g, 2 * g, 1)
    witnesses = oracles.brute_fold_primitive_roots(p, coeffs)
    primes = np.array([p], dtype=np.int64)
    assert _fast_exists(primes, coeffs).tolist() == [bool(witnesses)], case
    if math.gcd(*(v for _, v in coeffs)) % p:
        # the roots of G that pass are the g-th powers of the witnesses
        roots, ok = density._closed_form_roots(primes, coeffs)
        stride = density._fold_stride(coeffs)
        assert set(roots[ok].tolist()) == {pow(a, stride, p) for a in witnesses}, case


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from([p for p in oracles.simple_sieve(300) if p > 2]),
    st.integers(-3, 3), st.integers(0, 3),
    st.integers(-3, 3), st.integers(0, 3),
)
def test_fast_path_matches_bruteforce(p, c1, h1, c2, h2):
    e1, e2 = ExpExpr(c1, h1), ExpExpr(c2, h2)
    coeffs = _folded_coeffs(e1, e2)
    # folds that are not G(x^g) take the fold-root kernel or the scan
    if not (e1.in_range(p) and e2.in_range(p)) or not density._fold_stride(coeffs):
        return
    assert _fast_exists(p, coeffs) == exists_primitive_trinomial(p, e1, e2), (p, e1, e2)


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
    assert trinomial_predicted((-2, 2), (-1, 2)) == c.t4_density
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


def test_verifier_leaves_the_field_cache_alone():
    # The scan builds each GF(p) descriptor itself; make_field's unbounded
    # cache is for the fields callers ask for, not for every scanned prime.
    before = ff._make_field_cached.cache_info()
    verify_zero_density_claims(2000, 3)
    assert ff._make_field_cached.cache_info() == before


def test_zero_density_at_the_cap():
    # the verifier's largest input, within a stated budget; its exceptions all
    # lie below 6 * 10 + 1, so they equal those at 3000 (held to the scalar
    # loop above)
    start = time.perf_counter()
    report = verify_zero_density_claims(10**5, 10)
    assert time.perf_counter() - start < 5.0
    assert report.violations == ()
    assert report.exceptions == verify_zero_density_claims(3000, 10).exceptions


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
