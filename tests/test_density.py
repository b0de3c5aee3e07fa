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


# The first call of a numpy set operation such as np.unique imports numpy.ma
# (numpy 2.4: about 10 ms in a fresh interpreter, a quarter of a short
# degree-3 census). The fold-root kernel, the closed form and the t4 census
# use none, so a fresh interpreter running them never loads it.
_SCAN_PATH = (
    "import sys\n"
    "from costaskit.cli import main\n"
    "from costaskit.density import verify_zero_density_claims\n"
    "main(['census', 'trinomial', '20000', '--e1', '3', '--e2', '1', '--workers', '1'])\n"
    "verify_zero_density_claims(10000, 5)\n"
    "main(['census', 't4', '300000', '--workers', '1'])\n"
    "print('numpy.ma' in sys.modules)\n"
)


def test_scan_path_leaves_numpy_ma_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(costaskit.__file__)))
    r = subprocess.run(
        [sys.executable, "-c", _SCAN_PATH], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert r.returncode == 0 and r.stdout.splitlines()[-1] == "False", r.stderr


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


@pytest.mark.skipif(not os.access("/proc/self/status", os.R_OK), reason="needs /proc/self/status")
def test_census_memory_with_many_checkpoints():
    # A segment writes its counts only into the slots of the checkpoints it
    # holds. With 1 + 2m int64 entries in each of the 77 segment rows for m
    # checkpoints, this census peaked at about 155 MiB; this way, about 62.
    src = os.path.dirname(os.path.dirname(os.path.abspath(costaskit.__file__)))
    code = (
        "from costaskit.density import census_t4; rows = census_t4(10**7, range(2, 100002)); "
        "print(len(rows), next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM:')))"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert r.stderr == ""
    rows, kib = r.stdout.split()
    assert rows == "100001"
    assert int(kib) / 1024 < 80


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
    kernel = density._fast_exists

    def counted(p, folds):
        calls[0] += 1
        return kernel(p, folds)

    monkeypatch.setattr(density, "_fast_exists", counted)
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


def test_verifier_leaves_kept_segment_masks_alone(monkeypatch):
    # The verifier decides its own folds and keeps nothing, so the masks t4
    # kept over four segments are still there for g4 to read after it.
    monkeypatch.setattr(density, "_CHUNK", 1 << 9)
    census_t4(2000)
    kept = {key: bits.tobytes() for key, bits in density._SEGMENT_MASKS.items()}
    assert len(kept) == len(density._segments(2000)) == 4
    verify_zero_density_claims(2000, 3)
    assert {key: bits.tobytes() for key, bits in density._SEGMENT_MASKS.items()} == kept
    calls = []
    kernel = density._fast_exists
    monkeypatch.setattr(density, "_fast_exists", lambda p, folds: calls.append(folds) or kernel(p, folds))
    census_g4(2000)
    assert calls == []


def test_segment_memo_holds_packed_bits():
    census_t4(10**6)
    segments = len(density._segments(10**6))
    assert len(density._SEGMENT_MASKS) == segments
    # one bit per odd prime: pi(10^6) = 78498, at most a byte of padding a segment
    assert sum(b.nbytes for b in density._SEGMENT_MASKS.values()) <= 78498 / 8 + segments
    # a census to another limit keeps one mask per segment start
    census_t4(10**6 - 1000)
    assert [lo for _, lo, _ in density._SEGMENT_MASKS] == [density._segments(10**6)[-1][0]]
    # another fold's census drops them and keeps its own masks
    trinomial_census(3 * 10**5, (1, 0), (1, 0))
    assert sorted(density._SEGMENT_MASKS) == [
        (((0, -1), (1, 2)), lo, hi) for lo, hi in density._segments(3 * 10**5)
    ]


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
# 998 and 999 end and start a segment in the 997-wide segments below
_CENSUS_CPS = [2, 3, 5, 7, 10, 11, 100, 998, 999, 1000, 4999, 12345, _CENSUS_LIMIT]
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
    # degrees 3, 4 and 5 after folding: the fold-root kernel from p = 37, 71 and 127
    "3/1": ((3, 0), (1, 0)),
    "3,1/1,1": ((3, 1), (1, 1)),
    "4/1": ((4, 0), (1, 0)),
    "5,1/2": ((5, 1), (2, 0)),
    # degree 16: the exhaustive scan below the routing switch at 1973, the
    # kernel from there
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
held = [False]
sieve, waitpid = density.primes_in_range, os.waitpid
statuses = []

def faulty(lo, hi):
    if os.getpid() != parent:
        bad[0] = lo
        if mode == "exit":
            os._exit(7)
    elif not held[0]:
        held[0] = True
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
    bad[0], held[0] = 0, False
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


def test_exponent_expressions_checked_at_the_boundary():
    # each used to fail deep inside with a TypeError or an IndexError
    bad = ("3", 1.5, (1, 0, 0), (2.0, 0), True, (2, False), (), [2, 0])
    calls = (
        lambda e: trinomial_census(1000, e, 1),
        lambda e: trinomial_census(1000, (2, 0), e),
        lambda e: trinomial_witnesses(101, e, 1),
        lambda e: exists_primitive_trinomial(101, (2, 0), e),
    )
    for e in bad:
        for call in calls:
            with pytest.raises(ValueError, match="exponent expression"):
                call(e)
    with pytest.raises(ValueError, match="exponent expression"):
        ExpExpr(3, 1.0)
    assert trinomial_witnesses(11, 2, (1, 1)) == trinomial_witnesses(11, (2,), ExpExpr(1, 1)) == [8]


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
    # exponent pairs drawn from a small pool that holds e + (p - 1)/2 beside e:
    # for primitive a, a^(e + (p - 1)/2) = -a^e, so a pair often takes powers
    # that are negatives of each other
    p = draw(st.sampled_from([q for q in oracles.simple_sieve(128) if q > 2]))
    m = (p - 1) // 2
    pool = draw(st.lists(st.integers(1, p - 2), min_size=1, max_size=3))
    pool += [e + m if e < m else e - m for e in pool if e != m]
    pairs = st.tuples(st.sampled_from(pool), st.sampled_from(pool))
    return p, draw(st.lists(pairs, min_size=1, max_size=6))


@settings(max_examples=200)
@given(_prime_and_pairs())
@example((3, [(1, 1)]))
@example((7, [(1, 4), (4, 1), (4, 4), (1, 1), (2, 5), (3, 3)]))
def test_witness_rows_match_bruteforce(case):
    p, pairs = case
    expected = [oracles.brute_trinomial_witnesses(p, a, b) for a, b in pairs]
    assert [density._witness_rows(p, a, b).tolist() for a, b in pairs] == expected, case
    assert [trinomial_witnesses(p, a, b) for a, b in pairs] == expected, case


def _zero_density_scalar_loop(limit, i_max):
    """The verifier's answer from one exhaustive public call per (prime, i, family)."""
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
    return tuple(violations), tuple(exceptions), skipped


def _zero_density_answer(report):
    return report.violations, report.exceptions, report.skipped


def test_zero_density_matches_scalar_loop():
    # i_max at its cap: the closed form at every prime, a scan at the hit primes
    report = verify_zero_density_claims(3000, 10)
    assert _zero_density_answer(report) == _zero_density_scalar_loop(3000, 10)


@pytest.mark.parametrize("i_max", range(1, 11))
def test_zero_density_at_limit_two(i_max):
    # the one segment holds no odd prime, so nothing is solved or ordered
    report = verify_zero_density_claims(2, i_max)
    assert _zero_density_answer(report) == _zero_density_scalar_loop(2, i_max)
    assert report.skipped == {"a": i_max, "b": i_max, "c": i_max}


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


@settings(max_examples=150)
@given(_fold_and_prime())
# (x - 1)(x - 2)(x - 3) at 13: of its roots only 2 is a non-residue, and it is primitive
@example((((0, -6), (1, 11), (2, -6), (3, 1)), 13))
# roots -2, 6 and 8 at 37 are all non-residues, so g = f, and p - 1 = 4 * 9
# leaves u = x^12 - 1, nonzero at -2 alone, the one primitive root
@example((((0, -15), (1, -17), (2, -12), (3, 1)), 37))
# (x - 2)^2 (x - 6) at 11: g keeps the repeated root once, and 2 is primitive
@example((((0, -24), (1, 28), (2, -10), (3, 1)), 11))
# x (x^2 - x - 1) at 11: of the roots 0, 4 and 8 only the FPR 8 is a non-residue
@example((((1, -1), (2, -1), (3, 1)), 11))
# the least prime above 2d
@example((((0, -1), (1, 1), (3, 1)), 7))
# a degree-6 fold at 181, the last prime its route sends to the scan
@example((((0, -1), (1, 1), (6, 1)), 181))
# x^3 + 1 at 7: roots 3, 5 and 6, all non-residues, and 3 and 5 are primitive
@example((((0, 1), (3, 1)), 7))
# x^3 + 1 at 19: roots 8, 12 and 18, all non-residues, and none is primitive
@example((((0, 1), (3, 1)), 19))
# (x - 2)(x - 3)(x - 4) at the Fermat prime 257: p - 1 = 2^8 has no odd
# prime, so u = 1 and the one non-residue root, 3, is primitive
@example((((0, -24), (1, 26), (2, -9), (3, 1)), 257))
def test_fold_root_kernel_matches_bruteforce(case):
    coeffs, p = case
    d, lead = coeffs[-1]
    primes = np.array([p], dtype=np.int64)
    if p <= 2 * d or lead % p == 0:
        assert not density._root_route(primes, coeffs)[0]
        return
    expected = bool(oracles.brute_fold_primitive_roots(p, coeffs))
    assert density._fold_roots_exist(primes, coeffs).tolist() == [expected], case


# The largest degree `_root_route` sends to the kernel below the 1e6 census cap.
_KERNEL_MAX_DEGREE = max(d for d in range(1, 1000) if density._root_route(np.array([999983]), ((d, 1),))[0])
_PRIMES_TO_1E6 = ff.primes_in_range(2, 10**6 + 1).tolist()


@settings(max_examples=25)
@given(st.integers(1, _KERNEL_MAX_DEGREE), st.lists(st.sampled_from(_PRIMES_TO_1E6), min_size=1, max_size=2),
       st.integers(0, 2**32 - 1), st.booleans())
def test_poly_mulmod_matches_oracle(k, primes, seed, top):
    # a * b mod (x^k + f), summed unreduced; top makes every coefficient p - 1,
    # the largest sums
    p = np.array(primes, dtype=np.int64)[:, None]
    a, b, f = (np.random.default_rng(seed + i).integers(0, p, (p.size, k)) for i in range(3))
    if top:
        a[:], b[:], f[:] = p - 1, p - 1, p - 1
    want = [oracles._poly_rem(oracles._poly_mul_mod(x, y, q), [*m, 1], q)
            for x, y, m, q in zip(a.tolist(), b.tolist(), f.tolist(), primes)]
    assert ff._poly_mulmod(a, b, f, p).tolist() == want


def test_poly_sqrmod_matches_poly_mulmod():
    # every routed degree; the last row is all p - 1, the largest sums, and
    # the largest prime below 2^31 meets 2 a_i a_j < 2^63 at k = 1 and 2
    rng = np.random.default_rng(5)
    for k in range(1, _KERNEL_MAX_DEGREE + 1):
        primes = [3, 1009, 999983, 999983] + [2**31 - 1] * (k <= 2)
        p = np.array(primes, dtype=np.int64)[:, None]
        a, f = (np.asfortranarray(rng.integers(0, p, (p.size, k))) for _ in range(2))
        a[-1], f[-1] = p[-1] - 1, p[-1] - 1
        assert ff._poly_sqrmod(a, f, p).tolist() == ff._poly_mulmod(a, a, f, p).tolist(), k


def test_fold_root_kernel_exact_up_to_its_int64_bound():
    # the largest prime p with 3 p^2 < 2^63, just under 2^31: (x - r)(x - 1)(x + 1)
    # has a primitive root exactly when r is one
    p = math.isqrt((2**63 - 1) // 3)
    while not ff.is_prime(p):
        p -= 1
    g = ff._least_root(p, ff.factorize(p - 1))
    for r, want in ((g, True), (g * g % p, False)):
        coeffs = ((0, r), (1, -1), (2, -r), (3, 1))
        assert density._fold_roots_exist(np.array([p]), coeffs).tolist() == [want]
    # one prime further, and at the largest routed degree, d p^2 passes 2^63
    for d in (3, _KERNEL_MAX_DEGREE):
        q = math.isqrt((2**63 - 1) // d) + 1
        while not ff.is_prime(q):
            q += 1
        with pytest.raises(LimitTooLarge):
            density._fold_roots_exist(np.array([101, q]), ((0, -1), (1, 1), (d, 1)))


def test_fold_root_kernel_matches_scan_below_census_cap():
    # 30 primes of the last census segment below 1e6, against the exhaustive
    # scan of the degree-3 and degree-16 families
    lo, hi = density._segments(10**6)[-1]
    segment = ff.primes_in_range(lo, hi)
    primes = segment[:: segment.size // 30][:30]
    for e1 in (3, 16):
        coeffs = _folded_coeffs(ExpExpr(e1), ExpExpr(1))
        assert density._root_route(primes, coeffs).all()
        want = [density._witness_rows(p, e1, 1).size > 0 for p in primes.tolist()]
        assert density._fold_roots_exist(primes, coeffs).tolist() == want, e1


def test_root_route():
    cubic = _folded_coeffs(ExpExpr(3), ExpExpr(1))
    # p <= 2d, then the cubic's crossover between 31 and 37
    primes = np.array([3, 5, 31, 37, 10007], dtype=np.int64)
    assert density._root_route(primes, cubic).tolist() == [False, False, False, True, True]
    assert density._root_route(np.array([181, 191]), ((0, -1), (1, 1), (6, 1))).tolist() == [False, True]
    # only the degree is read: a fold of degree about 5 * 2^62 routes every prime to the scan
    huge = _folded_coeffs(*(ExpExpr(*e) for e in _FAMILIES["huge"]))
    assert not density._root_route(np.array(oracles.simple_sieve(10**4)), huge).any()
    # degrees 40 and 64: the rule's switches, near the measured crossovers 1.8e4 and 3.8e4
    d40 = _folded_coeffs(ExpExpr(40), ExpExpr(1))
    assert density._root_route(np.array([15583, 15601]), d40).tolist() == [False, True]
    d64 = _folded_coeffs(ExpExpr(64), ExpExpr(1))
    assert density._root_route(np.array([44249, 44257]), d64).tolist() == [False, True]


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


_EXP_EXPRS = st.builds(ExpExpr, st.integers(-10**3, 10**3), st.integers(0, 3))


@settings(max_examples=300)
@given(_EXP_EXPRS, _EXP_EXPRS)
def test_fold_coefficients_and_denominators_are_small(e1, e2):
    # `_quadratic_roots` relies on both: c2 vanishes mod an odd p only
    # where c2 = 0, and the denominator 2 c2 or c1 is inverted by halving
    coeffs = _folded_coeffs(e1, e2)
    if all(k == 0 for k, _ in coeffs):
        assert coeffs in (((0, 1),), ((0, 3),)), (e1, e2)
        return
    assert all(-2 <= v <= 2 for _, v in coeffs), (e1, e2)
    if density._fold_stride(coeffs) is not None:
        _, (c0, c1, c2) = density._quadratic(coeffs)
        assert (2 * c2 if c2 else c1) in (1, 2), (e1, e2)


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


@settings(max_examples=300)
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
# G = 2y - 1, a linear fold with the nonzero root 4 = 1/2 at p = 7
@example((1, ((0, -1), (1, 2)), 7))
# -2y^2 + y + 1 has the denominator 2 c2 = -4, and the roots 1 and -1/2
@example((2, ((0, 1), (2, 1), (4, -2)), 13))
def test_stride_closed_form_matches_bruteforce(case):
    g, coeffs, p = case
    assert density._fold_stride(coeffs) in (g, 2 * g, 1)
    witnesses = oracles.brute_fold_primitive_roots(p, coeffs)
    primes = np.array([p], dtype=np.int64)
    assert _fast_exists(primes, coeffs).tolist() == [bool(witnesses)], case
    if math.gcd(*(v for _, v in coeffs)) % p:
        # the roots of G that pass are the g-th powers of the witnesses
        roots, ok = density._closed_forms(primes, coeffs)
        stride = density._fold_stride(coeffs)
        assert set(roots[ok].tolist()) == {pow(a, stride, p) for a in witnesses}, case


_ODD_PRIMES_BY_CLASS = {
    r: [q for q in oracles.simple_sieve(20000) if q % 4 == r] for r in (1, 3)
}


@st.composite
def _unit_product_fold_and_prime(draw):
    # x^2 - x - 1 (root product -1) or y^2 +- y + 1 at y = x^g (product +1);
    # the prime's class mod 4 is drawn first, so both classes come up alike
    if draw(st.booleans()):
        g, coeffs = 1, density._FIB_COEFFS
    else:
        g = draw(st.integers(1, 10))
        coeffs = ((0, 1), (g, draw(st.sampled_from((1, -1)))), (2 * g, 1))
    return g, coeffs, draw(st.sampled_from(_ODD_PRIMES_BY_CLASS[draw(st.sampled_from((1, 3)))]))


def _assert_root_rows_match_oracle(g, coeffs, p):
    roots, ok = density._closed_forms(np.array([p], dtype=np.int64), coeffs)
    want = oracles.brute_stride_roots(p, g, coeffs)
    assert {r for r in roots[:, 0].tolist() if r} == set(want), (g, coeffs, p)
    # position by position: each row's flag belongs to that row's root
    for r, flag in zip(roots[:, 0].tolist(), ok[:, 0].tolist()):
        assert flag == (bool(r) and want[r]), (g, coeffs, p, r)


@settings(max_examples=200)
@given(_unit_product_fold_and_prime())
# a double root 3 of x^2 - x - 1
@example((1, density._FIB_COEFFS, 5))
# p = 3 (mod 4): of the roots 4 and 8, only 8 is primitive
@example((1, density._FIB_COEFFS, 11))
@example((1, density._FIB_COEFFS, 29))
# y^2 - y + 1 has the double root 2 mod 3
@example((1, ((0, 1), (1, -1), (2, 1)), 3))
def test_unit_product_root_flags_match_oracle(case):
    _assert_root_rows_match_oracle(*case)


def test_unit_product_root_flags_pinned():
    roots, ok = density._closed_forms(np.array([5, 11, 29], dtype=np.int64), density._FIB_COEFFS)
    assert roots.T.tolist() == [[3, 3], [8, 4], [6, 24]]
    assert ok.T.tolist() == [[True, True], [True, False], [False, False]]
    for g in range(1, 11):
        for s in (1, -1):
            for p in (7, 13, 19, 31, 37, 43, 61, 67, 73):
                _assert_root_rows_match_oracle(g, ((0, 1), (g, s), (2 * g, 1)), p)


def test_closed_form_tests_each_distinct_root_once(monkeypatch):
    # 2y - 1 has one root, and the roots of x^2 - x - 1 multiply to -1, so
    # one row of order tests decides both rows; 2y^2 + y - 1 needs two
    rows = {"_half_test": [], "_odd_tests": []}
    for name, got in rows.items():
        def recorded(a, p, g, kernel=getattr(density, name), got=got):
            got.append(np.reshape(a, (-1, p.size)).shape[0])
            return kernel(a, p, g)

        monkeypatch.setattr(density, name, recorded)
    p = np.array(oracles.simple_sieve(200)[1:], dtype=np.int64)
    for coeffs in (((0, -1), (1, 2)), density._FIB_COEFFS, ((0, -1), (1, 1), (2, 2))):
        density._closed_forms(p, coeffs)
    assert rows == {"_half_test": [1, 1, 2], "_odd_tests": [1, 1, 2]}


# (g, fold, rows tested, product -1 at g = 1): a linear fold, the roots of
# x^2 - x - 1, y^2 +- y + 1 at y = x^g (product +1), and two folds whose
# roots are both tested, 2y^2 + y - 1 and y^2 - 2y at y = x^2 (a root 0)
_STAGED_FOLDS = [
    (1, ((0, -1), (1, 2)), 1, False),
    (1, density._FIB_COEFFS, 1, True),
    *((g, ((0, 1), (g, s), (2 * g, 1)), 1, False) for g in (1, 2, 3, 4) for s in (1, -1)),
    (1, ((0, -1), (1, 1), (2, 2)), 2, False),
    (2, ((2, -2), (4, 1)), 2, False),
]


@pytest.mark.parametrize("g, coeffs, tested, flips", _STAGED_FOLDS)
def test_odd_stage_runs_only_where_a_root_can_have_order_n(monkeypatch, g, coeffs, tested, flips):
    # The odd-factor powers get exactly the primes where some tested root
    # y != 0 has y^(N/2) != 1, by Euler's criterion in Python ints, and
    # for x^2 - x - 1 every p = 3 (mod 4) with roots: there -1/y takes the
    # other residuosity, and its verdict comes from y's odd tests.
    got = []
    kernel = density._odd_tests
    monkeypatch.setattr(density, "_odd_tests", lambda a, p, g: got.append(p.tolist()) or kernel(a, p, g))
    p = np.array(oracles.simple_sieve(3000)[1:], dtype=np.int64)
    roots, _ = density._closed_forms(p, coeffs)
    want = []
    for q, ys in zip(p.tolist(), roots[:tested].T.tolist()):
        n = (q - 1) // math.gcd(g, q - 1)
        odd = any(y and (n % 2 or pow(y, n // 2, q) != 1) for y in ys)
        if odd or flips and q % 4 == 3 and any(ys):
            want.append(q)
    assert got == [want]
    # some primes skip the odd stage, and for x^2 - x - 1 some are flips only
    assert len(want) < np.count_nonzero(roots[:tested].any(axis=0))
    if flips:
        residue = [q for q, y in zip(p.tolist(), roots[0].tolist()) if y and pow(y, (q - 1) // 2, q) == 1]
        assert {q % 4 for q in residue} == {1, 3} and {q for q in residue if q % 4 == 3} <= set(want)


_ODD_PRIMES_20000 = oracles.simple_sieve(20000)[1:]


def _stride_fold(g, c):
    return tuple((k * g, v) for k, v in enumerate(c) if v)


# G = c2 y^2 + c1 y + c0 at y = x^g: any G, a linear one, or one with d = 0
_STRIDE_FOLDS = st.builds(
    _stride_fold,
    st.integers(1, 10),
    st.one_of(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
        st.tuples(st.integers(-2, 2), st.sampled_from((-2, -1, 1, 2)), st.just(0)),
        st.sampled_from(((1, 2, 1), (1, -2, 1), (-1, 2, -1), (-1, -2, -1), (0, 0, 1), (0, 0, -2))),
    ),
).filter(bool)


_FOLDS_AND_PRIMES = st.tuples(
    st.lists(_STRIDE_FOLDS, min_size=1, max_size=6),
    st.lists(st.sampled_from(_ODD_PRIMES_20000), min_size=1, max_size=3, unique=True),
)


@lru_cache(maxsize=None)
def _fold_oracles(p, coeffs):
    stride = density._fold_stride(coeffs)
    return oracles.brute_stride_roots(p, stride, coeffs), {
        pow(a, stride, p) for a in oracles.brute_fold_primitive_roots(p, coeffs)
    }


@settings(max_examples=100)
@given(_FOLDS_AND_PRIMES)
# the verifier's folds y^2 + y + 1 and y^2 - y + 1 at y = a^i, at p = 3 (a
# double root), 7 = 6 + 1, 13 = 6 * 2 + 1 and 19997 = 3 (mod 4)
@example(([_stride_fold(i, (1, s, 1)) for i in (1, 2) for s in (1, -1)] * 3, [3, 7, 13, 19997]))
# linear, d = 0, both root products and Fibonacci folds
@example(([((0, -1), (1, 2)), ((0, 1), (3, -2), (6, 1)), density._FIB_COEFFS,
           ((0, -1), (2, 1), (4, 2)), ((0, 1), (4, 1), (8, 1))], [5, 11, 29, 19993]))
def test_closed_form_matches_oracles_fold_by_fold(case):
    folds, primes = case
    p = np.array(primes, dtype=np.int64)
    for coeffs in folds:
        roots, primitive = density._closed_forms(p, coeffs)
        assert roots.shape == primitive.shape == (2, p.size)
        for j, q in enumerate(primes):
            want, powers = _fold_oracles(q, coeffs)
            assert {r for r in roots[:, j].tolist() if r} == set(want), (coeffs, q)
            for r, flag in zip(roots[:, j].tolist(), primitive[:, j].tolist()):
                assert flag == (bool(r) and want[r]), (coeffs, q, r)
            # the roots that pass are the g-th powers of the primitive witnesses
            assert set(roots[:, j][primitive[:, j]].tolist()) == powers, (coeffs, q)


def test_census_kernel_matches_closed_form_and_oracle():
    # Every fold G(x^g) with coefficients in [-2, 2], g = 1 and 2, at every
    # odd prime below 2 * 10^4: the census kernel's mask is where some root
    # passes in `_closed_forms`, or the fold vanishes, and where the table
    # of the primitive roots a has one with G(a^g) = 0.
    p = np.array(_ODD_PRIMES_20000, dtype=np.int64)
    cs = [(c0, c1, c2) for c0 in range(-2, 3) for c1 in range(-2, 3) for c2 in range(-2, 3)]
    masks = {}
    for g, c in ((g, c) for g in (1, 2) for c in cs):
        coeffs = _stride_fold(g, c)
        masks[g, c] = mask = _fast_exists(p, coeffs)
        closed = density._closed_forms(p, coeffs)[1].any(axis=0) | (math.gcd(*c) % p == 0)
        assert mask.tolist() == closed.tolist(), (g, c)
    pairs = sorted({(c1, c2) for _, c1, c2 in cs})
    c1, c2 = (np.array(v, dtype=np.int32)[:, None] for v in zip(*pairs))
    rows = np.arange(len(pairs))[:, None]
    for j, q in enumerate(_ODD_PRIMES_20000):
        a = oracles.primitive_roots_by_table(q).astype(np.int32)
        want = {}
        for g in (1, 2):
            y = a if g == 1 else a * a % q
            # which values c1 y + c2 y^2 take, one row per (c1, c2)
            taken = np.zeros((len(pairs), q), dtype=bool)
            taken[rows, (c1 * y + c2 * (y * y % q)) % q] = True
            want |= {(g, (c0, *pair)): bool(row[-c0 % q]) for pair, row in zip(pairs, taken) for c0 in range(-2, 3)}
        assert {key: bool(mask[j]) for key, mask in masks.items()} == want, q
    # the flip primes of y^2 + c1 y - 1 and its negation at g = 1, p = 3
    # (mod 4) where G has roots, come with both outcomes
    for c in [(s, c1, -s) for s in (1, -1) for c1 in (-2, -1, 1, 2)]:
        rooted = density._closed_forms(p, _stride_fold(1, c))[0].any(axis=0)
        assert set(masks[1, c][rooted & (p % 4 == 3)].tolist()) == {False, True}, c


def test_census_kernel_takes_no_half_test_at_flip_primes(monkeypatch):
    # x^2 - x - 1 at p = 3 (mod 4) is decided by the odd tests alone
    seen = []
    kernel = density._half_test
    monkeypatch.setattr(density, "_half_test", lambda a, p, g: seen.append(p.tolist()) or kernel(a, p, g))
    p = np.array(_ODD_PRIMES_20000, dtype=np.int64)
    hit = _fast_exists(p, density._FIB_COEFFS)
    (tested,) = seen
    roots = density._closed_forms(p, density._FIB_COEFFS)[0][0]
    assert tested == [q for q, y in zip(p.tolist(), roots.tolist()) if y and q % 4 == 1]
    assert hit[p % 4 == 3].any()


@pytest.mark.parametrize("chunk", [density._CHUNK, 1 << 11])
def test_verifier_takes_one_square_root_and_no_factorisation_per_segment(monkeypatch, chunk):
    # all 2 i_max folds of a segment share one sqrt_small(-3, p), and the
    # orders factor no p - 1; at 1 << 11 the limit spans five segments
    want = verify_zero_density_claims(10**4, 5)
    monkeypatch.setattr(density, "_CHUNK", chunk)
    counts = {"sqrt_small": 0, "_factor_pairs": 0}
    for module, name in ((density, "sqrt_small"), (ff, "_factor_pairs")):
        def counted(*args, kernel=getattr(module, name), name=name):
            counts[name] += 1
            return kernel(*args)
        monkeypatch.setattr(module, name, counted)
    assert verify_zero_density_claims(10**4, 5) == want
    segments = len(density._segments(10**4))
    assert counts == {"sqrt_small": segments, "_factor_pairs": 0}


@settings(max_examples=200)
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
    assert _fast_exists(np.array([p]), coeffs).tolist() == [exists_primitive_trinomial(p, e1, e2)], (p, e1, e2)


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
    # a^2 + a - 1: its primitive roots are the inverses of the Fibonacci primitive roots
    assert trinomial_predicted((2, 0), (1, 0)) == c.t4_density
    assert trinomial_predicted((1, 0), (-1, 2)) == 0.0
    # the heading is read off the fold: 2a^2 = 1 and -2 = 1 are not Artin's
    # situation, a = 2 and a = -1/2 are, and a fold whose exponent is in
    # range at finitely many primes (here none) has no density
    assert trinomial_predicted((2, 0), (2, 0)) == 0.0
    assert trinomial_predicted((0, 1), (0, 1)) == 0.0
    assert trinomial_predicted((-1, 2), (-1, 2)) == c.artin
    assert trinomial_predicted((1, 1), (1, 1)) == c.artin
    assert trinomial_predicted((2, 2), (1, 1)) == 0.0
    assert trinomial_predicted((1, 0), (1, 2)) == 0.0


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
    trinomial_witnesses(999983, 3, 1)
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
