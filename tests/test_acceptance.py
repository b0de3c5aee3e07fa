"""End-to-end acceptance checks, one per claim the library reproduces.

Each test prints a single pass/fail line so the whole gate can be read
off a -s run. The million-scale censuses are shared session fixtures;
set COSTAS_THREADS to parallelize them.
"""

from __future__ import annotations

import itertools
import time

import pytest

from costaskit.cli import run_sweep, worker_count
from costaskit.constructions import METHODS, build, find_spec
from costaskit.costas import enumerate_costas, is_costas
from costaskit.density import (
    artin_constant,
    census_g4,
    census_t4,
    exists_primitive_trinomial,
    predicted_constants,
    prime_sieve,
    trinomial_census,
    verify_zero_density_claims,
)
from costaskit.ff import make_field, prime_power
from costaskit.fpr import fpr_set, g4_applicable, t4_admissible, t4_applicable

import oracles

MILLION = 10**6


def _line(n: int, ok: bool, detail: str) -> bool:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


@pytest.fixture(scope="session")
def workers() -> int:
    return worker_count()


@pytest.fixture(scope="session")
def t4_rows(workers):
    return census_t4(MILLION, workers=workers)


@pytest.fixture(scope="session")
def g4_rows(workers):
    return census_g4(MILLION, workers=workers)


@pytest.fixture(scope="session")
def applicability_sets():
    # The scalar searches, independent of the batched census kernel.
    t4s, g4s = set(), set()
    for p in prime_sieve(MILLION):
        if p % 10 in (1, 9) and fpr_set(p):
            t4s.add(p)
        if p % 20 in (1, 9) and g4_applicable(p):
            g4s.add(p)
    return t4s, g4s


def test_criterion_01_sweep_all_methods():
    t0 = time.time()
    per_method, failures, skipped = run_sweep(1024)
    took = time.time() - t0
    total = sum(len(v) for v in per_method.values())
    ok = failures == [] and total > 900 and all(per_method[m] for m in METHODS)
    ok = ok and skipped == [128, 256, 512, 1024]
    assert _line(
        1, ok,
        f"{total} builds over q<=1024 all verified in {took:.1f}s, "
        f"degree cap skipped {skipped}",
    )


def test_criterion_02_residue_necessity():
    bad = []
    for p in prime_sieve(10**5):
        if p != 5 and t4_applicable(p) and p % 10 not in (1, 9):
            bad.append(p)
    ok = not bad
    ok = ok and t4_applicable(5)
    ok = ok and t4_admissible(29) and not t4_applicable(29)
    assert _line(
        2, ok,
        "applicable primes to 1e5 are 1 or 9 mod 10 "
        "(carve-out: p=5 is applicable outside those classes), "
        "29 admissible but not applicable",
    )


def test_criterion_03_root_shift_bijection():
    mismatches = []
    for p in prime_sieve(10**4):
        if p == 2:
            continue
        shifted = {a + 1 for a in range(1, p)
                   if (a * a + a - 1) % p == 0 and oracles.is_primitive(make_field(p), a)}
        if shifted != set(fpr_set(p)):
            mismatches.append(p)
    ok = not mismatches
    assert _line(
        3, ok,
        "fpr_set(p) == {a+1 : a primitive, a^2+a=1} for all p <= 1e4"
        + ("" if ok else f", mismatches {mismatches[:5]}"),
    )


def test_criterion_04_t4_census_ratio(t4_rows):
    last = t4_rows[-1]
    ok = 0.25 <= last.ratio <= 0.28
    assert _line(
        4, ok,
        f"t4 census at 1e6: {last.count}/{last.pi_x} = {last.ratio:.6f}, "
        f"predicted {last.predicted:.6f}, band [0.25, 0.28]",
    )


def test_criterion_05_g4_census_and_set_identity(g4_rows, applicability_sets):
    t4s, g4s = applicability_sets
    last = g4_rows[-1]
    ok = 0.08 <= last.ratio <= 0.10
    ok = ok and g4s == {p for p in t4s if p % 20 in (1, 9)}
    ok = ok and last.count == len(g4s)
    assert _line(
        5, ok,
        f"g4 census at 1e6: {last.count}/{last.pi_x} = {last.ratio:.6f} in "
        f"[0.08, 0.10]; g4 set equals t4 set restricted to 1,9 mod 20",
    )


def test_criterion_06_artin_and_predicted():
    a = artin_constant(MILLION)
    c = predicted_constants()
    ok = abs(a - 0.3739558138) < 1e-6
    ok = ok and round(c.t4_density, 4) == 0.2657
    ok = ok and round(c.g4_density, 4) == 0.0886
    ok = ok and c.ratio == 3.0
    assert _line(
        6, ok,
        f"artin(1e6) = {a:.10f}, densities {c.t4_density:.4f}/{c.g4_density:.4f}, "
        f"quotient {c.ratio}",
    )


def test_criterion_07_zero_density_families():
    report = verify_zero_density_claims(10**4, 5)
    expected_b = {("b", 7, 1, 3), ("b", 13, 2, 2), ("b", 19, 3, 2), ("b", 31, 5, 3)}
    expected_c = {("c", 3, 1, 2), ("c", 7, 1, 3), ("c", 13, 2, 2),
                  ("c", 19, 3, 2), ("c", 7, 5, 3), ("c", 31, 5, 3)}
    exceptions = set(report.exceptions)
    ok = report.violations == ()
    ok = ok and exceptions == expected_b | expected_c
    ok = ok and not any(e[0] == "a" for e in exceptions)
    census = trinomial_census(10**4, (1, 0), (-1, 2))
    ok = ok and census.rows[-1].count == 2
    ok = ok and all(r.count == 2 for r in census.rows if r.x >= 10)
    assert _line(
        7, ok,
        f"zero violations at (1e4, 5) with sharp thresholds 3i and 6i+1, "
        f"{len(exceptions)} small-p exceptions as expected; "
        f"order-6 trinomial census stays at 2 primes beyond 7",
    )


def test_criterion_08_trinomial_matches_fpr():
    mismatches = []
    for p in prime_sieve(10**4):
        if p < 5:
            continue
        if exists_primitive_trinomial(p, (2, 0), (1, 1)) != bool(fpr_set(p)):
            mismatches.append(p)
    ok = not mismatches
    assert _line(
        8, ok,
        "primitive solution of a^2 + a^(1+(p-1)/2) = 1 exists exactly when an "
        "FPR does, for all 5 <= p <= 1e4",
    )


def test_criterion_09_enumeration_and_membership():
    ok = True
    for n in range(1, 7):
        enumerated = enumerate_costas(n)
        naive = [list(p) for p in itertools.permutations(range(1, n + 1))
                 if oracles.naive_is_costas(list(p))]
        ok = ok and enumerated == naive
    pools = {n: {tuple(a) for a in enumerate_costas(n)} for n in range(1, 9)}
    checked = 0
    for q in range(2, 31):
        pk = prime_power(q)
        if pk is None:
            continue
        field = make_field(*pk)
        for method in METHODS:
            spec = find_spec(method, field)
            if spec is None:
                continue
            perm = build(spec)
            if 1 <= len(perm) <= 8:
                checked += 1
                ok = ok and tuple(perm) in pools[len(perm)]
    ok = ok and checked > 20
    assert _line(
        9, ok,
        f"enumeration matches the brute filter for n <= 6; "
        f"{checked} small construction outputs all appear in the enumerated sets",
    )


def test_criterion_10_identical_exponent_census(workers):
    result = trinomial_census(MILLION, (1, 0), (1, 0), workers=workers)
    last = result.rows[-1]
    ok = 0.35 <= last.ratio <= 0.40
    assert _line(
        10, ok,
        f"census of 2a = 1 with a primitive at 1e6: {last.ratio:.6f} in "
        f"[0.35, 0.40] (skipped {result.skipped})",
    )
