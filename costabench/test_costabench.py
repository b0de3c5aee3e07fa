"""The benchmark's own tests: smoke-size runs and checks that catch tampering.

Run from the repository root:

    python3 -m pytest costabench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _main(*argv: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def _benchmark_json() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_workload_is_correct(workload):
    result = _main("--workload", workload, "--seed", "3", "--seconds", "1", "--scale", "smoke")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    names = [m["name"] for m in _benchmark_json()["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(v["value"] > 0 for v in result["metrics"].values())


# modules whose traced functions each workload must reach
REACHED = {
    "census": ("ff", "fpr", "density", "cli"),
    "construct": ("ff", "constructions", "costas", "cli"),
    "scan": ("ff", "density", "cli"),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_call_counts_repeat(workload):
    argv = ("--workload", workload, "--seed", "5", "--seconds", "1", "--scale", "smoke", "--trace", "1")
    first, again = _main(*argv), _main(*argv)
    assert first["correct"] and again["correct"]
    layers = _benchmark_json()["per_layer"]
    assert sorted(first["metrics"]) == sorted(m["name"] for m in layers)
    counts = [name for name in first["metrics"] if not name.endswith("_s")]
    assert {n: first["metrics"][n] for n in counts} == {n: again["metrics"][n] for n in counts}
    for module in REACHED[workload]:
        assert any(first["metrics"][n]["value"] > 0 for n in counts if n.startswith(module + "."))


def test_benchmark_json_lists_the_reported_layers():
    layers = _benchmark_json()["per_layer"]
    assert [(m["name"], m["unit"]) for m in layers] == run.layer_metrics()


def _one_rep(workload: str, seed: int) -> tuple[run.Run, dict, Path]:
    bench = run.Run(workload, seed, 0, False, "smoke")
    workdir = bench.workdir / "rep"
    rep = run.run_child(bench.plan, workdir, False, 60.0)
    return bench, rep, workdir


def _tamper_census_row(rep: dict) -> dict:
    bad = json.loads(json.dumps(rep))
    lines = bad["ops"][0]["stdout"].splitlines()
    x, count, rest = lines[-1].split(",", 2)
    lines[-1] = f"{x},{int(count) + 1},{rest}"
    bad["ops"][0]["stdout"] = "\n".join(lines) + "\n"
    return bad


def _tamper_verify_line(bench: run.Run, rep: dict) -> dict:
    bad = json.loads(json.dumps(rep))
    i = next(i for i, op in enumerate(bench.ops) if op["check"]["type"] == "verify_swapped")
    bad["ops"][i]["stdout"] = bad["ops"][i]["stdout"].replace("k=", "k=1")
    return bad


@pytest.mark.parametrize("tampered_first", [True, False])
def test_tampered_census_row_is_a_failed_operation(tampered_first):
    bench, rep, workdir = _one_rep("census", 2)
    try:
        reps = [_tamper_census_row(rep), rep] if tampered_first else [rep, _tamper_census_row(rep)]
        for r in reps:
            bench._evaluate(r, workdir)
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
    assert bench.attempted == 2 * len(bench.ops)
    # tampered first: the oracle rejects it and the genuine copy then
    # differs from it; tampered second: it differs from the checked first
    assert bench.failed == (2 if tampered_first else 1)


@pytest.mark.parametrize("tampered_first", [True, False])
def test_tampered_verify_line_is_a_failed_operation(tampered_first):
    bench, rep, workdir = _one_rep("construct", 2)
    try:
        bad = _tamper_verify_line(bench, rep)
        for r in ([bad, rep] if tampered_first else [rep, bad]):
            bench._evaluate(r, workdir)
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
    assert bench.failed == (2 if tampered_first else 1)


def test_unmodified_repetition_passes():
    bench, rep, workdir = _one_rep("scan", 4)
    try:
        bench._evaluate(rep, workdir)
        bench._evaluate(rep, workdir)
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
    assert bench.failed == 0 and bench.errors == []


def test_frozen_exceptions_match_brute_force():
    want = []
    for p in oracle.primes_upto(40):
        for i in range(1, workloads.I_MAX + 1):
            for name, e1, e2 in (("a", (i, 1), (2 * i, 1)), ("b", (i, 0), (2 * i, 1)), ("c", (i, 0), (-i, 2))):
                a1, a2 = oracle.exponent(*e1, p), oracle.exponent(*e2, p)
                if not (1 <= a1 <= p - 2 and 1 <= a2 <= p - 2):
                    continue
                hits = [a for a in oracle.primitive_roots(p) if (pow(a, a1, p) + pow(a, a2, p)) % p == 1]
                if hits:
                    want.append([name, p, i, hits[0]])
    assert workloads.load_reference()["zero_density_exceptions"] == want


def test_oracle_small_cases():
    assert oracle.is_costas([2, 1, 3]) and oracle.is_costas([1, 3, 4, 2])
    assert not oracle.is_costas([1, 2, 3]) and not oracle.is_costas([1, 1, 2])
    assert oracle.first_collision([1, 2, 3]) == (1, 1, 2)
    assert oracle.first_collision([4, 1, 2, 3]) == (1, 2, 3)
    assert oracle.first_collision([2, 1, 3]) is None
    assert oracle.prime_count(100, [10, 100]) == [4, 25]
    assert abs(oracle.artin_partial(10**6) - 0.3739558) < 1e-6


def test_same_seed_same_plan():
    for workload in workloads.WORKLOADS:
        assert workloads.make_plan(workload, 9) == workloads.make_plan(workload, 9)
    assert workloads.make_plan("census", 1) != workloads.make_plan("census", 2)


def test_exits_nonzero_without_sources():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "census", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
