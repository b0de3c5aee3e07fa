"""Smoke runs of the two scripts in scripts/, each in its own interpreter."""

from __future__ import annotations

import hashlib
import io
import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from costaskit.cli import main, write_census_csv
from costaskit.density import census_g4, census_t4, trinomial_census, verify_zero_density_claims

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
DIGESTS = Path(__file__).resolve().parent / "digests.py"
LIMIT = 1000


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, timeout=120,
    )


def _csv(rows) -> str:
    fh = io.StringIO()
    write_census_csv(fh, rows)
    return fh.getvalue()


def test_reproduce_theorem_densities(tmp_path):
    r = _run("reproduce_theorem_densities.py",
             "--limit", str(LIMIT), "--workers", "1", "--out-dir", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "census_t4.csv").read_text() == _csv(census_t4(LIMIT, workers=1))
    assert (tmp_path / "census_g4.csv").read_text() == _csv(census_g4(LIMIT, workers=1))


def test_trinomial_exploration(tmp_path):
    r = _run("trinomial_exploration.py",
             "--limit", str(LIMIT), "--i-max", "2", "--workers", "1", "--out-dir", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert "no violations" in r.stdout
    shapes = runpy.run_path(str(SCRIPTS / "trinomial_exploration.py"))["SHAPES"]
    assert len(shapes) == 3
    for name, (e1, e2) in shapes.items():
        want = _csv(trinomial_census(LIMIT, e1, e2, workers=1).rows)
        assert (tmp_path / f"trinomial_{name}.csv").read_text() == want, name


def test_trinomial_exploration_at_limit_two(tmp_path):
    # no odd prime: every family is skipped at p = 2, and each census has one row
    r = _run("trinomial_exploration.py", "--limit", "2", "--workers", "1", "--out-dir", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert "no violations" in r.stdout
    assert "out-of-range primes skipped: {'a': 5, 'b': 5, 'c': 5}" in r.stdout


SCRIPT_NAMES = ["reproduce_theorem_densities.py", "trinomial_exploration.py"]


@pytest.mark.parametrize("script", SCRIPT_NAMES)
def test_negative_workers_refused(script, tmp_path):
    out_dir = tmp_path / "out"
    r = _run(script, "--limit", "100", "--workers", "-2", "--out-dir", str(out_dir))
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == f"{script}: --workers must not be negative, got -2\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("script", SCRIPT_NAMES)
def test_negative_costas_threads_refused(script, tmp_path, monkeypatch):
    monkeypatch.setenv("COSTAS_THREADS", "-3")
    out_dir = tmp_path / "out"
    r = _run(script, "--limit", "100", "--out-dir", str(out_dir))
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == f"{script}: COSTAS_THREADS must not be negative, got -3\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("script, args, message", [
    ("trinomial_exploration.py", ["--limit", "200000"], "limit 200000 above cap 100000"),
    ("trinomial_exploration.py", ["--i-max", "11"], "i_max must be in 1..10"),
    ("reproduce_theorem_densities.py", ["--limit", "1000000000"], "census limit 1000000000 above cap 100000000"),
])
def test_library_errors_refused(script, args, message, tmp_path):
    out_dir = tmp_path / "out"
    r = _run(script, *args, "--workers", "1", "--out-dir", str(out_dir))
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == f"{script}: {message}\n"
    assert not out_dir.exists()


def test_bench_smoke(tmp_path, capsys):
    out = tmp_path / "bench.json"
    r = subprocess.run([sys.executable, str(DIGESTS), "--bench", str(out), "--smoke"],
                       capture_output=True, text=True, timeout=300)
    assert (r.returncode, r.stdout, r.stderr) == (0, "", "")
    doc = json.loads(out.read_text())
    assert doc["smoke"] is True and doc["repeat"] == 2 and doc["noise_band"] >= 0
    assert set(doc["machine"]) == {"platform", "processor", "cpus", "python", "numpy"}
    by_name = {c["name"]: c for c in doc["commands"]}
    for c in doc["commands"]:
        assert c["exit"] == 0 and c["outputs_agree"], c["name"]
        assert len(c["wall_s"]) == len(c["peak_rss_mib"]) == 2
        # every command imports numpy, well above the runner's own peak
        assert min(c["wall_s"]) > 0 and min(c["peak_rss_mib"]) > 20, c["name"]
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
    assert by_name["verify w1-401.json"]["stdout_sha256"] == sha("costas\n")
    assert main(["build", "g2", "961"]) == 0
    document = capsys.readouterr().out
    assert by_name["build g2 961 --out g2-961.json"]["files_sha256"] == {"g2-961.json": sha(document)}
    assert by_name["census t4 30000"]["stdout_sha256"] == sha(_csv(census_t4(30000, workers=1)))
    assert main(["fpr", "--range", "3", "30000", "--format", "json"]) == 0
    assert by_name["fpr --range 3 30000 --format json"]["stdout_sha256"] == sha(capsys.readouterr().out)
    verifier = by_name["repr(verify_zero_density_claims(10**4, 5))"]["stdout_sha256"]
    assert verifier == sha(repr(verify_zero_density_claims(10**4, 5)) + "\n")
    layers = doc["layers"]
    kernels = ("primes_in_range", "sqrt_small(5)", "_factor_pairs", "_order_tests", "_closed_forms fib", "_fast_exists fib",
               "pow_mod_array")
    assert layers["calls"] == 3
    assert set(layers["q1_s"]) == {f"{k} below 300000" for k in kernels} | {
        "_fold_roots_exist d=16 below 1000000", "is_costas w1 n=4098"}
    assert min(layers["q1_s"].values()) > 0
    batch = layers["tracemalloc"]["pow_mod_array below 300000"]
    assert set(layers["tracemalloc"]) == {"pow_mod_array below 300000"} and batch["elements"] > 10_000
    assert batch["peak_bytes"] > 8 * batch["elements"]
    sources = [*SCRIPTS.parent.glob("src/costaskit/*.py"), *SCRIPTS.glob("*.py")]
    assert doc["source_lines"] == sum(line.strip() != "" for f in sources for line in f.read_text().splitlines())
