"""sha256 digests of the outputs a refactor must keep, and a benchmark of
the commands the project is measured by.

Runs each item below in a fresh interpreter under the caller's PYTHONPATH,
in an empty temporary directory, and prints one `sha256  name` line per
output: the stdout, stderr and exit code of every command, and each file it
writes (build documents, the CSVs of the scripts). The scripts run from the
`scripts` directory beside the `src` that holds the imported package. Two
trees compare with one diff:

    PYTHONPATH=old/src python3 tests/digests.py > old.txt
    PYTHONPATH=new/src python3 tests/digests.py > new.txt
    diff old.txt new.txt

It takes about 25 s on two CPUs. pytest does not collect it.

With --bench OUT.json it runs the benchmark commands instead, each
REPEAT times with COSTAS_THREADS=1, and writes OUT.json: per
command its wall seconds and peak RSS per run, its exit code and the sha256
of its stdout, stderr and files, and whether every run agreed on them.
--smoke runs the same commands on small inputs. Its `layers` section
times the census kernels in-process, in a child interpreter (--layers
prints that section alone). The full run takes about 2 minutes on two
CPUs:

    PYTHONPATH=src python3 tests/digests.py --bench BENCH.json

Peak RSS is the child's ru_maxrss. Linux counts into it the peak of the
process that spawned it, so the runner streams every output through files
and stays near 10 MiB, below any command that imports numpy (about 30 MiB).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CENSUS_PAIRS = (
    ("2", "1,1"), ("1", "1"), ("2", "2"), ("4,1", "2"), ("4", "2,1"), ("3", "1"), ("5", "1"), ("16", "1"), ("2", "1"),
)
# g4 after t4 in one interpreter reads the segment masks t4 kept
WARM_G4 = (
    "from costaskit.cli import main; "
    "print(main(['census', 't4', '10000000', '--workers', '1'])); "
    "print(main(['census', 'g4', '10000000', '--workers', '1']))"
)
VERIFIER = (
    "from costaskit.density import verify_zero_density_claims; "
    "print(repr(verify_zero_density_claims(10**5, 10)))"
)
# the call the `scan` benchmark workload makes
VERIFIER_SCAN = (
    "from costaskit.density import verify_zero_density_claims; "
    "print(repr(verify_zero_density_claims(10**4, 5)))"
)
# the moduli `make_field` finds with the batched gcd, every p^k < 2^16 with 2 <= k <= 6
MODULI = (
    "from costaskit.ff import is_prime, make_field; "
    "print([(p, k, make_field(p, k).modulus) for p in range(2, 2**8) if is_prime(p) "
    "for k in range(2, 7) if p**k < 2**16])"
)
METHODS = ("w1", "w2", "l2", "g2", "g3", "g4c2", "t4", "g4")
# one small q per method, then n = 0 and n = 1
SMALL_BUILDS = (
    ("w1", "101"), ("w2", "97"), ("l2", "64"), ("g2", "49"), ("g3", "243"), ("g4c2", "32"),
    ("t4", "59"), ("g4", "61"), ("g4", "4"), ("t4", "5"),
)
# Welch refusals: alpha = 0, a non-generator, a field too small, an extension field
WELCH_REFUSALS = (("w1", "7", "0"), ("w1", "7", "2"), ("w2", "3", "2"), ("w1", "4", "2"))
# GF(11^4), GF(5^6) and GF(7^5), a prime near 3e4, and the two at the log-table cap
DOCUMENT_QS = ("14641", "15625", "16807", "30539", "923521", "999983")
# runs of each benchmark command, so the file states its own noise band
REPEAT = 2
# in-process calls of each layer, so its first quartile is steady
LAYER_CALLS = 25


def _commands() -> list[tuple[str, list[str]]]:
    cli = [sys.executable, "-m", "costaskit"]
    out = [
        (f"census {kind} 10000000 --workers {w}", [*cli, "census", kind, "10000000", "--workers", w])
        for kind in ("t4", "g4") for w in ("1", "2")
    ]
    out.append(("census t4 then g4 10000000, one interpreter", [sys.executable, "-c", WARM_G4]))
    out += [
        (f"census trinomial 1000000 --e1 {e1} --e2 {e2}",
         [*cli, "census", "trinomial", "1000000", "--e1", e1, "--e2", e2, "--workers", "1"])
        for e1, e2 in CENSUS_PAIRS
    ]
    out += [
        ("fpr --range 3 1000000", [*cli, "fpr", "--range", "3", "1000000"]),
        ("fpr --range 3 1000000 --format json", [*cli, "fpr", "--range", "3", "1000000", "--format", "json"]),
        # the top census segment below the sieve cap
        ("fpr --range 99876866 100000000", [*cli, "fpr", "--range", "99876866", "100000000"]),
        ("fpr 2147483659", [*cli, "fpr", "2147483659"]),
        # p - 1 = s * 2^e with e = 32 and 57: the scalar square root's longest correction loops
        ("fpr 18446744069414584321", [*cli, "fpr", "18446744069414584321"]),
        ("fpr 18446744069414584321 --format json", [*cli, "fpr", "18446744069414584321", "--format", "json"]),
        ("fpr 4179340454199820289", [*cli, "fpr", "4179340454199820289"]),
        ("sweep 1024", [*cli, "sweep", "1024"]),
        ("repr(verify_zero_density_claims(10**5, 10))", [sys.executable, "-c", VERIFIER]),
        ("repr(verify_zero_density_claims(10**4, 5))", [sys.executable, "-c", VERIFIER_SCAN]),
        ("make_field(p, k).modulus for p^k < 2^16", [sys.executable, "-c", MODULI]),
        # an empty --checkpoints is refused like any other empty token
        ('census t4 100 --checkpoints ""', [*cli, "census", "t4", "100", "--checkpoints", ""]),
    ]
    out += [(f"build {m} {q}", [*cli, "build", m, q]) for m, q in SMALL_BUILDS]
    out += [(f"build {m} {q} --alpha {a}", [*cli, "build", m, q, "--alpha", a]) for m, q, a in WELCH_REFUSALS]
    out += [
        (f"build {m} {q} --out doc.json", [*cli, "build", m, q, "--out", "doc.json"])
        for q in DOCUMENT_QS for m in METHODS
    ]
    return out


def _src() -> Path:
    """The src directory that holds the imported package."""
    spec = importlib.util.find_spec("costaskit")
    if spec is None or spec.origin is None:
        raise SystemExit("costaskit is not importable: set PYTHONPATH to a src directory")
    return Path(spec.origin).resolve().parents[1]


def _env(**extra: str) -> dict[str, str]:
    # The commands run in temporary directories, so a relative PYTHONPATH
    # would not find the package there.
    path = os.pathsep.join(filter(None, [str(_src()), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def _scripts() -> list[tuple[str, list[str]]]:
    scripts = _src().parent / "scripts"
    # a relative directory, so the paths the scripts print are the same every run
    return [
        ("trinomial_exploration.py",
         [sys.executable, str(scripts / "trinomial_exploration.py"), "--workers", "1", "--out-dir", "out"]),
        ("reproduce_theorem_densities.py --limit 1000000",
         [sys.executable, str(scripts / "reproduce_theorem_densities.py"), "--limit", "1000000",
          "--workers", "1", "--out-dir", "out"]),
    ]


def _bench_commands(smoke: bool) -> list[tuple[str, list[str]]]:
    """The commands the project is measured by; --smoke shrinks their inputs."""
    cli = [sys.executable, "-m", "costaskit"]
    if smoke:
        census, top, trinomial, fpr = "30000", "100000", "30000", "30000"
        sweeps = ("64", "128")
        builds = (("w1", "1009"), ("l2", "1009"), ("g4", "61"), ("g2", "961"))
        verify_q = "401"
        verifier = "repr(verify_zero_density_claims(10**4, 5))", VERIFIER_SCAN
    else:
        census, top, trinomial, fpr = "10000000", "100000000", "1000000", "10000000"
        sweeps = ("1024", "4096")
        # at the log-table cap
        builds = (("w1", "999983"), ("l2", "999983"), ("g4", "999961"), ("g2", "923521"))
        verify_q = "16001"  # n = 16 000
        verifier = "repr(verify_zero_density_claims(10**5, 10))", VERIFIER
    out = [
        (f"census {kind} {census}", [*cli, "census", kind, census, "--workers", "1"])
        for kind in ("t4", "g4")
    ]
    out.append((f"census t4 {top}", [*cli, "census", "t4", top, "--workers", "1"]))
    out += [
        (f"census trinomial {trinomial} --e1 {e1} --e2 1",
         [*cli, "census", "trinomial", trinomial, "--e1", e1, "--e2", "1", "--workers", "1"])
        for e1 in ("3", "16")
    ]
    out.append((f"fpr --range 3 {fpr}", [*cli, "fpr", "--range", "3", fpr]))
    out.append((f"fpr --range 3 {fpr} --format json", [*cli, "fpr", "--range", "3", fpr, "--format", "json"]))
    out.append((verifier[0], [sys.executable, "-c", verifier[1]]))
    out += [(f"sweep {q}", [*cli, "sweep", q]) for q in sweeps]
    out += [(f"build {m} {q} --out {m}-{q}.json", [*cli, "build", m, q, "--out", f"{m}-{q}.json"])
            for m, q in builds]
    doc = f"w1-{verify_q}.json"
    out.append((f"build w1 {verify_q} --out {doc}", [*cli, "build", "w1", verify_q, "--out", doc]))
    out.append((f"verify {doc}", [*cli, "verify", doc]))
    return out


def _sha(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _run(argv: list[str], cwd: str, env: dict[str, str]) -> tuple[dict, float, float]:
    """Run argv in cwd, stdout and stderr into files. Returns its outputs (the
    exit code and the sha256 of stdout, stderr and each file it wrote into
    cwd), its wall seconds and its peak RSS in MiB."""
    before = set(os.listdir(cwd))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        outputs = {
            "exit": proc.returncode,
            "stdout_sha256": hashlib.file_digest(out, "sha256").hexdigest(),
            "stderr_sha256": hashlib.file_digest(err, "sha256").hexdigest(),
        }
    new = sorted(p for p in Path(cwd).rglob("*") if p.is_file() and p.relative_to(cwd).parts[0] not in before)
    outputs["files_sha256"] = {p.name: _sha(p) for p in new}
    return outputs, wall, usage.ru_maxrss / 1024


def _line(digest: str, name: str) -> str:
    return f"{digest}  {name}"


def digests() -> int:
    env = _env()
    for name, argv in _commands() + _scripts():
        with tempfile.TemporaryDirectory() as tmp:
            r, _, _ = _run(argv, tmp, env)
        lines = [
            _line(r["stdout_sha256"], f"{name} [stdout]"),
            _line(r["stderr_sha256"], f"{name} [stderr]"),
            _line(hashlib.sha256(str(r["exit"]).encode()).hexdigest(), f"{name} [exit]"),
        ]
        lines += [_line(digest, f"{name} {file}") for file, digest in r["files_sha256"].items()]
        print(*lines, sep="\n", flush=True)
    return 0


def _git_commit(tree: Path) -> str | None:
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty"],
                           cwd=tree, capture_output=True, text=True)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def _source_lines(tree: Path) -> int:
    """Non-blank lines of the package and the scripts, the size the project counts."""
    files = [*(tree / "src" / "costaskit").glob("*.py"), *(tree / "scripts").glob("*.py")]
    return sum(1 for f in files for line in f.read_text().splitlines() if line.strip())


def _layers(smoke: bool) -> dict:
    """Seconds per call of the census kernels on the top segments, the
    Fibonacci closed form and census mask that run them there, the fold-root kernel and
    the Costas check: the first quartile of
    LAYER_CALLS in-process calls (3 with --smoke), in rounds that call
    each layer once. Also the tracemalloc peak of one
    `pow_mod_array` call on each order-test batch."""
    import tracemalloc
    from functools import partial

    import numpy as np
    from costaskit import constructions, costas, density, ff

    calls = 3 if smoke else LAYER_CALLS
    timed, batches = {}, {}
    for x in (300_000,) if smoke else (300_000, 10**7, 10**8):
        # the top census segment of 2^17 numbers up to x, and its order
        # tests: one root of x^2 - x - 1 at each prime where 5 is a square
        lo, hi = x + 1 - density._CHUNK, x + 1
        odd = ff.primes_in_range(lo, hi)
        square, root = ff.sqrt_small(5, odd)
        p = odd[square]
        a = (1 + root[square]) * ((p + 1) // 2) % p
        at, q = ff._factor_pairs(p - 1)
        batches[x] = a[at], (p[at] - 1) // q, p[at]
        timed[f"primes_in_range below {x}"] = partial(ff.primes_in_range, lo, hi)
        timed[f"sqrt_small(5) below {x}"] = partial(ff.sqrt_small, 5, odd)
        timed[f"_factor_pairs below {x}"] = partial(ff._factor_pairs, p - 1)
        # both stages of the order test at every prime, as the closed form
        # would run them with no column skipped
        timed[f"_order_tests below {x}"] = lambda a=a, p=p: (ff._half_test(a, p, 1), ff._odd_tests(a, p, 1))
        timed[f"_closed_forms fib below {x}"] = partial(density._closed_forms, odd, density._FIB_COEFFS)
        timed[f"_fast_exists fib below {x}"] = partial(density._fast_exists, odd, density._FIB_COEFFS)
        timed[f"pow_mod_array below {x}"] = partial(ff.pow_mod_array, *batches[x])
    coeffs = density._folded_coeffs(density.ExpExpr(16), density.ExpExpr(1))
    primes = ff.primes_in_range(10**6 + 1 - density._CHUNK, 10**6 + 1)
    timed["_fold_roots_exist d=16 below 1000000"] = partial(
        density._fold_roots_exist, primes[density._root_route(primes, coeffs)], coeffs)
    welch = constructions.welch_w1(4099, ff._least_root(4099, ff.factorize(4098)))
    timed["is_costas w1 n=4098"] = partial(costas.is_costas, welch)
    runs = {name: [] for name in timed}
    for _ in range(calls):
        for name, call in timed.items():
            start = time.perf_counter()
            call()
            runs[name].append(time.perf_counter() - start)
    peaks = {}
    for x, batch in batches.items():
        tracemalloc.start()
        ff.pow_mod_array(*batch)
        peaks[f"pow_mod_array below {x}"] = {"elements": batch[0].size, "peak_bytes": tracemalloc.get_traced_memory()[1]}
        tracemalloc.stop()
    return {"calls": calls, "q1_s": {name: float(np.percentile(t, 25)) for name, t in runs.items()},
            "tracemalloc": peaks}


def bench(path: str, smoke: bool) -> int:
    env = _env(COSTAS_THREADS="1")
    todo = _bench_commands(smoke)
    started = time.perf_counter()
    runs = {name: [] for name, _ in todo}
    # The whole list once per round, in a directory of its own, so a slow
    # spell of the machine spreads over every command instead of landing on one.
    for _ in range(REPEAT):
        with tempfile.TemporaryDirectory() as tmp:
            for name, argv in todo:
                runs[name].append(_run(argv, tmp, env))
    # in a child of its own, which imports numpy and the package, not in this runner
    layers = subprocess.run([sys.executable, __file__, "--layers", *["--smoke"] * smoke],
                            env=env, capture_output=True, text=True, check=True)
    commands = []
    for name, argv in todo:
        outputs, walls, peaks = zip(*runs[name])
        commands.append({
            "name": name,
            "argv": argv[1:],
            **outputs[0],
            "outputs_agree": all(o == outputs[0] for o in outputs),
            "wall_s": list(walls),
            "peak_rss_mib": list(peaks),
            "wall_spread": max(walls) / min(walls) - 1,
        })
    doc = {
        "format": 1,
        "smoke": smoke,
        "repeat": REPEAT,
        "git_commit": _git_commit(_src().parent),
        "source_lines": _source_lines(_src().parent),
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
        },
        # Runs of one commit differ in wall time by about this much: the
        # largest max/min - 1 over the commands.
        "noise_band": max(c["wall_spread"] for c in commands),
        "total_s": time.perf_counter() - started,
        "commands": commands,
        "layers": json.loads(layers.stdout),
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(c["outputs_agree"] for c in commands) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", metavar="OUT.json")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--layers", action="store_true", help="print the layers section of --bench as JSON")
    args = parser.parse_args()
    if args.layers:
        print(json.dumps(_layers(args.smoke)))
        return 0
    if args.bench is None:
        return digests()
    return bench(args.bench, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
