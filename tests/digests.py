"""sha256 digests of the outputs a refactor of the number theory must keep.

Runs each item below in a fresh interpreter under the caller's PYTHONPATH
and prints one `sha256  name` line per output: the stdout, stderr and exit
code of every command, and each CSV a script writes. The scripts run from
the `scripts` directory beside the `src` that holds the imported package,
into a temporary directory. Two trees compare with one diff:

    PYTHONPATH=old/src python3 tests/digests.py > old.txt
    PYTHONPATH=new/src python3 tests/digests.py > new.txt
    diff old.txt new.txt

It takes about 15 s on two CPUs. pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import subprocess
import sys
import tempfile
from pathlib import Path

CENSUS_PAIRS = (
    ("2", "1,1"), ("1", "1"), ("2", "2"), ("4,1", "2"), ("4", "2,1"), ("3", "1"), ("5", "1"), ("16", "1"),
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
        ("fpr 4179340454199820289", [*cli, "fpr", "4179340454199820289"]),
        ("sweep 1024", [*cli, "sweep", "1024"]),
        ("repr(verify_zero_density_claims(10**5, 10))", [sys.executable, "-c", VERIFIER]),
        ("repr(verify_zero_density_claims(10**4, 5))", [sys.executable, "-c", VERIFIER_SCAN]),
        ("make_field(p, k).modulus for p^k < 2^16", [sys.executable, "-c", MODULI]),
    ]
    return out


def _scripts() -> list[tuple[str, list[str]]]:
    spec = importlib.util.find_spec("costaskit")
    if spec is None or spec.origin is None:
        raise SystemExit("costaskit is not importable: set PYTHONPATH to a src directory")
    scripts = Path(spec.origin).resolve().parents[2] / "scripts"
    return [
        ("trinomial_exploration.py", [str(scripts / "trinomial_exploration.py"), "--workers", "1"]),
        ("reproduce_theorem_densities.py --limit 1000000",
         [str(scripts / "reproduce_theorem_densities.py"), "--limit", "1000000", "--workers", "1"]),
    ]


def _line(data: bytes, name: str) -> str:
    return f"{hashlib.sha256(data).hexdigest()}  {name}"


def _run(name: str, argv: list[str], cwd=None) -> list[str]:
    r = subprocess.run(argv, capture_output=True, cwd=cwd)
    return [
        _line(r.stdout, f"{name} [stdout]"),
        _line(r.stderr, f"{name} [stderr]"),
        _line(str(r.returncode).encode(), f"{name} [exit]"),
    ]


def main() -> int:
    for name, argv in _commands():
        print(*_run(name, argv), sep="\n", flush=True)
    for name, argv in _scripts():
        with tempfile.TemporaryDirectory() as tmp:
            # a relative directory, so the paths the scripts print are the same every run
            print(*_run(name, [sys.executable, *argv, "--out-dir", "out"], cwd=tmp), sep="\n")
            for csv in sorted(Path(tmp, "out").glob("*.csv")):
                print(_line(csv.read_bytes(), f"{name} {csv.name}"), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
