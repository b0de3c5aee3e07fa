"""Workload plans made from a seed, and the checks on their outputs.

A plan is a list of operations for `child.py`: "cli" runs argv through
`costaskit.cli.main`, "lib" calls a public library function, and "swap"
is a harness step that writes a copy of a built document with two
entries exchanged (it is not an operation and is not timed). Each
operation carries a "check" entry that only the parent process reads.

Every census runs with an explicit `--workers 1`: on a 2-CPU shared
machine two worker processes would measure the scheduler, so pool
scaling is left out of the benchmark.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

import oracle

WORKLOADS = ("census", "construct", "scan")

# Input sizes. "full" is what the benchmark measures; "smoke" runs the
# same operations on small inputs for the benchmark's own test.
SIZES = {
    "full": {
        "census_limit": 300_000,
        "sweep_q": 400,
        "prime_window": (30_000, 31_000),
        "g4_window": (11_500, 12_300),
        "ext_fields": ((5, 6), (7, 5), (11, 4)),
        "scan_limit": 20_000,
        "zero_density_limit": 10_000,
    },
    "smoke": {
        "census_limit": 5_000,
        "sweep_q": 40,
        "prime_window": (200, 300),
        "g4_window": (200, 400),
        "ext_fields": ((3, 4), (5, 3), (2, 6)),
        "scan_limit": 1_500,
        "zero_density_limit": 500,
    },
}

# Trinomial families that fold to degree 3, so every prime takes the
# exhaustive power-table scan at about the same cost per prime.
SCAN_FAMILIES = (("3", "1"), ("1,1", "3"), ("3,1", "1"), ("3,1", "1,1"))
FIB_FAMILY = ("2", "1,1")
I_MAX = 5

_SIZE_OFFSET = {"w1": 1, "w2": 2, "l2": 2, "g2": 2, "t4": 4, "g4": 4}

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _expr(text: str) -> tuple[int, int]:
    parts = [int(t) for t in text.split(",")]
    return (parts[0], parts[1] if len(parts) > 1 else 0)


def _checkpoints(rng: random.Random, limit: int, extra: int) -> list[int]:
    # one small checkpoint the oracle can brute-force, plus a few larger ones
    return sorted({rng.randrange(150, 400), *rng.sample(range(1000, limit), extra)})


def _census_op(kind: str, limit: int, cps: list[int], family=None) -> dict:
    argv = ["census", kind, str(limit)]
    if family is not None:
        argv += ["--e1", family[0], "--e2", family[1]]
    argv += ["--workers", "1", "--checkpoints", ",".join(map(str, cps))]
    check = {"type": "census", "kind": kind, "limit": limit, "cps": cps}
    if family is not None:
        check["family"] = [_expr(family[0]), _expr(family[1])]
    return {"kind": "cli", "argv": argv, "check": check}


def _census_plan(rng: random.Random, size: dict) -> list[dict]:
    limit = size["census_limit"]
    cps = _checkpoints(rng, limit, 3)
    return [
        _census_op("t4", limit, cps),
        _census_op("g4", limit, cps),
        _census_op("trinomial", limit, cps, FIB_FAMILY),
    ]


def _window_primes(window: tuple[int, int]) -> list[int]:
    lo, hi = window
    return [p for p in oracle.primes_upto(hi) if p >= lo]


def _has_root(p: int, b: int, c: int, also_one_minus: bool = False) -> bool:
    # a primitive root a of x^2 + b x + c (with 1 - a primitive as well)
    a = np.arange(p, dtype=np.int64)
    for r in a[(a * a + b * a + c) % p == 0]:
        r = int(r)
        if oracle.is_primitive_root(r, p) and (
            not also_one_minus or oracle.is_primitive_root(1 - r, p)
        ):
            return True
    return False


def _construct_plan(rng: random.Random, size: dict) -> list[dict]:
    ops = [{"kind": "cli", "argv": ["sweep", str(size["sweep_q"])],
            "check": {"type": "sweep", "qmax": size["sweep_q"]}}]
    primes = _window_primes(size["prime_window"])
    t4_primes = [p for p in primes if _has_root(p, 1, -1)]
    g4_primes = [p for p in _window_primes(size["g4_window"]) if _has_root(p, -1, -1, True)]
    builds = [(m, rng.choice(primes), 1) for m in ("l2", "g2", "w1", "w2")]
    builds.append(("t4", rng.choice(t4_primes), 1))
    for p, k in rng.sample(list(size["ext_fields"]), 2):
        builds.append((rng.choice(("l2", "g2")), p, k))
    builds.append(("g4", rng.choice(g4_primes), 1))

    docs = []
    for method, p, k in builds:
        q = p**k
        out = f"{method}-{q}.json"
        ops.append({
            "kind": "cli", "argv": ["build", method, str(q), "--out", out],
            "check": {"type": "build", "method": method, "p": p, "k": k, "out": out,
                      "n": q - _SIZE_OFFSET[method]},
        })
        docs.append((out, q - _SIZE_OFFSET[method]))

    # verify inputs stay small, since the check is quadratic in n
    small = docs[-3:]
    for out, _ in small:
        ops.append({"kind": "cli", "argv": ["verify", out], "check": {"type": "verify"}})
    for out, n in small:
        i, j = sorted(rng.sample(range(n), 2))
        dst = "swapped-" + out
        ops.append({"kind": "swap", "src": out, "dst": dst, "i": i, "j": j})
        ops.append({"kind": "cli", "argv": ["verify", dst],
                    "check": {"type": "verify_swapped", "doc": dst}})
    return ops


def _scan_plan(rng: random.Random, size: dict) -> list[dict]:
    limit = size["scan_limit"]
    family = rng.choice(SCAN_FAMILIES)
    cps = _checkpoints(rng, limit, 2)
    return [
        _census_op("trinomial", limit, cps, family),
        {"kind": "lib", "fn": "density.verify_zero_density_claims",
         "args": [size["zero_density_limit"], I_MAX],
         "check": {"type": "zero_density", "limit": size["zero_density_limit"]}},
    ]


def make_plan(workload: str, seed: int, scale: str = "full") -> list[dict]:
    """The operations of one workload; the same seed gives the same plan."""
    rng = random.Random(f"{workload}:{seed}")
    size = SIZES[scale]
    return {"census": _census_plan, "construct": _construct_plan, "scan": _scan_plan}[workload](rng, size)


# ---------------------------------------------------------------- checks


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _artin() -> float:
    return oracle.artin_partial(10**6)


def _predicted(check: dict) -> float:
    a = _artin()
    if check["kind"] == "t4":
        return 27 * a / 38
    if check["kind"] == "g4":
        return 9 * a / 38
    e1, e2 = (tuple(e) for e in check["family"])
    if e1 == e2:
        return a
    return 27 * a / 38 if (e1, e2) == tuple(_expr(f) for f in FIB_FAMILY) else 0.0


def _census_hit(check: dict, p: int):
    if check["kind"] == "t4":
        return oracle.t4_census_hit(p)
    if check["kind"] == "g4":
        return oracle.g4_census_hit(p)
    return oracle.trinomial_hit(p, *check["family"])


def parse_census(stdout: str) -> list[tuple[int, int, int, str, str]]:
    lines = stdout.splitlines()
    _require(lines[:2] == ["# format=1", "x,count,pi_x,ratio,predicted"], "census header")
    rows = []
    for line in lines[2:]:
        x, count, pi_x, ratio, pred = line.split(",")
        rows.append((int(x), int(count), int(pi_x), ratio, pred))
    return rows


def _check_census(op: dict, rec: dict) -> None:
    check = op["check"]
    limit = check["limit"]
    _require(rec["rc"] == 0, f"exit code {rec['rc']}")
    rows = parse_census(rec["stdout"])
    xs = sorted(set(check["cps"]) | {limit})
    _require([r[0] for r in rows] == xs, "checkpoint rows")
    _require([r[2] for r in rows] == oracle.prime_count(limit, xs), "pi_x against sieve")
    counts = [r[1] for r in rows]
    _require(all(0 <= c <= r[2] for c, r in zip(counts, rows)), "count within pi_x")
    _require(counts == sorted(counts), "counts nondecreasing")
    _require(all(r[3] == f"{r[1] / r[2]:.6f}" for r in rows), "ratio column")
    pred = _predicted(check)
    _require(all(abs(float(r[4]) - pred) <= 1.5e-6 for r in rows), "predicted density")

    small = xs[0]
    hits = [_census_hit(check, p) for p in oracle.primes_upto(small)]
    _require(counts[0] == sum(1 for h in hits if h), f"count at {small} by brute force")

    expected_err = ""
    if check["kind"] == "trinomial":
        skipped = 0
        for p in oracle.primes_upto(limit):
            a1, a2 = (oracle.exponent(*e, p) for e in check["family"])
            skipped += not (1 <= a1 <= p - 2 and 1 <= a2 <= p - 2)
        if skipped:
            expected_err = f"census: skipped {skipped} primes with out-of-range exponents\n"
    _require(rec["stderr"] == expected_err, "census stderr")


def _cross_check_censuses(ops: list[dict], recs: list[dict], ok: list[bool]) -> None:
    """Cross-checks between the three censuses of one plan."""
    rows = {}
    for i, op in enumerate(ops):
        check = op.get("check", {})
        if check.get("type") == "census" and ok[i]:
            rows[check["kind"]] = (i, parse_census(recs[i]["stdout"]))
    if "t4" in rows and "g4" in rows:
        i, g4 = rows["g4"]
        if any(g[1] > t[1] for g, t in zip(g4, rows["t4"][1])):
            ok[i] = False
    if "t4" in rows and "trinomial" in rows:
        i, tri = rows["trinomial"]
        if any(r[1] != t[1] + 1 for r, t in zip(tri, rows["t4"][1])):
            ok[i] = False


def _check_sweep(op: dict, rec: dict) -> None:
    _require(rec["rc"] == 0, f"exit code {rec['rc']}")
    expect = oracle.sweep_sizes(op["check"]["qmax"])
    lines = rec["stdout"].splitlines()
    _require(lines[-1] == "PASS", "sweep verdict")
    got = {}
    for line in lines[:-1]:
        method, _, sizes = line.partition(": ")
        got[method] = [int(s) for s in sizes.split(", ")] if sizes else []
    _require(list(got) == ["w1", "w2", "l2", "g2", "g3", "g4c2", "t4", "g4"], "sweep methods")
    for m in ("w1", "w2", "l2", "g2"):
        _require(got[m] == expect[m], f"sweep {m} sizes")
    prime_powers = set(expect["prime_powers"])
    primes = set(expect["w1"])
    for m in ("g3", "t4", "g4"):
        _require(set(got[m]) <= prime_powers, f"sweep {m} prime powers")
        _require(sorted(primes & set(got[m])) == expect[f"{m}_primes"], f"sweep {m} primes")
    _require(set(got["g4c2"]) <= {8, 16, 32, 64}, "sweep g4c2 sizes")
    skipped = expect["skipped"]
    want = ("sweep: skipped q over the degree cap: " + ", ".join(map(str, skipped)) + "\n") if skipped else ""
    _require(rec["stderr"] == want, "sweep stderr")


def _check_build(op: dict, rec: dict, doc: dict | None) -> None:
    check = op["check"]
    _require(rec["rc"] == 0 and rec["stdout"] == "" and rec["stderr"] == "", "build exit and output")
    _require(doc is not None, "document written")
    p, k = check["p"], check["k"]
    perm = doc["perm"]
    _require(doc["format"] == 1 and doc["method"] == check["method"] and doc["q"] == p**k, "document header")
    _require(doc["n"] == len(perm) == check["n"], "document size")
    _require(oracle.is_costas(perm), "difference check")
    if k == 1:
        alpha = doc["params"]["alpha"]
        _require(oracle.is_primitive_root(alpha, p), "alpha primitive")
        if check["method"] == "t4":
            _require((alpha * alpha + alpha) % p == 1, "t4 alpha^2 + alpha = 1")
        if check["method"] == "g4":
            beta = doc["params"]["beta"]
            _require(oracle.is_primitive_root(beta, p), "beta primitive")
            _require((alpha + beta) % p == 1, "g4 alpha + beta = 1")
            _require((alpha * alpha + pow(beta, p - 2, p)) % p == 1, "g4 alpha^2 + 1/beta = 1")


def _check_verify(rec: dict) -> None:
    _require(rec["rc"] == 0 and rec["stdout"] == "costas\n" and rec["stderr"] == "", "verify costas")


def _check_verify_swapped(rec: dict, doc: dict | None) -> None:
    _require(doc is not None, "swapped document")
    k, x, y = oracle.first_collision(doc["perm"])
    _require(rec["rc"] == 3 and rec["stdout"] == f"not-costas k={k} x={x} y={y}\n", "verify swapped copy")


def zero_density_skips(limit: int) -> dict:
    skipped = {"a": 0, "b": 0, "c": 0}
    for p in oracle.primes_upto(limit):
        for i in range(1, I_MAX + 1):
            for name, e1, e2 in (("a", (i, 1), (2 * i, 1)), ("b", (i, 0), (2 * i, 1)), ("c", (i, 0), (-i, 2))):
                a1, a2 = oracle.exponent(*e1, p), oracle.exponent(*e2, p)
                skipped[name] += not (1 <= a1 <= p - 2 and 1 <= a2 <= p - 2)
    return skipped


def _check_zero_density(op: dict, rec: dict, reference: dict) -> None:
    _require(rec["rc"] == 0 and rec["stderr"] == "", "zero-density call")
    got = json.loads(rec["stdout"])
    _require(got["violations"] == [], "zero violations")
    _require(got["exceptions"] == reference["zero_density_exceptions"], "frozen exception list")
    _require(got["skipped"] == zero_density_skips(op["check"]["limit"]), "skipped counts")
    want = {"a": [3 * i for i in range(1, I_MAX + 1)],
            "b": [6 * i + 1 for i in range(1, I_MAX + 1)],
            "c": [6 * i + 1 for i in range(1, I_MAX + 1)]}
    _require(got["thresholds"] == want, "thresholds")


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(ops: list[dict], recs: list[dict], docs: dict, reference: dict) -> list[str | None]:
    """Check one repetition's captured outputs; None marks a passing operation.

    `ops` are the plan's operations without the swap steps, `recs` the
    child's records for them, and `docs` the parsed JSON files the
    repetition left in its work directory, by file name.
    """
    errors: list[str | None] = []
    for op, rec in zip(ops, recs):
        check = op["check"]
        try:
            kind = check["type"]
            if kind == "census":
                _check_census(op, rec)
            elif kind == "sweep":
                _check_sweep(op, rec)
            elif kind == "build":
                _check_build(op, rec, docs.get(check["out"]))
            elif kind == "verify":
                _check_verify(rec)
            elif kind == "verify_swapped":
                _check_verify_swapped(rec, docs.get(check["doc"]))
            else:
                _check_zero_density(op, rec, reference)
            errors.append(None)
        except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as e:
            errors.append(f"{' '.join(op.get('argv', [op.get('fn', '?')]))}: {e}")
    ok = [e is None for e in errors]
    _cross_check_censuses(ops, recs, ok)
    for i, good in enumerate(ok):
        if not good and errors[i] is None:
            errors[i] = f"{' '.join(ops[i]['argv'])}: census cross-check"
    return errors
