"""Exit codes and output formats of the command line interface."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from costaskit import density, ff
from costaskit.cli import main, run_sweep, worker_count
from costaskit.costas import COSTAS_CAP
from costaskit.fpr import fpr_report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_welch_pinned(capsys):
    code, out, _ = run(capsys, "build", "w1", "5", "--alpha", "2")
    assert code == 0
    assert out.strip() == (
        '{"format":1,"n":4,"perm":[2,4,3,1],"method":"w1","q":5,'
        '"params":{"alpha":2}}'
    )


def test_build_t4_pinned(capsys):
    code, out, _ = run(capsys, "build", "t4", "11")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "format": 1,
        "n": 7,
        "perm": [3, 6, 1, 7, 5, 2, 4],
        "method": "t4",
        "q": 11,
        "params": {"alpha": 7},
    }
    assert out.startswith('{"format":1,"n":7,"perm":')


def test_build_inapplicable_reason(capsys):
    code, out, err = run(capsys, "build", "t4", "29")
    assert code == 2
    assert out == ""
    assert err.strip() == "t4: no primitive root with a^2+a=1"


def test_build_inapplicable_welch_extension(capsys):
    code, _, err = run(capsys, "build", "w1", "4")
    assert code == 2
    assert err.startswith("w1:")


def test_build_usage_errors(capsys):
    code, _, err = run(capsys, "build", "l2", "6")
    assert code == 1 and "prime power" in err
    code, _, err = run(capsys, "build", "g2", "11", "--alpha", "2")
    assert code == 1 and "--beta" in err
    code, _, err = run(capsys, "build", "w1", "5", "--beta", "2")
    assert code == 1
    code, _, _ = run(capsys, "build", "nope", "5")
    assert code == 1


def test_build_condition_failure(capsys):
    code, _, err = run(capsys, "build", "w1", "5", "--alpha", "4")
    assert code == 2
    assert err.startswith("w1:")

    code, _, err = run(capsys, "build", "g4", "41", "--alpha", "6", "--beta", "36")
    assert code == 2
    assert "alpha^2" in err


def test_build_log_cap_before_parameters(capsys):
    # Above the log-table cap a bad parameter reads like no parameter at all.
    for argv in (
        ["l2", "1000003"], ["l2", "1000003", "--alpha", "4"], ["t4", "1000003", "--alpha", "4"],
        ["w1", "1000003"], ["w1", "1000003", "--alpha", "4"], ["w2", "10000019"],
    ):
        code, out, err = run(capsys, "build", *argv)
        assert (code, out, err) == (1, "", "build: log table capped at order 1000000\n"), argv


@pytest.mark.parametrize("method, q", [
    ("g2", 211**4), ("l2", 46337**2), ("g3", 46337**2), ("t4", 46337**2),
])
def test_build_refuses_large_extension_field_fast(capsys, method, q):
    # Building the field, and for l2 and g2 finding its least primitive
    # element, come before the cap, so both must be quick near order 2^31.
    # t4 needs no table there: no extension field above GF(9) has a witness.
    start = time.perf_counter()
    code, out, err = run(capsys, "build", method, str(q))
    assert time.perf_counter() - start < 1
    if method == "t4":
        assert (code, out, err) == (2, "", "t4: no primitive root with a^2+a=1\n")
    else:
        assert (code, out, err) == (1, "", "build: log table capped at order 1000000\n")


@pytest.mark.parametrize("method, reason", [
    ("t4", "no primitive root with a^2+a=1"),
    ("g4", "no primitive pair with a+b=1 and a^2+1/b=1"),
])
def test_build_no_witness_over_extension_field(capsys, method, reason):
    # GF(1009^2) is above the log-table cap, but the answer needs no table.
    start = time.perf_counter()
    code, out, err = run(capsys, "build", method, "1018081")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"{method}: {reason}\n")


def test_build_explicit_pair(capsys):
    code, out, _ = run(capsys, "build", "g4", "41", "--alpha", "7", "--beta", "35")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 37
    assert doc["params"] == {"alpha": 7, "beta": 35}


def test_verify_perm(capsys):
    code, out, _ = run(capsys, "verify", "--perm", "3,6,1,7,5,2,4")
    assert code == 0 and out.strip() == "costas"

    code, out, _ = run(capsys, "verify", "--perm", "1,2,3")
    assert code == 3 and out.strip() == "not-costas k=1 x=1 y=2"


def test_verify_empty_json_array(capsys, tmp_path):
    # the empty permutation is Costas; `--perm ""` is an empty token, refused in ONE_LINE_ERRORS
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert run(capsys, "verify", str(empty))[:2] == (0, "costas\n")


def test_verify_file_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "build", "t4", "11")
    assert code == 0
    path = tmp_path / "arr.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and out.strip() == "costas"


def test_build_out_flag(capsys, tmp_path):
    path = tmp_path / "w1.json"
    code, out, _ = run(capsys, "build", "w1", "5", "--out", str(path))
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["perm"] == [2, 4, 3, 1] and doc["method"] == "w1"
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and out.strip() == "costas"


def test_verify_errors(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--perm", "1,2,2")
    assert code == 1 and "verify:" in err

    code, _, _ = run(capsys, "verify")
    assert code == 1

    code, _, _ = run(capsys, "verify", "nosuchfile.json", "--perm", "1,2")
    assert code == 1

    bad = tmp_path / "bad.json"
    bad.write_text('{"perm": "nope"}')
    code, _, _ = run(capsys, "verify", str(bad))
    assert code == 1

    code, _, _ = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 1

    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    code, _, err = run(capsys, "verify", str(deep))
    assert code == 1 and err.startswith("verify:") and len(err.splitlines()) == 1


def test_verify_over_cap(capsys):
    # The size cap is checked before the permutation check.
    code, out, err = run(capsys, "verify", "--perm", ",".join(["1"] * (COSTAS_CAP + 1)))
    assert code == 1 and out == ""
    assert err == f"verify: Costas check capped at n = {COSTAS_CAP}, got n = {COSTAS_CAP + 1}\n"


def test_fpr_csv_pinned(capsys):
    code, out, _ = run(capsys, "fpr", "11")
    assert code == 0
    assert out.splitlines() == [
        "# format=1",
        "p,candidates,fprs,t4_root,t4_applicable,g4_applicable",
        "11,4;8,8,7,true,false",
    ]

    code, out, _ = run(capsys, "fpr", "29")
    assert out.splitlines()[-1] == "29,6;24,,,false,false"

    code, out, _ = run(capsys, "fpr", "41")
    assert out.splitlines()[-1] == "41,7;35,7;35,6,true,true"

    # Above 2^31 the batched kernels raise, so one prime takes the scalar
    # report: both roots of x^2 - x - 1, and p - 1 = 2 * 3 * 149 * 2402107
    # leaves neither primitive.
    code, out, _ = run(capsys, "fpr", "2147483659")
    assert code == 0
    assert out.splitlines()[-1] == "2147483659,647544499;1499939161,,,false,false"


def test_fpr_range(capsys):
    code, out, _ = run(capsys, "fpr", "--range", "3", "31")
    assert code == 0
    rows = out.splitlines()[2:]
    assert [r.split(",")[0] for r in rows] == [
        "3", "5", "7", "11", "13", "17", "19", "23", "29", "31",
    ]
    assert rows[1] == "5,3,3,2,true,true"


def test_fpr_json(capsys):
    code, out, _ = run(capsys, "fpr", "11", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "p": 11,
        "candidates": [4, 8],
        "fprs": [8],
        "t4_root": 7,
        "t4_applicable": True,
        "g4_applicable": False,
    }


def test_fpr_usage(capsys):
    assert run(capsys, "fpr")[0] == 1
    assert run(capsys, "fpr", "11", "--range", "3", "31")[0] == 1
    assert run(capsys, "fpr", "2")[0] == 1
    assert run(capsys, "fpr", "15")[0] == 1


def test_fpr_range_sieve_cap(capsys):
    # the range holds 100160063 = 10007 * 10009, beyond the sieve cap
    code, out, err = run(capsys, "fpr", "--range", "100160000", "100160100")
    assert code == 1 and out == ""
    assert err.startswith("fpr:") and err.count("\n") == 1


def test_fpr_range_streams_across_segments(capsys, monkeypatch):
    # With 7-wide sieve segments the range spans dozens of them.
    primes = oracles.simple_sieve(400)[1:]
    rows = [run(capsys, "fpr", str(p))[1].splitlines()[-1] for p in primes]
    monkeypatch.setattr(density, "_CHUNK", 7)
    for lo in (-5, 100):
        code, out, err = run(capsys, "fpr", "--range", str(lo), "399")
        assert (code, err) == (0, "")
        assert out.splitlines()[2:] == [r for p, r in zip(primes, rows) if p >= lo]


def test_fpr_range_matches_fpr_report(capsys, monkeypatch):
    # Every odd prime to 2e4, in 1000-wide segments, against the scalar report.
    monkeypatch.setattr(density, "_CHUNK", 1000)
    reports = [fpr_report(p) for p in oracles.simple_sieve(2 * 10**4)[1:]]
    code, out, err = run(capsys, "fpr", "--range", "1", str(2 * 10**4))
    assert (code, err) == (0, "")
    text = lambda v: "" if v is None else str(v).lower()
    assert out.splitlines()[2:] == [
        ",".join([str(r.p), ";".join(map(str, r.candidates)), ";".join(map(str, r.fprs)),
                  text(r.t4_root), text(bool(r.fprs)), text(r.g4_applicable)])
        for r in reports
    ]
    code, out, err = run(capsys, "fpr", "--range", "1", str(2 * 10**4), "--format", "json")
    assert (code, err) == (0, "")
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [
        {"p": r.p, "candidates": list(r.candidates), "fprs": list(r.fprs), "t4_root": r.t4_root,
         "t4_applicable": bool(r.fprs), "g4_applicable": r.g4_applicable}
        for r in reports
    ]
    # no root mod 3; mod 5 the discriminant vanishes and 3 is a double root
    assert rows[0] == {"p": 3, "candidates": [], "fprs": [], "t4_root": None,
                       "t4_applicable": False, "g4_applicable": False}
    assert rows[1] == {"p": 5, "candidates": [3], "fprs": [3], "t4_root": 2,
                       "t4_applicable": True, "g4_applicable": True}


def test_census_t4_csv(capsys):
    code, out, err = run(capsys, "census", "t4", "100", "--workers", "1")
    assert code == 0
    assert out.splitlines() == [
        "# format=1",
        "x,count,pi_x,ratio,predicted",
        "10,0,4,0.000000,0.265705",
        "100,8,25,0.320000,0.265705",
    ]
    assert err == ""


def test_census_trinomial_skip_note(capsys):
    code, out, err = run(
        capsys, "census", "trinomial", "100",
        "--e1", "2,0", "--e2", "1,1", "--workers", "1",
    )
    assert code == 0
    assert "skipped 2" in err
    rows = out.splitlines()
    assert rows[0] == "# format=1"
    # p = 5 joins the count here even though the t4 census gates it out
    assert rows[2].startswith("10,1,")


def test_census_negative_exponent_flag(capsys):
    code, out, _ = run(
        capsys, "census", "trinomial", "100",
        "--e1", "1,0", "--e2", "-1,2", "--workers", "1",
    )
    assert code == 0
    assert out.splitlines()[-1].startswith("100,2,")


def test_census_negated_fibonacci_fold(capsys):
    # a^-2 + a^-1 = 1 is a^2 - a - 1 = 0: the same counts and the same t4 heading
    fib = run(capsys, "census", "trinomial", "100000", "--e1", "2", "--e2", "1,1", "--workers", "1")
    negated = run(capsys, "census", "trinomial", "100000", "--e1=-2,2", "--e2=-1,2", "--workers", "1")
    assert negated == fib
    assert fib[1].splitlines()[-1].endswith(",0.265705")


def test_census_usage(capsys):
    assert run(capsys, "census", "t4", "1")[0] == 1
    assert run(capsys, "census", "trinomial", "100")[0] == 1
    assert run(capsys, "census", "t4", str(10**8 + 1))[0] == 1
    assert run(capsys, "census", "t4", "100", "--checkpoints", "300")[0] == 1
    assert run(capsys, "census", "g4", "100", "--e1", "5") == (1, "", "census: g4 takes no --e1 or --e2\n")
    assert run(capsys, "census", "t4", "100", "--e2", "1,1")[0] == 1


def _one_line(err: str) -> bool:
    return err.endswith("\n") and len(err.splitlines()) == 1


def _check_exit(argv):
    """main(argv) returns 0..4, and an error leaves stdout empty and one stderr line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(5), argv
    if code in (1, 2):
        assert out.getvalue() == "" and _one_line(err.getvalue()), (argv, err.getvalue())


# Each argv exits 1 with empty stdout and one stderr line starting with the
# text given. Argparse errors come first, then each cap at its least rejected
# input, then two inputs that once ended in a traceback and a negative --perm,
# then malformed integer lists, which name their flag and bad token.
ONE_LINE_ERRORS = [
    ([], "costaskit: error: the following arguments are required: command"),
    (["build", "w1"], "costaskit build: error: the following arguments are required: q"),
    (["build", "zz", "5"], "costaskit build: error: argument method: invalid choice: 'zz'"),
    (["build", "w1", "5", "--alpha"], "costaskit build: error: argument --alpha: expected one argument"),
    (["verify", "--perm"], "costaskit verify: error: argument --perm: expected one argument"),
    (["verify", "a", "b"], "costaskit: error: unrecognized arguments: b"),
    (["fpr", "x"], "costaskit fpr: error: argument p: invalid int value: 'x'"),
    (["fpr", "--range", "3"], "costaskit fpr: error: argument --range: expected 2 arguments"),
    (["fpr", "--format", "xml"], "costaskit fpr: error: argument --format: invalid choice: 'xml'"),
    (["fpr", "-x\ny"], "costaskit: error: unrecognized arguments: -x y"),
    (["census", "t4"], "costaskit census: error: the following arguments are required: limit"),
    (["census", "t5", "100"], "costaskit census: error: argument kind: invalid choice: 't5'"),
    (["census", "t4", "100", "--workers", "1.5"], "costaskit census: error: argument --workers: invalid int value: '1.5'"),
    (["census", "t4", "100", "--e", "1"], "costaskit census: error: ambiguous option: --e could match --e1, --e2"),
    (["sweep"], "costaskit sweep: error: the following arguments are required: qmax"),
    (["sweep", "1e3"], "costaskit sweep: error: argument qmax: invalid int value: '1e3'"),
    (["build", "l2", "1000003"], "build: log table capped at order 1000000"),
    (["build", "t4", "1018081", "--alpha", "4"], "build: log table capped at order 1000000"),
    (["build", "w1", "128"], "build: degree 7 outside 1..6"),
    (["build", "w1", "2147483659"], "build: field order 2147483659 exceeds 2147483648"),
    (["build", "w1", str(65537**2)], "build: cofactor 4295098369 has no prime factor below 2^16"),
    (["verify", "--perm", ",".join(["1"] * (COSTAS_CAP + 1))], f"verify: Costas check capped at n = {COSTAS_CAP},"),
    (["fpr", "--range", "3", str(10**8 + 1)], "fpr: sieve limit 100000001 above cap 100000000"),
    (["census", "t4", str(10**8 + 1)], "census: census limit 100000001 above cap 100000000"),
    (["census", "g4", str(10**8 + 1)], "census: census limit 100000001 above cap 100000000"),
    (["census", "trinomial", str(10**6 + 1), "--e1", "3", "--e2", "1"], "census: census limit 1000001 above cap 1000000"),
    (["sweep", "4097"], "sweep: qmax must be in 2..4096"),
    (["build", "w1", "2147483647"], "build: log table capped at order 1000000"),
    (["build", "w1", "7", "--out", "{tmp}/missing/x.json"], "build: [Errno 2] No such file or directory: '{tmp}/missing/x.json'"),
    (["verify", "--perm", "-1,2"], "verify: expected a permutation of 1..2"),
    (["build", "w1", "7", "--alpha", "10"], "build: element code 10 outside [0, 7)"),
    (["build", "w2", "7", "--alpha=-4"], "build: element code -4 outside [0, 7)"),
    (["build", "t4", "11", "--alpha", "7", "--beta", "99"], "build: method t4 takes no --beta"),
    (["build", "w1", "5", "--alpha", "2", "--beta", "3"], "build: method w1 takes no --beta"),
    (["census", "t4", "1000", "--checkpoints", "1e5"], "census: --checkpoints expects comma-separated integers, got '1e5'"),
    (["census", "g4", "1000", "--checkpoints", "10,,20"], "census: --checkpoints expects comma-separated integers, got ''"),
    (["verify", "--perm", "1,x,3"], "verify: --perm expects comma-separated integers, got 'x'"),
    (["census", "trinomial", "1000", "--e1", "a", "--e2", "1"], "census: --e1 expects comma-separated integers, got 'a'"),
    (["census", "trinomial", "1000", "--e1", "1", "--e2", "1,0x2"], "census: --e2 expects comma-separated integers, got '0x2'"),
    (["census", "trinomial", "1000", "--e1", "1,2,3", "--e2", "1"], "census: --e1 expects C or C,H, got '1,2,3'"),
    (["fpr", str(ff._PRIME_CAP)], f"fpr: {ff._PRIME_CAP} not below the primality cap {ff._PRIME_CAP}"),
    (["build", "t4", str(ff._PRIME_CAP)], f"build: {ff._PRIME_CAP} not below the primality cap {ff._PRIME_CAP}"),
    (["verify", "--perm", "1,,2"], "verify: --perm expects comma-separated integers, got ''"),
    (["verify", "--perm", ""], "verify: --perm expects comma-separated integers, got ''"),
]


@pytest.mark.parametrize("argv, first", ONE_LINE_ERRORS)
def test_errors_are_one_line(capsys, tmp_path, argv, first):
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, ""), argv
    assert _one_line(err) and err.startswith(first.format(tmp=tmp_path)), (argv, err)


_EXPR_TEXT = st.one_of(
    st.integers(-4, 6).map(str),
    st.builds("{},{}".format, st.integers(-4, 6), st.integers(-3, 3)),
    st.builds("{},{}".format, st.integers(-(2**80), 2**80), st.integers(-(2**80), 2**80)),
    st.sampled_from(["", ",", "1,", "1,2,3", "a", "-", " 2 ", "\u0663", "9" * 30]),
    st.text(max_size=6),
)


@settings(max_examples=150)
@given(
    kind=st.sampled_from(["t4", "g4", "trinomial", "t5"]),
    limit=st.integers(-3, 10**4),
    e1=st.none() | _EXPR_TEXT,
    e2=st.none() | _EXPR_TEXT,
    checkpoints=st.none() | st.lists(st.integers(-2, 2 * 10**4), max_size=4).map(
        lambda cs: ",".join(map(str, cs))) | st.text(max_size=6),
    workers=st.none() | st.integers(-2, 10**6),
)
@example("trinomial", 100, "-1" + "0" * 25 + ",1", "1", None, 1)
@example("trinomial", 100, str(3 - 5 * 2**62) + "," + str(2**62), "1", None, 1)
def test_census_argv_never_raises(kind, limit, e1, e2, checkpoints, workers):
    # Limits up to 1e4 fit one census segment, so nothing forks.
    argv = ["census", kind, str(limit)]
    for flag, value in (("--e1", e1), ("--e2", e2), ("--checkpoints", checkpoints), ("--workers", workers)):
        if value is not None:
            argv += [flag, str(value)]
    _check_exit(argv)


_INT_TEXT = st.one_of(
    st.integers(-3, 2000).map(str),
    st.sampled_from(["", "0", "-0", "1e3", "0x10", "\u0663", "9" * 30, "-" + "9" * 30, "nan"]),
    st.text(max_size=4),
)
_PERM_TOKEN = st.one_of(
    st.integers(-2, 12).map(str),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["", " ", "a", "1.5", "0x3", "9" * 5000]),
)


@settings(max_examples=150)
@given(st.lists(_PERM_TOKEN, max_size=12).map(",".join) | st.text(max_size=12))
@example("1,2,2")
@example("0,1")
@example("")
@example(",".join(["1"] * (COSTAS_CAP + 1)))
def test_verify_argv_never_raises(perm):
    _check_exit(["verify", "--perm", perm])


@settings(max_examples=120)
@given(
    method=st.sampled_from(["w1", "w2", "l2", "g2", "g3", "g4c2", "t4", "g4", "g5"]),
    q=_INT_TEXT,
    alpha=st.none() | _INT_TEXT,
    beta=st.none() | _INT_TEXT,
)
@example("w1", str(4295229443), None, None)
@example("l2", str(2**61 - 1), None, None)
@example("g4", "9" * 30, "1", "1")
@example("t4", "1030301", None, None)
def test_build_argv_never_raises(method, q, alpha, beta):
    argv = ["build", method, q]
    for flag, value in (("--alpha", alpha), ("--beta", beta)):
        if value is not None:
            argv += [flag, value]
    _check_exit(argv)


@settings(max_examples=120)
@given(
    p=st.none() | _INT_TEXT,
    lo_hi=st.none() | st.tuples(_INT_TEXT, _INT_TEXT),
    fmt=st.none() | st.sampled_from(["csv", "json", "xml"]),
)
@example("9" * 30, None, None)
@example(None, ("100160000", "100160100"), None)
@example(None, (str(10**12), str(10**12 + 10)), "json")
def test_fpr_argv_never_raises(p, lo_hi, fmt):
    argv = ["fpr"]
    if p is not None:
        argv.append(p)
    if lo_hi is not None:
        argv += ["--range", *lo_hi]
    if fmt is not None:
        argv += ["--format", fmt]
    _check_exit(argv)


@settings(max_examples=60)
@given(st.integers(-3, 64).map(str) | st.text(max_size=4))
@example("9" * 30)
@example("4097")
def test_sweep_argv_never_raises(qmax):
    _check_exit(["sweep", qmax])


def test_sweep_small(capsys):
    code, out, _ = run(capsys, "sweep", "16")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "PASS"
    by_method = dict(line.split(": ", 1) for line in lines[:-1])
    assert by_method["t4"] == "4, 5, 9, 11"
    assert by_method["g4"] == "4, 5, 9"
    assert by_method["g4c2"] == "8, 16"


def test_sweep_pinned_prefix(capsys):
    code, out, _ = run(capsys, "sweep", "64")
    assert code == 0
    t4_line = next(l for l in out.splitlines() if l.startswith("t4:"))
    assert t4_line.startswith("t4: 4, 5, 9, 11, 19, 31, 41, 59")
    assert t4_line.split(", ")[8] == "61"


def test_sweep_usage(capsys):
    assert run(capsys, "sweep", "1")[0] == 1
    assert run(capsys, "sweep", "5000")[0] == 1


def test_build_q_beyond_trial_division(capsys):
    # 65537 * 65539 has no prime factor below 2^16, so it cannot be factored
    code, out, err = run(capsys, "build", "w1", "4295229443")
    assert code == 1 and out == ""
    assert err.startswith("build:") and err.count("\n") == 1


def test_run_sweep_structure():
    per_method, failures, skipped = run_sweep(32)
    assert failures == []
    assert skipped == []
    assert per_method["w1"] == [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert per_method["g4c2"] == [8, 16, 32]


def test_worker_default(monkeypatch, capsys):
    monkeypatch.setenv("COSTAS_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("COSTAS_THREADS", "abc")
    with pytest.raises(ValueError):
        worker_count()
    code, out, err = run(capsys, "census", "t4", "100")
    assert code == 1 and out == ""
    assert err.startswith("census:") and err.count("\n") == 1
    # negative is refused as --workers -3 is; 0 still means one worker
    monkeypatch.setenv("COSTAS_THREADS", "-3")
    code, out, err = run(capsys, "census", "t4", "100")
    assert (code, out) == (1, "")
    assert err == "census: COSTAS_THREADS must not be negative, got -3\n"
    monkeypatch.setenv("COSTAS_THREADS", "0")
    assert worker_count() == 1
    monkeypatch.delenv("COSTAS_THREADS")
    assert worker_count() == (os.cpu_count() or 1)


def test_census_negative_workers(capsys):
    code, out, err = run(capsys, "census", "t4", "100", "--workers", "-3")
    assert (code, out) == (1, "")
    assert err == "census: --workers must not be negative, got -3\n"
    # 0, like an absent flag, means the default
    code, out, err = run(capsys, "census", "t4", "100", "--workers", "0")
    assert code == 0 and out.endswith("100,8,25,0.320000,0.265705\n") and err == ""
    assert worker_count(None) == worker_count(0) == worker_count()
    assert worker_count(2) == 2


def test_verify_negative_workers_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("COSTAS_THREADS", "-1")
    assert run(capsys, "verify", "--perm", "1,2") == (
        1, "", "verify: COSTAS_THREADS must not be negative, got -1\n")


def test_verify_same_answer_for_any_worker_count(capsys, tmp_path, monkeypatch):
    # n = 2052 is above the block switch, so with 2 CPUs or more the clean
    # array forks; the swapped copy collides in row 2, checked by the parent.
    path = tmp_path / "w1.json"
    assert run(capsys, "build", "w1", "2053", "--out", str(path))[0] == 0
    doc = json.loads(path.read_text())
    perm = doc["perm"]
    perm[240], perm[611] = perm[611], perm[240]
    swapped = tmp_path / "swapped.json"
    swapped.write_text(json.dumps(doc))
    cases = ((path, (0, "costas\n", "")), (swapped, (3, "not-costas k=2 x=239 y=248\n", "")))
    for file, want in cases:
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("COSTAS_THREADS", workers)
            assert run(capsys, "verify", str(file)) == want
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)


def test_help_and_missing_command(capsys):
    assert run(capsys, "--help")[0] == 0
    assert main([]) == 1
    capsys.readouterr()


def test_module_entry_point():
    r = subprocess.run(
        [sys.executable, "-m", "costaskit", "build", "w2", "7"],
        capture_output=True,
    )
    assert r.returncode == 0
    assert b"\r" not in r.stdout
    doc = json.loads(r.stdout)
    assert doc["method"] == "w2" and doc["n"] == 5


def test_closed_stdout_exits_quietly():
    # About 140 kB of rows outgrow the pipe buffer, so the command is still
    # writing when the reader closes its end.
    with subprocess.Popen(
        [sys.executable, "-m", "costaskit", "fpr", "--range", "3", "50000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"# format=1\n"
        proc.stdout.close()
        assert (proc.wait(timeout=60), proc.stderr.read()) == (0, b"")


def test_roundtrip_sampled_methods(capsys, tmp_path):
    cases = [
        ("w1", "101"), ("w2", "97"), ("l2", "64"), ("g2", "49"),
        ("g3", "243"), ("g4c2", "32"), ("t4", "59"), ("g4", "61"),
    ]
    for method, q in cases:
        code, out, err = run(capsys, "build", method, q)
        assert code == 0, (method, q, err)
        path = tmp_path / f"{method}_{q}.json"
        path.write_text(out)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0 and out.strip() == "costas", (method, q)
