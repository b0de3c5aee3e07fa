"""Command line front end: build, verify, fpr, census, sweep."""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Iterable, NoReturn, Optional, Sequence, TextIO

import numpy as np

from .constructions import (
    _METHODS,
    ConditionFailed,
    ConstructionFailed,
    ConstructionSpec,
    METHODS,
    _codes,
    expected_size,
    find_spec,
)
from .costas import first_collision, is_costas
from .density import CensusRow, census_g4, census_t4, trinomial_census
from .ff import DegreeOutOfRange, make_field, prime_power
from .fpr import fpr_report, fpr_reports

_SWEEP_CAP = 4096

# Entries of a build document's perm turned into text per write: the text of
# the whole document is never held at once.
_DOC_CHUNK = 1 << 12


def worker_count(flag: Optional[int] = None) -> int:
    """Worker count for census and verify: a nonzero --workers value, else
    COSTAS_THREADS if set (0 means 1), else the CPU count."""
    if flag is not None and flag < 0:
        raise ValueError(f"--workers must not be negative, got {flag}")
    if flag:
        return flag
    env = os.environ.get("COSTAS_THREADS")
    if env is None:
        return os.cpu_count() or 1
    try:
        n = int(env)
    except ValueError:
        raise ValueError(f"COSTAS_THREADS must be an integer, got {env!r}") from None
    if n < 0:
        raise ValueError(f"COSTAS_THREADS must not be negative, got {n}")
    return max(1, n)


def write_census_csv(fh: TextIO, rows: Iterable[CensusRow]) -> None:
    """Write census rows in the format=1 CSV layout."""
    fh.write("# format=1\nx,count,pi_x,ratio,predicted\n")
    for r in rows:
        fh.write(f"{r.x},{r.count},{r.pi_x},{r.ratio:.6f},{r.predicted:.6f}\n")


def _err(msg: str) -> None:
    print(msg, file=sys.stderr)


def _document(spec: ConstructionSpec, n: int) -> dict:
    """The build document of an array of size n, with an empty perm."""
    params = {"alpha": spec.alpha}
    if spec.beta is not None:
        params["beta"] = spec.beta
    return {
        "format": 1,
        "n": n,
        "perm": [],
        "method": spec.method,
        "q": spec.field.q,
        "params": params,
    }


def _write_document(fh: TextIO, spec: ConstructionSpec, codes: np.ndarray) -> None:
    """Write the build document of codes and a newline to fh: the bytes of
    json.dumps(doc, separators=(",", ":")) + "\n" with codes as its perm, a
    chunk of _DOC_CHUNK entries at a time."""
    # The perm's "[]" is the only empty list in the document.
    head, tail = json.dumps(_document(spec, len(codes)), separators=(",", ":")).split("[]")
    fh.write(head + "[")
    for start in range(0, len(codes), _DOC_CHUNK):
        chunk = json.dumps(codes[start : start + _DOC_CHUNK].tolist(), separators=(",", ":"))
        fh.write(("," if start else "") + chunk[1:-1])
    fh.write("]" + tail + "\n")


def cmd_build(args: argparse.Namespace) -> int:
    pk = prime_power(args.q)
    if pk is None:
        raise ValueError(f"{args.q} is not a prime power")
    field = make_field(*pk)

    if args.alpha is None and args.beta is not None:
        raise ValueError("--beta without --alpha")
    try:
        if args.alpha is None:
            spec = find_spec(args.method, field)
            if spec is None:
                raise ConditionFailed(_METHODS[args.method].none_reason)
        else:
            spec = ConstructionSpec(args.method, field, args.alpha, args.beta)
        codes = _codes(spec)
    except ConditionFailed as e:
        _err(f"{args.method}: {e}")
        return 2

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_document(fh, spec, codes)
    else:
        _write_document(sys.stdout, spec, codes)
    return 0


def _int_list(tokens: Iterable[str], flag: str) -> list[int]:
    """The integers of a flag's comma-separated tokens; a bad token is named with its flag."""
    out = []
    for t in tokens:
        try:
            out.append(int(t))
        except ValueError:
            raise ValueError(f"{flag} expects comma-separated integers, got {t!r}") from None
    return out


def _load_perm(args: argparse.Namespace) -> list[int]:
    if (args.file is None) == (args.perm is None):
        raise ValueError("pass exactly one of FILE or --perm")
    if args.perm is not None:
        return _int_list(args.perm.split(","), "--perm")
    with open(args.file, encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        perm = doc.get("perm")
        if not isinstance(perm, list):
            raise ValueError("document has no perm array")
        return perm
    if isinstance(doc, list):
        return doc
    raise ValueError("expected a JSON document or array")


def cmd_verify(args: argparse.Namespace) -> int:
    hit = first_collision(_load_perm(args), worker_count())
    if hit is None:
        print("costas")
        return 0
    k, x, y = hit
    print(f"not-costas k={k} x={x} y={y}")
    return 3


_BOOL = ("false", "true")
# Each format's header and row of an FprReport; a JSON row is the bytes of
# json.dumps(row, separators=(",", ":")).
_FPR_FORMATS = {
    "csv": ("# format=1\np,candidates,fprs,t4_root,t4_applicable,g4_applicable\n", lambda r: (
        f"{r.p},{';'.join(map(str, r.candidates))},{';'.join(map(str, r.fprs))},"
        f"{'' if r.t4_root is None else r.t4_root},{_BOOL[bool(r.fprs)]},{_BOOL[r.g4_applicable]}\n")),
    "json": ("", lambda r: (
        f'{{"p":{r.p},"candidates":[{",".join(map(str, r.candidates))}],"fprs":[{",".join(map(str, r.fprs))}],'
        f'"t4_root":{"null" if r.t4_root is None else r.t4_root},"t4_applicable":{_BOOL[bool(r.fprs)]},'
        f'"g4_applicable":{_BOOL[r.g4_applicable]}}}\n')),
}


def cmd_fpr(args: argparse.Namespace) -> int:
    if (args.p is None) == (args.range is None):
        raise ValueError("pass exactly one of P or --range A B")
    # One P stays on the scalar report, which also answers p >= 2^31; a
    # range is streamed, and fpr_reports checks the sieve cap before it.
    reports = [fpr_report(args.p)] if args.p is not None else fpr_reports(*args.range)
    header, row = _FPR_FORMATS[args.format]
    sys.stdout.write(header)
    sys.stdout.writelines(map(row, reports))
    return 0


def _parse_expr(text: str, flag: str) -> tuple[int, int]:
    parts = _int_list(text.split(","), flag)
    if len(parts) == 1:
        return parts[0], 0
    if len(parts) == 2:
        return parts[0], parts[1]
    raise ValueError(f"{flag} expects C or C,H, got {text!r}")


def cmd_census(args: argparse.Namespace) -> int:
    checkpoints = None
    if args.checkpoints:
        checkpoints = _int_list(args.checkpoints.split(","), "--checkpoints")
    workers = worker_count(args.workers)
    skipped = 0
    if args.kind != "trinomial" and (args.e1 is not None or args.e2 is not None):
        raise ValueError(f"{args.kind} takes no --e1 or --e2")
    if args.kind == "t4":
        rows = census_t4(args.limit, checkpoints, workers)
    elif args.kind == "g4":
        rows = census_g4(args.limit, checkpoints, workers)
    else:
        if args.e1 is None or args.e2 is None:
            raise ValueError("trinomial needs --e1 and --e2")
        result = trinomial_census(
            args.limit, _parse_expr(args.e1, "--e1"), _parse_expr(args.e2, "--e2"),
            checkpoints, workers,
        )
        rows = list(result.rows)
        skipped = result.skipped

    write_census_csv(sys.stdout, rows)
    if skipped:
        _err(f"census: skipped {skipped} primes with out-of-range exponents")
    return 0


def run_sweep(qmax: int) -> tuple[dict[str, list[int]], list[str], list[int]]:
    """Build every applicable method for every field up to qmax.

    Returns per-method lists of sizes that built and verified, a list of
    failure descriptions, and the sizes skipped for exceeding the
    extension-degree cap. qmax is capped at _SWEEP_CAP, which keeps every
    array below the Costas check's cap.
    """
    if not 2 <= qmax <= _SWEEP_CAP:
        raise ValueError(f"qmax must be in 2..{_SWEEP_CAP}")
    per_method: dict[str, list[int]] = {m: [] for m in METHODS}
    failures: list[str] = []
    skipped: list[int] = []
    for q in range(2, qmax + 1):
        pk = prime_power(q)
        if pk is None:
            continue
        try:
            field = make_field(*pk)
        except DegreeOutOfRange:
            skipped.append(q)
            continue
        for method in METHODS:
            spec = find_spec(method, field)
            if spec is None:
                continue
            try:
                codes = _codes(spec)
            except (ConstructionFailed, ConditionFailed) as e:
                failures.append(f"{method} q={q}: {e}")
                continue
            if len(codes) != expected_size(method, q):
                failures.append(f"{method} q={q}: size {len(codes)}")
            elif not is_costas(codes):
                failures.append(f"{method} q={q}: not costas")
            else:
                per_method[method].append(q)
    return per_method, failures, skipped


def cmd_sweep(args: argparse.Namespace) -> int:
    per_method, failures, skipped = run_sweep(args.qmax)
    if skipped:
        _err("sweep: skipped q over the degree cap: "
             + ", ".join(str(q) for q in skipped))
    for method in METHODS:
        sizes = ", ".join(str(q) for q in per_method[method])
        print(f"{method}: {sizes}")
    if failures:
        for f in failures:
            print(f"FAIL {f}")
        return 4
    print("PASS")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line, without the usage text; the
    subparsers inherit it."""

    def error(self, message: str) -> NoReturn:
        # Only "unrecognized arguments" quotes the user's text raw.
        self.exit(1, f"{self.prog}: error: {' '.join(message.splitlines())}\n")


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="costaskit",
        description="Costas arrays from finite-field constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct one array as a JSON document")
    p.add_argument("method", choices=METHODS)
    p.add_argument("q", type=int)
    p.add_argument("--alpha", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="check a permutation for the property")
    p.add_argument("file", nargs="?")
    p.add_argument("--perm")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fpr", help="Fibonacci primitive root report")
    p.add_argument("p", type=int, nargs="?")
    p.add_argument("--range", type=int, nargs=2, metavar=("A", "B"))
    p.add_argument("--format", choices=_FPR_FORMATS, default="csv")
    p.set_defaults(func=cmd_fpr)

    p = sub.add_parser("census", help="count applicable primes up to a limit")
    p.add_argument("kind", choices=("t4", "g4", "trinomial"))
    p.add_argument("limit", type=int)
    p.add_argument("--e1")
    p.add_argument("--e2")
    p.add_argument("--checkpoints")
    p.add_argument("--workers", type=int)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("sweep", help="build and verify everything up to qmax")
    p.add_argument("qmax", type=int)
    p.set_defaults(func=cmd_sweep)

    return parser


def _merge_expr_flags(argv: Sequence[str]) -> list[str]:
    # folds "--e1 -1,2" into "--e1=-1,2" so negative values parse
    out = []
    it = iter(argv)
    for tok in it:
        if tok in ("--e1", "--e2", "--perm"):
            nxt = next(it, None)
            out.append(tok if nxt is None else f"{tok}={nxt}")
        else:
            out.append(tok)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_expr_flags(argv))
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    # The one place an error becomes exit 1; cmd_build maps condition
    # failures to exit 2 itself.
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout: stop quietly, and let the exit flush go to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, RecursionError, ValueError) as e:
        _err(f"{args.command}: {e}")
        return 1
