#!/usr/bin/env python3
"""costaskit benchmark: census, construct and scan workloads.

Usage (from the repository root):

    python3 costabench/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 costabench/run.py --workload all          # every workload, one table

Each repetition runs in a fresh interpreter (`child.py`), so every package
cache starts cold, as it does for a command-line user. Repetitions of the
workload's closed-loop command sequence continue until `--seconds` of
measurement have passed (at least three), then a few import-only
interpreters add set-up samples. End-to-end metrics are medians over the
repetitions. With `--trace 1`, untraced and traced repetitions alternate,
and the per-layer metrics come from the traced ones; their difference in
wall time is the tracing overhead.

Every output is checked: the first repetition against the independent
reference code in `oracle.py` (and, for the default seed, against the
recorded digests in `reference.json`), every later one against the
first. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".costabench"
DEFAULT_SEED = 1
MIN_REPS = 3  # untraced repetitions per run; 2 when traced ones alternate with them
SETUP_PROBES = 6
BUDGET_S = 150.0  # no new repetition starts after this many seconds
REF_KERNEL_S = 0.005  # calibration-kernel seconds that define the reference speed

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"))


def layer_metrics() -> list[tuple[str, str]]:
    """Names and units of the per-layer metrics, in report order."""
    out = []
    for name in tracer.span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [
        ("density.primes_scanned", "count"),
        ("ff.is_prime.per_prime", "calls/prime"),
        ("constructions.cells_built", "count"),
        ("costas.cells_checked", "count"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
    ]
    return out


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def version(pkg: str) -> str:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the repository the benchmark sits in, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class ChildFailed(Exception):
    pass


def run_child(ops: list[dict] | None, workdir: Path, trace: bool, timeout: float,
              spans_out: Path | None = None) -> dict:
    """Run one fresh interpreter; returns its result with the elapsed time added."""
    workdir.mkdir(parents=True, exist_ok=True)
    plan = {"src": str(SRC), "workdir": str(workdir), "trace": trace, "ops": ops or [],
            "spans_out": str(spans_out) if spans_out else None}
    plan_path, result_path = workdir / "plan.json", workdir / "result.json"
    plan_path.write_text(json.dumps(plan))
    # The package does no BLAS work, and numpy's huge-page hint makes peak
    # memory depend on what else the machine has freed; both only add noise.
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1", NUMPY_MADVISE_HUGEPAGE="0")
    env.pop("PYTHONPATH", None)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(plan_path), str(result_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as e:
        raise ChildFailed(f"repetition exceeded {timeout:.0f} s") from e
    if proc.returncode != 0 or not result_path.is_file():
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    result = json.loads(result_path.read_text())
    if Path(result["module"]).parent != SRC / "costaskit":
        raise ChildFailed(f"imported costaskit from {result['module']}, not {SRC}")
    result["elapsed_s"] = time.monotonic() - t0
    result["raw"], result["cal"] = _times(result)
    return result


def _times(result: dict) -> tuple[dict, dict]:
    """Raw and calibrated set-up, wall and CPU seconds of one child.

    A calibrated time is the raw time scaled by REF_KERNEL_S over the
    kernel time measured just before and after it: the time the work
    would take if the CPU ran the kernel at its reference speed. The
    CPUs of a shared machine change speed from second to second, and
    this removes most of that from the comparison between commits.
    """
    c = result["calib_s"]

    def scale(i: int) -> float:
        return REF_KERNEL_S / ((c[i] + c[i + 1]) / 2)

    ops = result["ops"]
    raw = {"setup_s": result["setup_s"],
           "wall_s": sum(o["wall_s"] for o in ops),
           "cpu_s": sum(o["cpu_s"] for o in ops)}
    cal = {"setup_s": result["setup_s"] * scale(0),
           "wall_s": sum(o["wall_s"] * scale(i + 1) for i, o in enumerate(ops)),
           "cpu_s": sum(o["cpu_s"] * scale(i + 1) for i, o in enumerate(ops))}
    return raw, cal


def _read_docs(ops: list[dict], workdir: Path) -> dict[str, str]:
    names = [op["check"]["out"] for op in ops if op["check"]["type"] == "build"]
    names += [op["check"]["doc"] for op in ops if op["check"]["type"] == "verify_swapped"]
    return {n: (workdir / n).read_text() for n in names if (workdir / n).is_file()}


def _digests(ops: list[dict], recs: list[dict], docs: dict[str, str]) -> list[str]:
    out = []
    for op, rec in zip(ops, recs):
        doc = docs.get(op["check"].get("out", ""), "")
        blob = json.dumps([rec["rc"], rec["stdout"], rec["stderr"], doc])
        out.append(hashlib.sha256(blob.encode()).hexdigest())
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Run:
    """One benchmark run of one workload: repetitions, checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, scale: str):
        self.workload, self.seed, self.seconds, self.trace, self.scale = workload, seed, seconds, trace, scale
        self.plan = workloads.make_plan(workload, seed, scale)
        self.ops = [op for op in self.plan if op["kind"] != "swap"]
        self.reference = workloads.load_reference()
        self.workdir = OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.probes: list[dict] = []  # import-only children
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.baseline: list[str] | None = None
        self.baseline_ok: list[bool] = []

    def _evaluate(self, rep: dict, workdir: Path) -> None:
        recs = rep["ops"]
        docs = _read_docs(self.ops, workdir)
        digests = _digests(self.ops, recs, docs)
        if self.baseline is None:
            parsed = {name: json.loads(text) for name, text in docs.items()}
            errors = workloads.check_outputs(self.ops, recs, parsed, self.reference)
            if self.seed == DEFAULT_SEED and self.scale == "full":
                want = self.reference["digests"].get(self.workload, [])
                for i, d in enumerate(digests):
                    if errors[i] is None and (i >= len(want) or want[i] != d):
                        errors[i] = f"{self._label(i)}: output differs from the recorded reference"
            self.baseline, self.baseline_ok = digests, [e is None for e in errors]
            self.errors += [e for e in errors if e]
            bad = [e is not None for e in errors]
        else:
            bad = [not ok or d != b for d, b, ok in zip(digests, self.baseline, self.baseline_ok)]
            self.errors += [f"{self._label(i)}: output differs between repetitions"
                            for i, b in enumerate(bad) if b and self.baseline_ok[i]]
        self.attempted += len(self.ops)
        self.failed += sum(bad)

    def _label(self, i: int) -> str:
        op = self.ops[i]
        return " ".join(op["argv"]) if "argv" in op else op["fn"]

    def _rep(self, index: int, trace: bool, t_begin: float) -> dict | None:
        workdir = self.workdir / f"rep{index}"
        spans = OUT / "trace" / f"{self.workload}-seed{self.seed}.npz" if trace else None
        if spans is not None:
            spans.parent.mkdir(parents=True, exist_ok=True)
        try:
            rep = run_child(self.plan, workdir, trace, 175.0 - (time.monotonic() - t_begin), spans)
        except ChildFailed as e:
            self.errors.append(str(e))
            self.attempted += len(self.ops)
            self.failed += len(self.ops)
            return None
        self._evaluate(rep, workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        return rep

    def execute(self) -> None:
        t_begin = time.monotonic()
        try:
            run_child(None, self.workdir / "warmup", False, 60.0)  # compiles bytecode
        except ChildFailed as e:
            self.errors.append(str(e))
            self.attempted, self.failed = len(self.ops), len(self.ops)
            return
        measured = 0.0  # child run time only; checking outputs does not count
        index = 0
        while True:
            rep = self._rep(index, False, t_begin)
            if rep is None:
                break
            self.untraced.append(rep)
            step = rep["elapsed_s"]
            if self.trace:
                rep = self._rep(index + 1, True, t_begin)
                if rep is None:
                    break
                self.traced.append(rep)
                step += rep["elapsed_s"]
            index += 2
            measured += step
            done = measured >= self.seconds and len(self.untraced) >= (2 if self.trace else MIN_REPS)
            if done or time.monotonic() - t_begin + step > BUDGET_S:
                break
        for i in range(SETUP_PROBES):
            if time.monotonic() - t_begin > BUDGET_S + 10:
                break
            try:
                self.probes.append(run_child(None, self.workdir / f"probe{i}", False, 30.0))
            except ChildFailed as e:
                self.errors.append(str(e))
                break
        self._check_trace_counts()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _check_trace_counts(self) -> None:
        """Every traced repetition must make exactly the same calls."""
        if not self.traced:
            return
        first = self._counts(self.traced[0])
        for rep in self.traced[1:]:
            if self._counts(rep) != first:
                self.errors.append("traced call counts differ between repetitions")
                self.failed += len(self.ops)

    @staticmethod
    def _counts(rep: dict) -> dict:
        t = rep["trace"]
        return {"calls": {k: v["calls"] for k, v in t["layers"].items()},
                "counters": t["counters"], "spans": t["spans"]}

    def end_to_end(self, kind: str = "cal") -> dict:
        """Medians over repetitions; kind "raw" gives uncalibrated times."""
        samples = {
            "setup_s": [r[kind]["setup_s"] for r in self.untraced + self.probes],
            "wall_s": [r[kind]["wall_s"] for r in self.untraced],
            "cpu_s": [r[kind]["cpu_s"] for r in self.untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in self.untraced],
        }
        return {name: {"value": statistics.median(samples[name]), "unit": unit,
                       "samples": len(samples[name]), "quartiles": _quartiles(samples[name])}
                for name, unit in END_TO_END if samples[name]}

    def per_layer(self) -> dict:
        if not self.traced:
            return {}
        values: dict[str, float] = {}
        first = self.traced[0]["trace"]
        for name in tracer.span_names():
            layer = first["layers"].get(name, {"calls": 0})
            values[f"{name}.calls"] = layer["calls"]
            values[f"{name}.self_s"] = statistics.median(
                r["trace"]["layers"].get(name, {"self_s": 0.0})["self_s"] for r in self.traced)
        scanned = 0
        for op, rec in zip(self.ops, self.untraced[0]["ops"]):
            if op["check"]["type"] == "census" and rec["rc"] == 0:
                scanned += workloads.parse_census(rec["stdout"])[-1][2]
        values["density.primes_scanned"] = scanned
        values["ff.is_prime.per_prime"] = values["ff.is_prime.calls"] / scanned if scanned else 0.0
        values.update(first["counters"])
        values["trace.spans"] = first["spans"]
        wall = lambda reps: statistics.median(r["cal"]["wall_s"] for r in reps)  # noqa: E731
        values["trace.overhead_s"] = wall(self.traced) - wall(self.untraced)
        units = dict(layer_metrics())
        return {name: {"value": values[name], "unit": units[name]} for name, _ in layer_metrics()}

    def result(self) -> dict:
        metrics = self.per_layer() if self.trace else self.end_to_end()
        return {
            "correct": self.failed == 0 and not self.errors,
            "attempted": max(self.attempted, 1),
            "failed": self.failed if self.attempted else 1,
            "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
        }

    def save(self, env: dict) -> None:
        path = OUT / "results" / f"{self.workload}-seed{self.seed}-trace{int(self.trace)}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        e2e = self.end_to_end()
        path.write_text(json.dumps({
            "workload": self.workload, "seed": self.seed, "seconds": self.seconds,
            "scale": self.scale, "environment": env, "end_to_end": e2e,
            "end_to_end_raw": self.end_to_end("raw"),
            "per_layer": self.per_layer(), "errors": self.errors,
            "samples": {
                name: [{"raw": r["raw"], "cal": r["cal"], "calib_s": r["calib_s"],
                        "ops": [[o["wall_s"], o["cpu_s"], o["peak_rss_mb"]] for o in r["ops"]],
                        "peak_rss_mb": r["peak_rss_mb"]} for r in reps]
                for name, reps in (("untraced", self.untraced), ("traced", self.traced),
                                   ("probes", self.probes))
            },
            "trace_missing": self.traced[0]["trace"]["missing"] if self.traced else [],
            "result": self.result(),
        }, indent=1))

    def summary_line(self) -> str:
        e2e, raw = self.end_to_end(), self.end_to_end("raw")
        parts = [f"{k}={v['value']:.4f} [{v['quartiles'][0]:.4f}..{v['quartiles'][2]:.4f}, n={v['samples']}]"
                 for k, v in e2e.items()]
        parts += [f"raw_{k}={v['value']:.4f}" for k, v in raw.items() if k != "peak_rss_mb"]
        rate = self.failed / self.attempted if self.attempted else 1.0
        line = f"{self.workload}: " + " ".join(parts) + f" error_rate={rate:.4f} ({self.failed}/{self.attempted})"
        if self.trace and self.traced:
            line += f" trace_overhead_s={self.per_layer()['trace.overhead_s']['value']:.4f}"
        return line


def record_reference() -> int:
    """Rewrite the default-seed digests in reference.json from one checked run."""
    reference = workloads.load_reference()
    for workload in workloads.WORKLOADS:
        bench = Run(workload, DEFAULT_SEED, 0, False, "full")
        rep = run_child(bench.plan, bench.workdir, False, 175.0)
        docs = _read_docs(bench.ops, bench.workdir)
        parsed = {name: json.loads(text) for name, text in docs.items()}
        errors = [e for e in workloads.check_outputs(bench.ops, rep["ops"], parsed, reference) if e]
        shutil.rmtree(bench.workdir, ignore_errors=True)
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        reference["digests"][workload] = _digests(bench.ops, rep["ops"], docs)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="input sizes; smoke is for the benchmark's own test")
    parser.add_argument("--record-reference", action="store_true",
                        help="re-record the default-seed output digests, then exit")
    args = parser.parse_args(argv)

    if not (SRC / "costaskit" / "__init__.py").is_file():
        print(f"costabench: no costaskit sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()

    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        run = Run(name, args.seed, args.seconds, bool(args.trace), args.scale)
        run.execute()
        run.save(env)
        print(run.summary_line())
        for err in run.errors[:10]:
            print(f"  FAIL {err}", file=sys.stderr)
        results[name] = run.result()

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
