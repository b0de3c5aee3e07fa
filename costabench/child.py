"""One benchmark repetition in a fresh interpreter.

Usage: python3 child.py PLAN.json RESULT.json

Times `import costaskit` (the set-up), then runs the plan's operations in
order, each through `costaskit.cli.main(argv)` or a public library
function, capturing stdout, stderr and the exit code. Writes per-operation
timings and captures to RESULT.json. With "trace" set, the span recorder
wraps the package first and its summary goes into the result as well.

Around the import and after every operation the child times a fixed
pure-Python kernel (`calibrate`), so the parent can express each time at
a reference CPU speed.

Only the standard library is imported before costaskit, so numpy and
mpmath load inside the timed set-up, as they do for a command-line user.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    # VmHWM covers this image only; ru_maxrss would also count the parent's
    # pages this process shared between fork and exec.
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return max(int(line.split()[1]) / 1024.0, kids)
    except OSError:
        pass
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, kids)


def _kernel() -> float:
    # fixed pure-Python work, timed to gauge how fast this CPU runs right now
    t0 = time.perf_counter()
    acc = 0
    for i in range(1, 2500):
        acc += pow(i, 1000002, 1000003)
    table: dict[int, int] = {}
    for i in range(12000):
        table[i % 997] = table.get(i % 997, 0) + i * i % 7
    return time.perf_counter() - t0


def calibrate() -> float:
    """Seconds the kernel takes now; the least of three, to skip interruptions."""
    return min(_kernel() for _ in range(3))


def _zero_density_json(report) -> str:
    return json.dumps({
        "violations": [list(v) for v in report.violations],
        "exceptions": [list(e) for e in report.exceptions],
        "skipped": dict(report.skipped),
        "thresholds": {k: list(v) for k, v in report.thresholds.items()},
    }, sort_keys=True)


def _swap(src: str, dst: str, i: int, j: int) -> None:
    with open(src, encoding="utf-8") as fh:
        doc = json.load(fh)
    perm = doc["perm"]
    perm[i], perm[j] = perm[j], perm[i]
    with open(dst, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def _run_op(costaskit, op: dict) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if op["kind"] == "cli":
                rc = costaskit.cli.main(op["argv"])
            else:
                mod_name, fn_name = op["fn"].split(".")
                fn = getattr(getattr(costaskit, mod_name), fn_name)
                print(_zero_density_json(fn(*op["args"])))
                rc = 0
        except Exception:  # a traceback is a failed operation, not a crash
            rc = -1
            traceback.print_exc(file=err)
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)

    calib = [calibrate()]
    t0 = time.perf_counter()
    sys.path.insert(0, plan["src"])
    import costaskit
    import costaskit.cli
    setup_s = time.perf_counter() - t0

    calib.append(calibrate())
    result = {"setup_s": setup_s, "module": os.path.abspath(costaskit.__file__), "ops": [], "calib_s": calib}
    tracer = None
    if plan.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    os.chdir(plan["workdir"])
    index = 0
    for op in plan.get("ops", []):
        if op["kind"] == "swap":
            _swap(op["src"], op["dst"], op["i"], op["j"])
            continue
        c0, w0 = _cpu(), time.perf_counter()
        if tracer is not None:
            with tracer.op_span(index):
                rc, out, err = _run_op(costaskit, op)
        else:
            rc, out, err = _run_op(costaskit, op)
        wall, cpu = time.perf_counter() - w0, _cpu() - c0
        result["ops"].append({"rc": rc, "stdout": out, "stderr": err, "wall_s": wall, "cpu_s": cpu,
                              "peak_rss_mb": _peak_rss_mb()})
        calib.append(calibrate())
        index += 1

    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        result["trace"] = tracer.summary()
        if plan.get("spans_out"):
            tracer.save(plan["spans_out"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
