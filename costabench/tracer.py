"""In-memory span recorder that wraps costaskit's public functions.

The benchmark installs it in a traced child process only. Each call of a
wrapped function becomes one span (name, parent span, start, end, op).
Spans stay in flat arrays until the run ends; `summary()` then derives
per-function call counts and self time (span minus its direct children),
and `save()` writes the raw spans out.

Wrapping is by identity: every `costaskit.*` module attribute that is the
original function object is replaced, so names that sibling modules
import (`costaskit.density.fpr_set`, `costaskit.fpr.sqrt_mod_p`, ...) are
traced too. Names a later version of the package drops are reported as
missing and counted as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

# Public functions traced per module, in metric order.
TARGETS = {
    "ff": (
        "is_prime", "factorize", "prime_power", "make_field", "is_primitive",
        "log_table", "sqrt_mod_p", "is_primitive_root", "smallest_primitive_root",
    ),
    "fpr": ("fpr_set", "t4_applicable", "g4_witness", "g4_applicable"),
    "density": (
        "prime_sieve", "artin_constant", "census_t4", "census_g4",
        "trinomial_census", "trinomial_witnesses", "verify_zero_density_claims",
    ),
    "constructions": (
        "find_spec", "build", "welch_w1", "welch_w2", "lempel_l2", "golomb_g2",
        "golomb_g3", "golomb_g4_char2", "taylor_t4", "golomb_g4",
    ),
    "costas": ("is_costas", "first_collision", "remove_leading"),
    "cli": ("main",),
}

# Work counters: metric name -> (traced function, what to add per call).
COUNTERS = {
    "constructions.cells_built": (("constructions.build", "result"),),
    "costas.cells_checked": (
        ("costas.is_costas", "arg0"),
        ("costas.first_collision", "arg0"),
    ),
}


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


class Tracer:
    """Records spans for wrapped calls; one instance per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = ["op"]
        self.name_id: array = array("H")
        self.parent: array = array("q")
        self.op: array = array("H")
        self.is_call: array = array("B")
        self.start: array = array("d")
        self.end: array = array("d")
        self.counters: dict[str, int] = {name: 0 for name in COUNTERS}
        self.missing: list[str] = []
        self._stack: list[int] = [-1]
        self._op = 0

    def _open(self, nid: int, is_call: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.is_call.append(is_call)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def op_span(self, op_index: int) -> "_OpSpan":
        """Context manager for the root span of one benchmark operation."""
        self._op = op_index
        return _OpSpan(self)

    def _counter_hooks(self, name: str) -> list[tuple[str, str]]:
        return [
            (metric, what)
            for metric, sources in COUNTERS.items()
            for fn, what in sources
            if fn == name
        ]

    def wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        hooks = self._counter_hooks(name)
        tracer = self

        def resumed(gen):
            # Generators do their work on resumption, so each step is a span.
            while True:
                idx = tracer._open(nid, 0)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nid, 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            for metric, what in hooks:
                sized = result if what == "result" else args[0] if args else None
                if sized is not None:
                    tracer.counters[metric] += len(sized)
            if inspect.isgenerator(result):
                return resumed(result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every traced function in every loaded costaskit module."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "costaskit" or key.startswith("costaskit."))
        ]
        for mod_name, fns in TARGETS.items():
            try:
                home = importlib.import_module(f"costaskit.{mod_name}")
            except ImportError:
                self.missing.extend(f"{mod_name}.{fn}" for fn in fns)
                continue
            for fn in fns:
                orig = getattr(home, fn, None)
                if orig is None:
                    self.missing.append(f"{mod_name}.{fn}")
                    continue
                wrapped = self.wrap(orig, f"{mod_name}.{fn}")
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)

    def summary(self) -> dict:
        """Per-function calls and self seconds, plus counters and span count."""
        import numpy as np

        n_names = len(self.names)
        nid = np.frombuffer(self.name_id, dtype=np.uint16).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = np.bincount(nid, weights=dur - child, minlength=n_names)
        calls = np.bincount(nid, weights=np.frombuffer(self.is_call, dtype=np.uint8), minlength=n_names)
        layers = {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
            if name != "op"
        }
        return {
            "layers": layers,
            "counters": dict(self.counters),
            "spans": int(len(dur)),
            "missing": list(self.missing),
        }

    def save(self, path: str) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.uint16),
            is_call=np.frombuffer(self.is_call, dtype=np.uint8),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class _OpSpan:
    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.idx = -1

    def __enter__(self) -> None:
        self.idx = self.tracer._open(0, 1)

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.idx)
