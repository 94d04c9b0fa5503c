"""Span tracer that wraps the public functions of the ncphase modules.

Each module-level public function of a layer (``cli``, ``dynamics``,
``backend``, ``nc2d``, ``nc3d``, ``algebra``) is replaced by a wrapper
that records one span per call: name, start, end, parent span and the
request id the client set.  The wrapper is bound wherever the function
object is reachable by name in a loaded ``ncphase`` module, so call
sites that did ``from .dynamics import simulate_matched`` are traced as
well as ``dynamics.simulate_matched`` itself.  Several names for one
object (``rk4_trajectory`` and ``rk4_trajectory_numpy``) share one span,
named after the shortest.

A layer or function that no longer exists is reported in ``absent``
instead of raising, so the benchmark survives refactors that delete
code.  Spans stay in memory in flat arrays and are written out once,
by ``dump``.
"""
import functools
import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "dynamics", "backend", "nc2d", "nc3d", "algebra")

# Spans the per-layer report reads by name; any of them missing after
# install() is listed in Tracer.absent.
NAMED_SPANS = (
    "cli.run",
    "backend.rk4_trajectory",
    "backend.residual3d",
    "dynamics.trajectory_to_csv",
    "dynamics.simulate_matched",
    "dynamics.equivalence_check",
    "dynamics.field_to_deformation",
    "nc2d.classify_singular",
    "nc2d.complete_2d",
    "nc2d.residual_2d",
    "nc2d.params2d_to_json",
    "nc3d.solve_3d",
    "nc3d.generate_feasible_3d",
    "nc3d.params3d_to_json",
    "nc3d.params3d_from_json",
)


def _rk4_steps(out):
    return {"backend.rk4_trajectory.steps": len(out) - 1}


def _csv_bytes(out):
    return {"dynamics.trajectory_to_csv.bytes": len(out)}


def _solve_counts(out):
    return {"nc3d.solve_3d.iterations": out.iterations,
            "nc3d.solve_3d.converged": int(bool(out.converged))}


def _branch(out):
    return {f"nc2d.branch.{out.value}": 1}


# Counters read from a span's return value.  A hook that no longer fits
# the return type is counted in "trace.hook_errors" rather than raising.
HOOKS = {
    "backend.rk4_trajectory": _rk4_steps,
    "dynamics.trajectory_to_csv": _csv_bytes,
    "nc3d.solve_3d": _solve_counts,
    "nc2d.classify_singular": _branch,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.request = -1
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("q")
        self.req = array("q")
        self.stack = [-1]
        self.counts = {}  # (request, counter) -> total
        self.extra = []   # spans from record()
        self.absent = []

    def wrap(self, fn, span_name):
        nid = len(self.names)
        self.names.append(span_name)
        hook = HOOKS.get(span_name)
        start, end, name, parent, req, stack = (
            self.start, self.end, self.name, self.parent, self.req, self.stack)
        clock = time.perf_counter_ns  # same clock as time.perf_counter, in ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            req.append(self.request)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                self._count(hook, out)
            return out

        return traced

    def record(self, span_name, start_s, dur_s):
        """Add a finished span that did not come from a wrapped call.

        Safe to call from a signal handler: it appends to its own list, so
        it cannot interleave with the appends of a wrapper it interrupted.
        """
        self.extra.append((span_name, self.stack[-1], self.request,
                           int(start_s * 1e9), int((start_s + dur_s) * 1e9)))

    def _count(self, hook, out):
        try:
            found = hook(out)
        except Exception:  # the traced function changed its return type
            found = {"trace.hook_errors": 1}
        for key, value in found.items():
            k = (self.request, key)
            self.counts[k] = self.counts.get(k, 0) + value

    def install(self):
        """Wrap every public function of every layer that imports."""
        chosen = {}  # id(function) -> (function, span name)
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"ncphase.{layer}")
            except ImportError:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                span_name = f"{layer}.{attr}"
                prev = chosen.get(id(obj))
                if prev is None or len(span_name) < len(prev[1]):
                    chosen[id(obj)] = (obj, span_name)
        wrappers = {key: self.wrap(fn, span_name) for key, (fn, span_name) in chosen.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "ncphase" and not modname.startswith("ncphase."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and obj is chosen[id(obj)][0]:
                    setattr(mod, attr, wrapper)
        self.absent = [n for n in NAMED_SPANS if n not in self.names]

    def dump(self, path):
        """Write all spans and counters to ``path`` (.npz); return the span count."""
        names = list(self.names)
        for span_name, *_ in self.extra:
            if span_name not in names:
                names.append(span_name)
        extra = [(names.index(n), p, r, s, e) for n, p, r, s, e in self.extra]

        def column(arr, k, dtype):
            return np.concatenate([np.array(arr, dtype=dtype), np.array([x[k] for x in extra], dtype=dtype)])

        counts = [[r, k, v] for (r, k), v in sorted(self.counts.items())]
        np.savez(
            path,
            name=column(self.name, 0, np.int32),
            parent=column(self.parent, 1, np.int64),
            req=column(self.req, 2, np.int64),
            start=column(self.start, 3, np.int64),
            end=column(self.end, 4, np.int64),
            meta=np.array(json.dumps({"names": names, "counts": counts, "absent": self.absent})),
        )
        return len(self.start) + len(extra)
