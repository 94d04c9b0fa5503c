"""Command-line front end.

Every subcommand prints a run report (human-readable by default, one
JSON document with --json) and exits 0 on pass, 1 on a tolerance
failure, 2 on usage or input errors.  Every JSON it writes is strict:
a non-finite metric reads null.  Identical inputs produce byte-identical
output; randomness enters only through --seed.
"""
import argparse
import dataclasses
import itertools
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .algebra import map_from_json, params_from_json, verify_deformation
from .nc2d import Params2D, SingularBranchError, complete_2d_batch, params2d_to_doc
from .nc3d import generate_feasible_3d, params3d_from_json, params3d_to_doc, residual_3d, solve_3d
from .dynamics import (DEFAULT_STEPS, ClosedFormCoeffs, DegenerateFieldError, FieldConfig,
                       NonMatchableError, equivalence_check, field_to_deformation_batch,
                       simulate_matched, trajectory_to_csv)

EXITS = {"pass": 0, "fail": 1, "error": 2}
# exit code when stdout closes early (`ncphase ... | head`): 128 + SIGPIPE,
# the code a shell shows for a process that SIGPIPE ended
EXIT_CLOSED_STDOUT = 141

MATCH_PAIRING_NOTE = (
    "gauge-ratio pairing: f_theta_x = -(beta_y/alpha_y)*(f_theta - theta) and "
    "f_theta_y = -(alpha_x/beta_x)*(f_theta + theta); fixed by the consistency "
    "product, which rejects the swapped pairing"
)


def _finite_or_none(v):
    # strict JSON has no NaN or Infinity; a non-finite number is reported as null
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _report(command, status, metrics=None, payload=None, notes=None):
    return {
        "command": command,
        "status": status,
        "metrics": {k: _finite_or_none(v) for k, v in (metrics or {}).items()},
        "payload": payload or {},
        "errata_notes": list(notes or []),
    }


def _dumps(doc):
    """Strict JSON: raises ValueError on NaN or Infinity."""
    return json.dumps(doc, sort_keys=True, allow_nan=False)


def _render(report, as_json):
    if as_json:
        return _dumps(report)
    lines = [f"command: {report['command']}", f"status: {report['status']}"]
    for k in sorted(report["metrics"]):
        lines.append(f"{k} = {report['metrics'][k]!r}")
    for note in report["errata_notes"]:
        lines.append(f"note: {note}")
    if report["payload"]:
        lines.append(_dumps(report["payload"]))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommand bodies, reusable by sweep


def _run_check_map(args):
    with open(args["map"]) as fh:
        m, hbar_map = map_from_json(fh.read())
    with open(args["theta"]) as fh:
        params = params_from_json(fh.read())
    if hbar_map != params.hbar:  # a NaN hbar is a mismatch too
        return _report("check-map", "error",
                       notes=[f"hbar mismatch: map {hbar_map!r} vs params {params.hbar!r}"])
    rep = verify_deformation(m, params, tol=args.get("tol", 1e-10))
    metrics = {
        "max_abs_xx": rep.max_abs_xx,
        "max_abs_pp": rep.max_abs_pp,
        "max_abs_xp": rep.max_abs_xp,
        "tol": rep.tol,
    }
    return _report("check-map", "pass" if rep.passed else "fail", metrics)


def _error_note(err):
    if isinstance(err, SingularBranchError):
        return f"SingularBranch: {err.kind.value}"
    return f"{type(err).__name__}: {err}"


# Row builders: the pass report of one draw from its values, ``v``
# mapping each column of the task's batch result to the draw's value.
# The single commands call them on their one draw; the sweep calls them
# once, on placeholders, and fills the row text they dump from columns.


_PARAMS2D = tuple(field.name for field in dataclasses.fields(Params2D))


def _error_row(task, note):
    return _report(task, "error", notes=[note])


def _columns(batch, prefix=""):
    return {prefix + name: col for name, col in batch._asdict().items() if name != "errors"}


def _solve2d_batch(cols):
    """(errors by draw index, result columns as lists) of the draws whose
    inputs ``cols`` holds, each a scalar or an (n,) array."""
    done = complete_2d_batch(cols["theta"], cols["eta"], cols["f_theta"], cols["f_eta"],
                             cols.get("f_theta_x"), cols.get("hbar", 1.0),
                             f_theta_y=cols.get("f_theta_y"),
                             f_theta_imag=cols.get("f_theta_imag", 0.0))
    return done.errors, _columns(done)


def _solve2d_row(v):
    p = Params2D(*(v[name] for name in _PARAMS2D))
    return _report("solve2d", "pass", {"residual_max": v["residual_max"]}, params2d_to_doc(p))


def _match_field_batch(cols):
    get = cols.get
    match = field_to_deformation_batch(cols["alpha_x"], cols["alpha_y"], cols["beta_x"],
                                       cols["beta_y"], get("e", 1.0), get("c", 1.0),
                                       get("m_p", 1.0), get("f_theta", 0.0), get("hbar", 1.0),
                                       get("theta", 0.0))
    columns = _columns(match)
    columns.update(_columns(columns.pop("params2d"), "params2d."))
    b_z = cols["alpha_y"] - cols["beta_x"]  # of two scalars, a Python number as FieldConfig.b_z
    columns["b_z"] = [b_z] * len(match.eta) if np.ndim(b_z) == 0 else b_z.tolist()
    return match.errors, columns


def _match_field_row(v):
    p = Params2D(*(v["params2d." + name] for name in _PARAMS2D))
    payload = {"eta": v["eta"], "f_eta": v["f_eta"], "kx": v["kx"], "ky": v["ky"],
               "b_z": v["b_z"], "params2d": params2d_to_doc(p)}
    metrics = {"eta": v["eta"], "omega_commutative": v["omega_commutative"],
               "omega_nc": v["omega_nc"]}
    return _report("match-field", "pass", metrics, payload, [MATCH_PAIRING_NOTE])


def _run_one(task, args):
    batch, row = _SWEEP_TASKS[task]
    errors, columns = batch(args)
    if errors:
        return _error_row(task, _error_note(errors[0]))
    return row({name: col[0] for name, col in columns.items()})


def _run_solve2d(args):
    return _run_one("solve2d", args)


def _run_gen3d(args):
    p = generate_feasible_3d(args["seed"], args.get("hbar", 1.0),
                             force_zero_c=args.get("force_zero_c", False))
    payload = params3d_to_doc(p)
    metrics = {"residual_max": float(np.abs(residual_3d(p)).max())}
    if args.get("out"):
        with open(args["out"], "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")
    return _report("gen3d", "pass", metrics, payload)


def _run_solve3d(args):
    with open(args["input"]) as fh:
        p0 = params3d_from_json(fh.read())
    frozen = None
    if args.get("frozen"):
        frozen = [tok for tok in args["frozen"].split(",") if tok.strip()]
    res = solve_3d(p0, frozen=frozen, tol=args.get("tol", 1e-10),
                   max_iter=args.get("max_iter", 50), trace=args.get("trace", False))
    payload = params3d_to_doc(res.params)
    if args.get("out"):  # the file carries the parameters only, never the trace
        with open(args["out"], "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")
    metrics = {
        "residual_max": res.residual_max,
        "residual_norm": res.residual_norm,
        "iterations": res.iterations,
    }
    notes = [res.message] if res.message else []
    if args.get("trace"):
        payload["history"] = [[it, _finite_or_none(norm)] for it, norm in res.history]
    return _report("solve3d", "pass" if res.converged else "fail", metrics, payload, notes)


def _run_match_field(args):
    return _run_one("match-field", args)


def _load_scenario(path):
    with open(path) as fh:
        doc = json.load(fh)
    field = FieldConfig(**doc["field"])
    c, params = doc.get("coeffs", {}), doc.get("params", {})
    for name, value in (("coeffs", c), ("params", params)):
        if not isinstance(value, dict):
            raise ValueError(f"scenario {name} is not a JSON object: {value!r}")
    dt = doc.get("dt")
    if not (dt is None or _is_number(dt)):
        raise ValueError(f"scenario dt is neither a number nor null: {dt!r}")
    coeffs = ClosedFormCoeffs.for_field(
        field, c.get("x1", 0.0), c.get("x2", 0.0), c.get("x3", 0.0), c.get("y3", 0.0)
    )
    return field, coeffs, params, dt, doc.get("steps")


def _step_count(steps):
    # None selects the default; an explicit count is a whole number (4096.0
    # is one, 12.7, "12" and true are not) of at least 1
    if steps is None:
        return DEFAULT_STEPS
    if not (_is_number(steps) and float(steps).is_integer()):
        raise ValueError(f"steps must be a whole number, got {steps!r}")
    steps = int(steps)
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    return steps


def _run_simulate(args):
    field, coeffs, params, dt, steps = _load_scenario(args["scenario"])
    if args.get("dt") is not None:
        dt = args["dt"]
    if args.get("steps") is not None:
        steps = args["steps"]
    steps = _step_count(steps)
    try:
        traj, match = simulate_matched(
            field, coeffs,
            hbar=params.get("hbar", 1.0),
            f_theta=params.get("f_theta", 0.0),
            theta=params.get("theta", 0.0),
            dt=dt, steps=steps,
        )
    except (NonMatchableError, DegenerateFieldError) as err:
        return _report("simulate", "error", notes=[f"{type(err).__name__}: {err}"])
    with open(args["out"], "w") as fh:
        trajectory_to_csv(traj, fh)
    metrics = {
        "rows": int(traj.times.size),
        "dt": float(traj.times[1] - traj.times[0]),
        "steps": steps,
        "eta": match.eta,
    }
    return _report("simulate", "pass", metrics)


def _run_equivalence(args):
    field, coeffs, params, dt, steps = _load_scenario(args["scenario"])
    try:
        rep = equivalence_check(
            field, coeffs,
            n_samples=args.get("samples", 64),
            tol=args.get("tol", 1e-8),
            hbar=params.get("hbar", 1.0),
            f_theta=params.get("f_theta", 0.0),
            theta=params.get("theta", 0.0),
            dt=dt, steps=_step_count(steps),
            eta_scale=args.get("eta_scale", 1.0),
        )
    except (NonMatchableError, DegenerateFieldError) as err:
        return _report("equivalence", "error", notes=[f"{type(err).__name__}: {err}"])
    metrics = dict(rep.deviations)
    metrics.update({
        "omega_extracted": rep.omega_extracted,
        "omega_expected": rep.omega_expected,
        "omega_commutative": rep.omega_commutative,
        "tol": rep.tol,
    })
    return _report("equivalence", "pass" if rep.passed else "fail", metrics,
                   notes=rep.errata_notes)


# per task: its batched call, (errors, columns) of n draws, and its row builder
_SWEEP_TASKS = {"solve2d": (_solve2d_batch, _solve2d_row),
                "match-field": (_match_field_batch, _match_field_row)}
SWEEP_MAX_POINTS = 1_000_000
# grid points per batched call: large enough that numpy, not dispatch,
# does the work, small enough that memory stays flat up to the 1e6 cap
SWEEP_CHUNK = 8192
# rows rendered and written at once; only this many rows' text is held
SWEEP_SLICE = 1024


def _is_number(v):
    # a JSON number the batched engine can hold as a float (bool is not one)
    return type(v) is float or (type(v) is int and abs(v) <= sys.float_info.max)


def _axis_length(name, spec):
    """The point count of one grid axis, read from its spec without
    building it.  A value that is not a number, a ``num`` that is not a
    whole number, or an axis without points raises ValueError."""
    if isinstance(spec, dict):
        values, num = (spec["start"], spec["stop"]), spec["num"]
        if not (_is_number(num) and float(num).is_integer()):
            raise ValueError(f"grid {name!r} num is not a whole number: {num!r}")
        length = int(num)
    elif isinstance(spec, list):
        values, length = spec, len(spec)
    else:
        raise ValueError(f"grid {name!r} is neither a list nor a start/stop/num spec: {spec!r}")
    for v in values:
        if not _is_number(v):
            raise ValueError(f"grid value {name!r} is not a number: {v!r}")
    if length < 1:
        raise ValueError(f"grid {name!r} has no points")
    return length


# the inputs each task's batched call reads
_SWEEP_PARAMETERS = {
    "solve2d": {"theta", "eta", "f_theta", "f_eta", "f_theta_x", "f_theta_y", "f_theta_imag",
                "hbar"},
    "match-field": {"alpha_x", "alpha_y", "beta_x", "beta_y", "e", "c", "m_p", "f_theta",
                    "theta", "hbar"},
}


def _missing_parameter(task, given, imag_values):
    """The first parameter ``task`` needs that neither base nor grid gives."""
    if task == "match-field":
        needed = ["alpha_x", "alpha_y", "beta_x", "beta_y"]
    else:  # an imaginary draw completes from f_theta_x, a real one from f_theta_y if given
        needed = ["theta", "eta", "f_theta", "f_eta"]
        if "f_theta_y" not in given or any(imag_values):
            needed.append("f_theta_x")
    return next((name for name in needed if name not in given), None)


class _Slots(dict):
    """Row builder values that are placeholders, each named after its column."""

    def __missing__(self, name):
        return f"\0{name}\0"


_SLOT = re.compile(r'"\\u0000(.*?)\\u0000"')  # a placeholder as _dumps writes it


def _template(row, names):
    """(literal parts, the columns between them, the columns that must be
    finite) of a row: the builder's report, dumped with placeholders and
    split where they are.  The point and the metrics read null where not
    finite."""
    row["point"] = {name: f"\0point.{name}\0" for name in names}
    text = _SLOT.split(_dumps(row))
    return text[::2], text[1::2], set(_SLOT.findall(_dumps(row["payload"])))


_NON_FINITE = frozenset({"nan", "inf", "-inf"})
_TEXT = {int: int.__repr__, bool: ("false", "true").__getitem__}


def _float_texts(values):
    """Each entry of a float array as _dumps writes it; a non-finite one reads null."""
    return ["null" if t in _NON_FINITE else t for t in map(float.__repr__, values.tolist())]


def _gather(texts, inverse):
    """The list ``texts[k] for k in inverse``."""
    return np.array(texts, dtype=object)[inverse].tolist()


def _texts(values, nullable):
    """Each value as _dumps writes it in a row; a complex is [re, im].  A
    non-finite float reads null if ``nullable``, else raises ValueError."""
    kinds = set(map(type, values))
    if kinds == {float}:  # each distinct bit pattern rendered once: -0.0 keeps its sign
        array = np.fromiter(values, float, len(values))
        if not nullable and not np.isfinite(array).all():
            _dumps(values)  # raises ValueError
        bits, inverse = np.unique(array.view(np.int64), return_inverse=True)
        return _gather(_float_texts(bits.view(float)), inverse)
    text = _TEXT.get(kinds.pop()) if len(kinds) == 1 else None
    if text is None:  # mixed types: complex entries of imaginary draws, say
        values = [[v.real, v.imag] if type(v) is complex else v for v in values]
        return [_dumps(_finite_or_none(v) if nullable else v) for v in values]
    return list(map(text, values))


class _Sweep:
    """The rows of a sweep, computed a chunk of grid points at a time and
    rendered from each chunk's batch columns a slice of rows at a time."""

    def __init__(self, task, base, names, axes):
        self.base, self.names, self.axes = base, names, axes
        self.batch, row = _SWEEP_TASKS[task]
        self.passed = _template(row(_Slots()), names)
        self.failed = _template(_error_row(task, "\0note\0"), names)
        # columns that hold row texts, not values
        self.rendered = {"note"} | {f"point.{name}" for name in names}

    def chunks(self):
        """(index, errors, columns) of each chunk of grid points, in grid
        order (the last axis varies fastest); ``index`` holds each axis's
        index of the chunk's points."""
        shape = [ax.size for ax in self.axes]
        total = math.prod(shape)
        for start in range(0, total, SWEEP_CHUNK):
            index = np.unravel_index(np.arange(start, min(start + SWEEP_CHUNK, total)), shape)
            cols = dict(self.base)
            cols.update((name, ax[i]) for name, ax, i in zip(self.names, self.axes, index))
            errors, columns = self.batch(cols)
            yield index, errors, columns

    def status(self):
        """The sweep's status from the batched calls alone, without rendering."""
        return "fail" if any(errors for _, errors, _ in self.chunks()) else "pass"

    def write(self, fh):
        """Write the rows, comma-separated; return the sweep's status."""
        status, sep = "pass", ""
        for index, errors, columns in self.chunks():
            n = index[0].size
            for name, ax, i in zip(self.names, self.axes, index):
                used, inverse = np.unique(i, return_inverse=True)  # each axis value once
                columns[f"point.{name}"] = _gather(_float_texts(ax[used]), inverse)
            if errors:  # each note encoded once per exception object
                status = "fail"
                notes = {err: _dumps(_error_note(err)) for err in set(errors.values())}
                columns["note"] = note = [None] * n
                for i, err in errors.items():
                    note[i] = notes[err]
            for start in range(0, n, SWEEP_SLICE):
                stop = min(start + SWEEP_SLICE, n)
                fh.write(sep + ", ".join(self._rows(errors, columns, start, stop)))
                sep = ", "
        return status

    def _rows(self, errors, columns, start, stop):
        """The row texts of draws start..stop-1, in grid order."""
        draws = range(start, stop)
        failed = [i for i in draws if i in errors] if errors else []
        if len(failed) in (0, len(draws)):  # one template fills the slice
            return self._fill(self.failed if failed else self.passed, columns, slice(start, stop))
        passed = self._fill(self.passed, columns, [i for i in draws if i not in errors])
        failed = self._fill(self.failed, columns, failed)
        return map(next, [failed if i in errors else passed for i in draws])

    def _fill(self, template, columns, index):
        """The template's rows of the draws ``index``, a slice or a list:
        each distinct value of a column rendered once, each row joined
        from the template's literal parts and the column texts."""
        parts, names, strict = template
        texts = {}
        for name in set(names):
            column = columns[name]
            values = column[index] if type(index) is slice else list(map(column.__getitem__, index))
            texts[name] = values if name in self.rendered else _texts(values, name not in strict)
        fields = [itertools.repeat(parts[0])]
        for name, part in zip(names, parts[1:]):
            fields += (texts[name], itertools.repeat(part))
        return map("".join, zip(*fields))


def _write(report, as_json, fh):
    """Write ``report`` and a newline to ``fh``; return its status.  A
    sweep's rows (a _Sweep payload) are streamed where the document holds
    them, and its status follows from them; text mode prints the status
    first, so there a first pass of the batched calls finds it."""
    sweep = report["payload"].get("rows")
    if not isinstance(sweep, _Sweep):
        fh.write(_render(report, as_json) + "\n")
        return report["status"]

    def document(status):  # the report, split where its rows go
        doc = dict(report, status=status, payload={"rows": [None]})
        return _render(doc, as_json).split("null")

    status = None if as_json else sweep.status()  # JSON puts "status" after the rows
    fh.write(document(status)[0])
    status = sweep.write(fh)
    fh.write(document(status)[1] + "\n")
    return status


def _run_sweep(args):
    with open(args["config"]) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        return _report("sweep", "error", notes=["a sweep config is a JSON object"])
    task = cfg.get("task")
    if task not in _SWEEP_TASKS:
        return _report("sweep", "error", notes=[f"unknown sweep task {task!r}"])
    grid, base = cfg.get("grid", {}), cfg.get("base", {})
    for field, value in (("grid", grid), ("base", base)):
        if not isinstance(value, dict):
            return _report("sweep", "error",
                           notes=[f"sweep {field} is not a JSON object: {value!r}"])
    if not 1 <= len(grid) <= 3:
        return _report("sweep", "error", notes=["grid must vary between 1 and 3 parameters"])
    names = sorted(grid)
    total = math.prod(_axis_length(name, grid[name]) for name in names)
    if total > SWEEP_MAX_POINTS:
        return _report("sweep", "error", notes=[f"grid of {total} points exceeds the 1e6 cap"])
    axes = [np.linspace(float(spec["start"]), float(spec["stop"]), int(spec["num"]))
            if isinstance(spec, dict) else np.array([float(v) for v in spec])
            for spec in (grid[name] for name in names)]
    for name, v in base.items():
        if not _is_number(v):
            return _report("sweep", "error", notes=[f"base value {name!r} is not a number: {v!r}"])
    unknown = sorted((set(base) | set(names)) - _SWEEP_PARAMETERS[task])
    if unknown:  # a misspelt name would run every point alike
        return _report("sweep", "error",
                       notes=[f"sweep task {task} has no parameter {unknown[0]!r}"])
    imag = dict(zip(names, axes)).get("f_theta_imag", [base.get("f_theta_imag", 0.0)])
    missing = _missing_parameter(task, set(base) | set(names), imag)
    if missing is not None:
        return _report("sweep", "error",
                       notes=[f"sweep task {task} needs {missing!r} in base or grid"])

    # The rows are streamed, to --out or to stdout alike; with --out,
    # stdout carries the summary report
    report = _report("sweep", None, {"points": total}, {"rows": _Sweep(task, base, names, axes)})
    if not args.get("out"):
        return report
    with open(args["out"], "w") as fh:
        status = _write(report, True, fh)
    return _report("sweep", status, {"points": total})


# ---------------------------------------------------------------------------


def count(text):
    """argparse type of --max-iter: a non-negative whole number."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative count, got {text!r}")
    return n


def positive_count(text):
    """argparse type of --samples: a whole number of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive count, got {text!r}")
    return n


def tolerance(text):
    """argparse type of --tol: a finite, non-negative float."""
    tol = float(text)
    if not 0.0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text!r}")
    return tol


def _build_parser():
    ap = argparse.ArgumentParser(prog="ncphase")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-map", help="verify a map against a deformation target")
    p.add_argument("--map", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--tol", type=tolerance, default=1e-10)

    p = sub.add_parser("solve2d", help="complete the 2D parameter set from a pivot")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--f-theta", type=float, required=True)
    p.add_argument("--f-eta", type=float, required=True)
    p.add_argument("--f-theta-x", type=float)
    p.add_argument("--f-theta-y", type=float)
    p.add_argument("--f-theta-imag", type=float, default=0.0)
    p.add_argument("--hbar", type=float, default=1.0)

    p = sub.add_parser("solve3d", help="damped Newton on the 3D residual")
    p.add_argument("--input", required=True)
    p.add_argument("--frozen", default="")
    p.add_argument("--tol", type=tolerance, default=1e-10)
    p.add_argument("--max-iter", type=count, default=50)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("gen3d", help="draw an exactly feasible 3D instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--force-zero-c", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("match-field", help="match a linear gauge field to a deformation")
    p.add_argument("--alpha-x", type=float, required=True)
    p.add_argument("--alpha-y", type=float, required=True)
    p.add_argument("--beta-x", type=float, required=True)
    p.add_argument("--beta-y", type=float, required=True)
    p.add_argument("--e", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--m-p", type=float, default=1.0)
    p.add_argument("--f-theta", type=float, default=0.0)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--hbar", type=float, default=1.0)

    p = sub.add_parser("simulate", help="integrate both branches and write a trajectory CSV")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--dt", type=float)

    p = sub.add_parser("equivalence", help="closed form vs integrator cross-checks")
    p.add_argument("--scenario", required=True)
    p.add_argument("--samples", type=positive_count, default=64)
    p.add_argument("--tol", type=tolerance, default=1e-8)
    p.add_argument("--eta-scale", type=float, default=1.0)

    p = sub.add_parser("sweep", help="grid sweep over solve2d or match-field parameters")
    p.add_argument("--config", required=True)
    p.add_argument("--out")

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", dest="as_json")
    return ap


_HANDLERS = {
    "check-map": _run_check_map,
    "solve2d": _run_solve2d,
    "solve3d": _run_solve3d,
    "gen3d": _run_gen3d,
    "match-field": _run_match_field,
    "simulate": _run_simulate,
    "equivalence": _run_equivalence,
    "sweep": _run_sweep,
}


# built once per process: every run() in one interpreter reuses it
_PARSER = _build_parser()


def run(argv=None):
    ns = _PARSER.parse_args(argv)
    args = {k: v for k, v in vars(ns).items() if k not in ("command", "as_json")}
    try:
        status = _write(_HANDLERS[ns.command](args), ns.as_json, sys.stdout)
    except BrokenPipeError:
        raise  # a closed stdout: main() ends with EXIT_CLOSED_STDOUT
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError, RuntimeError,
            ZeroDivisionError) as err:
        report = _report(ns.command, "error", notes=[f"{type(err).__name__}: {err}"])
        status = _write(report, ns.as_json, sys.stdout)
    return EXITS[status]


def main():
    try:
        code = run()
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
    except BrokenPipeError:
        # as the signal module docs advise: point stdout at devnull so the
        # flush at exit cannot fail again, and exit without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_STDOUT
    sys.exit(code)


if __name__ == "__main__":
    main()
