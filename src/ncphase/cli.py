"""Command-line front end.

Every subcommand prints a run report (human-readable by default, one
JSON document with --json) and exits 0 on pass, 1 on a tolerance
failure, 2 on usage or input errors.  Every JSON it writes is strict:
a non-finite metric reads null.  Identical inputs produce byte-identical
output; randomness enters only through --seed.
"""
import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .algebra import _check_keys, _is_number, map_from_json, params_from_json, verify_deformation
from .nc2d import (_ONE_PIVOT, Params2D, SingularBranchError, _item, complete_2d_batch,
                   params2d_to_doc)
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
    rep = verify_deformation(m, params, tol=args["tol"])
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
    return {prefix + name: col for name, col in batch._asdict().items()
            if name not in ("stage", "failures")}


# Batched calls: (the batch result, its columns) of the draws whose
# inputs ``cols`` holds, each a scalar or an (n,) array, under every
# parameter name of the task.


def _solve2d_batch(cols):
    done = complete_2d_batch(**cols)
    return done, _columns(done)


def _solve2d_row(v):
    p = Params2D(*(v[name] for name in _PARAMS2D))
    return _report("solve2d", "pass", {"residual_max": v["residual_max"]}, params2d_to_doc(p))


def _match_field_batch(cols):
    match = field_to_deformation_batch(**cols)
    columns = _columns(match)
    columns.update(_columns(columns.pop("params2d"), "params2d."))
    # of two scalars, a Python number as FieldConfig.b_z
    columns["b_z"] = cols["alpha_y"] - cols["beta_x"]
    return match, columns


def _match_field_row(v):
    p = Params2D(*(v["params2d." + name] for name in _PARAMS2D))
    payload = {"eta": v["eta"], "f_eta": v["f_eta"], "kx": v["kx"], "ky": v["ky"],
               "b_z": v["b_z"], "params2d": params2d_to_doc(p)}
    metrics = {"eta": v["eta"], "omega_commutative": v["omega_commutative"],
               "omega_nc": v["omega_nc"]}
    return _report("match-field", "pass", metrics, payload, [MATCH_PAIRING_NOTE])


class _Task(NamedTuple):
    """A task that runs as one command and as a sweep: its parameters, in
    flag order, required ones first, the others with their defaults."""
    help: str
    required: tuple
    defaults: dict
    batch: Callable
    row: Callable


_TASKS = {
    "solve2d": _Task("complete the 2D parameter set from a pivot",
                     ("theta", "eta", "f_theta", "f_eta"),
                     {"f_theta_x": None, "f_theta_y": None, "f_theta_imag": 0.0, "hbar": 1.0},
                     _solve2d_batch, _solve2d_row),
    "match-field": _Task("match a linear gauge field to a deformation",
                         ("alpha_x", "alpha_y", "beta_x", "beta_y"),
                         {"e": 1.0, "c": 1.0, "m_p": 1.0, "f_theta": 0.0, "theta": 0.0,
                          "hbar": 1.0},
                         _match_field_batch, _match_field_row),
}


def _run_task(task, args):
    """The report of the one draw ``args`` gives every parameter of."""
    if task == "solve2d" and args["f_theta_x"] is not None and args["f_theta_y"] is not None:
        raise ValueError(_ONE_PIVOT)  # only a sweep mixes pivots, by f_theta_imag
    spec = _TASKS[task]
    done, columns = spec.batch(args)
    err = done.error(0)
    if err is not None:
        return _error_row(task, _error_note(err))
    return spec.row({name: _item(col, 0) for name, col in columns.items()})


def _run_gen3d(args):
    p = generate_feasible_3d(args["seed"], args["hbar"], force_zero_c=args["force_zero_c"])
    payload = params3d_to_doc(p)
    metrics = {"residual_max": float(np.abs(residual_3d(p)).max())}
    if args["out"]:
        with open(args["out"], "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")
    return _report("gen3d", "pass", metrics, payload)


def _run_solve3d(args):
    with open(args["input"]) as fh:
        p0 = params3d_from_json(fh.read())
    frozen = None
    if args["frozen"]:
        frozen = [tok for tok in args["frozen"].split(",") if tok.strip()]
    res = solve_3d(p0, frozen=frozen, tol=args["tol"], max_iter=args["max_iter"],
                   trace=args["trace"])
    payload = params3d_to_doc(res.params)
    if args["out"]:  # the file carries the parameters only, never the trace
        with open(args["out"], "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")
    metrics = {
        "residual_max": res.residual_max,
        "residual_norm": res.residual_norm,
        "iterations": res.iterations,
    }
    notes = [res.message] if res.message else []
    if args["trace"]:
        payload["history"] = [[it, _finite_or_none(norm)] for it, norm in res.history]
    return _report("solve3d", "pass" if res.converged else "fail", metrics, payload, notes)


# the sections of a scenario beside its field, each key with its default
_SCENARIO = {"coeffs": {"x1": 0.0, "x2": 0.0, "x3": 0.0, "y3": 0.0},
             "params": {"hbar": 1.0, "f_theta": 0.0, "theta": 0.0}}


def _load_scenario(path, dt=None, steps=None):
    """(field, coeffs, the keyword arguments of a run) of a scenario file:
    hbar, f_theta and theta, each at its default where not given, and
    ``dt`` and ``steps`` where given, else the file's."""
    with open(path) as fh:
        doc = json.load(fh)
    field, sections = doc["field"], {name: doc.get(name, {}) for name in _SCENARIO}
    for name, value in (("field", field), *sections.items()):
        if not isinstance(value, dict):
            raise ValueError(f"scenario {name} is not a JSON object: {value!r}")
        for key, v in value.items():  # true would run as 1.0
            if not _is_number(v):
                raise ValueError(f"scenario {name} value {key!r} is not a number: {v!r}")
    _check_keys("scenario", doc, ("field", "dt", "steps", *_SCENARIO))
    for name, value in sections.items():
        _check_keys(f"scenario {name}", value, _SCENARIO[name])
    c, params = ({**defaults, **sections[name]} for name, defaults in _SCENARIO.items())
    field = FieldConfig(**field)
    if not (doc.get("dt") is None or _is_number(doc["dt"])):
        raise ValueError(f"scenario dt is neither a number nor null: {doc['dt']!r}")
    params["dt"] = doc.get("dt") if dt is None else dt
    params["steps"] = _step_count(doc.get("steps") if steps is None else steps)
    return field, ClosedFormCoeffs.for_field(field, **c), params


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
    field, coeffs, run = _load_scenario(args["scenario"], args["dt"], args["steps"])
    try:
        traj, match = simulate_matched(field, coeffs, **run)
    except (NonMatchableError, DegenerateFieldError) as err:
        return _error_row("simulate", _error_note(err))
    with open(args["out"], "w") as fh:
        trajectory_to_csv(traj, fh)
    metrics = {
        "rows": int(traj.times.size),
        "dt": float(traj.times[1] - traj.times[0]),
        "steps": run["steps"],
        "eta": match.eta,
    }
    return _report("simulate", "pass", metrics)


def _run_equivalence(args):
    field, coeffs, run = _load_scenario(args["scenario"])
    try:
        rep = equivalence_check(field, coeffs, n_samples=args["samples"], tol=args["tol"],
                                eta_scale=args["eta_scale"], **run)
    except (NonMatchableError, DegenerateFieldError) as err:
        return _error_row("equivalence", _error_note(err))
    metrics = dict(rep.deviations)
    metrics.update({
        "omega_extracted": rep.omega_extracted,
        "omega_expected": rep.omega_expected,
        "omega_commutative": rep.omega_commutative,
        "tol": rep.tol,
    })
    return _report("equivalence", "pass" if rep.passed else "fail", metrics,
                   notes=rep.errata_notes)


SWEEP_MAX_POINTS = 1_000_000
# grid points per batched call: large enough that numpy, not dispatch,
# does the work, small enough that memory stays flat up to the 1e6 cap
SWEEP_CHUNK = 8192
# rows rendered and written at once; only this many rows' text is held
SWEEP_SLICE = 1024


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


_BOOLS = np.array(["false", "true"], dtype=object)


def _float_texts(values):
    """Each entry of a float array as _dumps writes it; a non-finite one reads null."""
    texts = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[i] = "null"
    return texts


def _text(value, nullable):
    """A value as _dumps writes it in a row; a complex is [re, im].  A
    non-finite float reads null if ``nullable``, else raises ValueError."""
    if type(value) is complex:
        value = [value.real, value.imag]
    return _dumps(_finite_or_none(value) if nullable else value)


def _texts(values, nullable):
    """Each entry of an (n,) column as _text writes it; each distinct
    float is rendered once, keyed on its bits (so -0.0 keeps its sign)."""
    if values.dtype == bool:
        return _BOOLS[values.view(np.uint8)].tolist()
    if values.dtype == object:  # complex entries of imaginary draws beside real ones
        return [_text(v, nullable) for v in values.tolist()]
    if not nullable and not np.isfinite(values).all():
        _dumps(values.tolist())  # raises ValueError
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array(_float_texts(bits.view(float)), dtype=object)[inverse].tolist()


def _notes(done, failed):
    """The note text of each failed draw of a chunk, None where it passed:
    rendered once per stage whose draws share one exception, else once
    per draw."""
    notes = np.empty(failed.size, dtype=object)
    for stage in np.unique(done.stage[failed]).tolist():
        make, at = done.failures[stage], done.stage == stage
        if isinstance(make, Exception):
            notes[at] = _dumps(_error_note(make))
        else:
            index = np.flatnonzero(at)
            notes[index] = [_dumps(_error_note(make(i))) for i in index.tolist()]
    return notes


class _Sweep:
    """The rows of a sweep, computed a chunk of grid points at a time and
    rendered from each chunk's batch columns a slice of rows at a time."""

    def __init__(self, task, base, names, axes):
        self.base, self.names, self.axes = base, names, axes
        spec = _TASKS[task]
        self.batch = spec.batch
        self.passed = _template(spec.row(_Slots()), names)
        self.failed = _template(_error_row(task, "\0note\0"), names)
        # columns that hold row texts, not values
        self.rendered = {"note"} | {f"point.{name}" for name in names}

    def chunks(self):
        """(index, result, columns) of each chunk of grid points, in grid
        order (the last axis varies fastest); ``index`` holds each axis's
        index of the chunk's points."""
        shape = [ax.size for ax in self.axes]
        total = math.prod(shape)
        for start in range(0, total, SWEEP_CHUNK):
            index = np.unravel_index(np.arange(start, min(start + SWEEP_CHUNK, total)), shape)
            cols = dict(self.base)
            cols.update((name, ax[i]) for name, ax, i in zip(self.names, self.axes, index))
            done, columns = self.batch(cols)
            yield index, done, columns

    def status(self):
        """The sweep's status from the batched calls alone, without rendering."""
        return "fail" if any((done.stage >= 0).any() for _, done, _ in self.chunks()) else "pass"

    def write(self, fh):
        """Write the rows, comma-separated; return the sweep's status."""
        status, sep = "pass", ""
        for index, done, columns in self.chunks():
            for name, ax, i in zip(self.names, self.axes, index):
                used, inverse = np.unique(i, return_inverse=True)  # each axis value once
                texts = _float_texts(ax[used])
                columns[f"point.{name}"] = (texts[0] if used.size == 1 else
                                            np.array(texts, dtype=object)[inverse])
            failed = done.stage >= 0
            templates = [None, None]  # of pass rows, of error rows
            if not failed.all():
                templates[0] = self._fold(self.passed, columns)
            if failed.any():
                status = "fail"
                columns["note"] = _notes(done, failed)
                templates[1] = self._fold(self.failed, columns)
            for start in range(0, failed.size, SWEEP_SLICE):
                rows = self._rows(templates, columns, failed[start:start + SWEEP_SLICE], start)
                fh.write(sep + ", ".join(rows))
                sep = ", "
        return status

    def _fold(self, template, columns):
        """The template with the text of each of the chunk's scalar columns
        written into its literal parts: a constant is rendered once per
        chunk, not once per row."""
        parts, names, strict = template
        folded, slots = [parts[0]], []
        for name, part in zip(names, parts[1:]):
            column = columns[name]
            if np.ndim(column):
                folded.append(part)
                slots.append(name)
            else:
                text = column if name in self.rendered else _text(column, name not in strict)
                folded[-1] += text + part
        return folded, slots, strict

    def _rows(self, templates, columns, failed, start):
        """The row texts of the slice of draws from ``start`` on, in grid
        order; ``failed`` marks the slice's error rows."""
        count = int(np.count_nonzero(failed))
        if count in (0, failed.size):  # one template fills the slice
            return self._fill(templates[count > 0], columns, slice(start, start + failed.size))
        rows = np.empty(failed.size, dtype=object)
        for template, at in zip(templates, (~failed, failed)):
            index = np.flatnonzero(at)
            rows[index] = np.fromiter(self._fill(template, columns, index + start), object,
                                      index.size)
        return rows.tolist()

    def _fill(self, template, columns, index):
        """The template's rows of the draws ``index``, a slice or an index
        array: each distinct value of a column rendered once, each row
        joined from the template's literal parts and the column texts."""
        parts, names, strict = template
        texts = {}
        for name in set(names):
            values = columns[name][index]
            texts[name] = (values.tolist() if name in self.rendered else
                           _texts(values, name not in strict))
        count = index.stop - index.start if type(index) is slice else index.size
        fields = [itertools.repeat(parts[0], count)]
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
    if task not in _TASKS:
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
    spec = _TASKS[task]
    unknown = sorted((set(base) | set(names)) - {*spec.required, *spec.defaults})
    if unknown:  # a misspelt name would run every point alike
        return _report("sweep", "error",
                       notes=[f"sweep task {task} has no parameter {unknown[0]!r}"])
    given = {**base, **dict(zip(names, axes))}
    needed = list(spec.required)
    # an imaginary draw completes from f_theta_x, a real one from f_theta_y if given
    if task == "solve2d" and ("f_theta_y" not in given or np.any(given.get("f_theta_imag", 0))):
        needed.append("f_theta_x")
    missing = next((name for name in needed if name not in given), None)
    if missing is not None:
        return _report("sweep", "error",
                       notes=[f"sweep task {task} needs {missing!r} in base or grid"])
    base = {**spec.defaults, **base}

    # The rows are streamed, to --out or to stdout alike; with --out,
    # stdout carries the summary report
    report = _report("sweep", None, {"points": total}, {"rows": _Sweep(task, base, names, axes)})
    if not args["out"]:
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


# a negative number, read as an option's value: argparse's own pattern
# misses the exponent form that repr writes (-1e-05)
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _build_parser():
    ap = argparse.ArgumentParser(prog="ncphase")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_task(task):  # a flag per parameter, --f-theta-x for f_theta_x
        spec = _TASKS[task]
        p = sub.add_parser(task, help=spec.help)
        for name in spec.required:
            p.add_argument("--" + name.replace("_", "-"), type=float, required=True)
        for name, default in spec.defaults.items():
            p.add_argument("--" + name.replace("_", "-"), type=float, default=default)

    p = sub.add_parser("check-map", help="verify a map against a deformation target")
    p.add_argument("--map", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--tol", type=tolerance, default=1e-10)

    add_task("solve2d")

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

    add_task("match-field")

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
        sp._negative_number_matcher = _NEGATIVE_NUMBER
    return ap


_HANDLERS = {
    "check-map": _run_check_map,
    "solve3d": _run_solve3d,
    "gen3d": _run_gen3d,
    "simulate": _run_simulate,
    "equivalence": _run_equivalence,
    "sweep": _run_sweep,
    **{task: functools.partial(_run_task, task) for task in _TASKS},
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
            ZeroDivisionError, OverflowError) as err:
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
