"""Command-line front end.

Every subcommand prints a run report (human-readable by default, one
JSON document with --json) and exits 0 on pass, 1 on a tolerance
failure, 2 on usage or input errors.  Every JSON it writes is strict:
a non-finite metric reads null.  Identical inputs produce byte-identical
output; randomness enters only through --seed.
"""
import argparse
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .algebra import map_from_json, params_from_json, verify_deformation
from .nc2d import SingularBranchError, complete_2d_batch
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


# Row builders: the reports of n points at once, one per point.  Each
# column is a scalar or an (n,) array; the single commands are n = 1.


def _solve2d_rows(cols, n):
    done = complete_2d_batch(cols["theta"], cols["eta"], cols["f_theta"], cols["f_eta"],
                             cols.get("f_theta_x"), cols.get("hbar", 1.0),
                             f_theta_y=cols.get("f_theta_y"),
                             f_theta_imag=cols.get("f_theta_imag", 0.0))
    rows = []
    for i, (doc, residual) in enumerate(zip(done.docs(), done.residual_max)):
        err = done.errors.get(i)
        if err is None:
            rows.append(_report("solve2d", "pass", {"residual_max": residual}, doc))
        else:
            rows.append(_report("solve2d", "error", notes=[_error_note(err)]))
    return rows


def _run_solve2d(args):
    return _solve2d_rows(args, 1)[0]


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


def _match_field_rows(cols, n):
    get = cols.get
    match = field_to_deformation_batch(cols["alpha_x"], cols["alpha_y"], cols["beta_x"],
                                       cols["beta_y"], get("e", 1.0), get("c", 1.0),
                                       get("m_p", 1.0), get("f_theta", 0.0), get("hbar", 1.0),
                                       get("theta", 0.0))
    b_z = cols["alpha_y"] - cols["beta_x"]  # of two scalars, a Python number as FieldConfig.b_z
    b_z = [b_z] * n if np.ndim(b_z) == 0 else b_z.tolist()
    rows = []
    columns = zip(match.eta, match.f_eta, match.kx, match.ky, b_z, match.params2d.docs(),
                  match.omega_commutative, match.omega_nc)
    for i, (eta, f_eta, kx, ky, bz, doc, omega_c, omega_nc) in enumerate(columns):
        err = match.errors.get(i)
        if err is not None:
            rows.append(_report("match-field", "error", notes=[_error_note(err)]))
            continue
        payload = {"eta": eta, "f_eta": f_eta, "kx": kx, "ky": ky, "b_z": bz, "params2d": doc}
        metrics = {"eta": eta, "omega_commutative": omega_c, "omega_nc": omega_nc}
        rows.append(_report("match-field", "pass", metrics, payload, [MATCH_PAIRING_NOTE]))
    return rows


def _run_match_field(args):
    return _match_field_rows(args, 1)[0]


def _load_scenario(path):
    with open(path) as fh:
        doc = json.load(fh)
    field = FieldConfig(**doc["field"])
    c = doc.get("coeffs", {})
    coeffs = ClosedFormCoeffs.for_field(
        field, c.get("x1", 0.0), c.get("x2", 0.0), c.get("x3", 0.0), c.get("y3", 0.0)
    )
    params = doc.get("params", {})
    return field, coeffs, params, doc.get("dt"), doc.get("steps")


def _step_count(steps):
    # None selects the default; an explicit count must be at least 1
    if steps is None:
        return DEFAULT_STEPS
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


_SWEEP_TASKS = {"solve2d": _solve2d_rows, "match-field": _match_field_rows}
SWEEP_MAX_POINTS = 1_000_000
# grid points per batched call: large enough that numpy, not dispatch,
# does the work, small enough that memory stays flat up to the 1e6 cap
SWEEP_CHUNK = 8192


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


def _missing_parameter(task, given, imag_values):
    """The first parameter ``task`` needs that neither base nor grid gives."""
    if task == "match-field":
        needed = ["alpha_x", "alpha_y", "beta_x", "beta_y"]
    else:  # an imaginary draw completes from f_theta_x, a real one from f_theta_y if given
        needed = ["theta", "eta", "f_theta", "f_eta"]
        if "f_theta_y" not in given or any(imag_values):
            needed.append("f_theta_x")
    return next((name for name in needed if name not in given), None)


def _run_sweep(args):
    with open(args["config"]) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        return _report("sweep", "error", notes=["a sweep config is a JSON object"])
    task = cfg.get("task")
    if task not in _SWEEP_TASKS:
        return _report("sweep", "error", notes=[f"unknown sweep task {task!r}"])
    grid = cfg.get("grid", {})
    if not 1 <= len(grid) <= 3:
        return _report("sweep", "error", notes=["grid must vary between 1 and 3 parameters"])
    names = sorted(grid)
    total = math.prod(_axis_length(name, grid[name]) for name in names)
    if total > SWEEP_MAX_POINTS:
        return _report("sweep", "error", notes=[f"grid of {total} points exceeds the 1e6 cap"])
    axes = [np.linspace(float(spec["start"]), float(spec["stop"]), int(spec["num"])).tolist()
            if isinstance(spec, dict) else [float(v) for v in spec]
            for spec in (grid[name] for name in names)]
    base = dict(cfg.get("base", {}))
    for name, v in base.items():
        if not _is_number(v):
            return _report("sweep", "error", notes=[f"base value {name!r} is not a number: {v!r}"])
    imag = dict(zip(names, axes)).get("f_theta_imag", [base.get("f_theta_imag", 0.0)])
    missing = _missing_parameter(task, set(base) | set(names), imag)
    if missing is not None:
        return _report("sweep", "error",
                       notes=[f"sweep task {task} needs {missing!r} in base or grid"])

    finite = all(math.isfinite(v) for ax in axes for v in ax)
    points = itertools.product(*axes)  # the last axis varies fastest
    blocks = iter(lambda: list(itertools.islice(points, SWEEP_CHUNK)), [])
    statuses = set()

    def rows_of(block):  # the rows of one chunk of grid points, in grid order
        cols = dict(base)
        cols.update(zip(names, np.array(block).T))
        rows = _SWEEP_TASKS[task](cols, len(block))
        for row, values in zip(rows, block):
            point = dict(zip(names, values))
            row["point"] = point if finite else {k: _finite_or_none(v) for k, v in point.items()}
            statuses.add(row["status"])
        return rows

    if not args.get("out"):
        rows = [row for block in blocks for row in rows_of(block)]
        status = "pass" if statuses == {"pass"} else "fail"
        return _report("sweep", status, {"points": total}, {"rows": rows})

    def document(status):  # the rows document, split where its rows go
        return _dumps(_report("sweep", status, {"points": total}, {"rows": [None]})).split("null")

    # The rows go to the file only, one chunk at a time, each chunk's rows
    # freed once dumped; stdout carries the summary.  Sorted keys put
    # "status" after the rows, so it is written last.
    with open(args["out"], "w") as fh:
        fh.write(document("pass")[0])
        for k, block in enumerate(blocks):
            if k:
                fh.write(", ")
            fh.write(_dumps(rows_of(block))[1:-1])
        status = "pass" if statuses == {"pass"} else "fail"
        fh.write(document(status)[1])
        fh.write("\n")
    return _report("sweep", status, {"points": total})


# ---------------------------------------------------------------------------


def count(text):
    """argparse type of --max-iter: a non-negative whole number."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative count, got {text!r}")
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
    p.add_argument("--samples", type=int, default=64)
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
        report = _HANDLERS[ns.command](args)
        text = _render(report, ns.as_json)
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError, RuntimeError,
            ZeroDivisionError) as err:
        report = _report(ns.command, "error", notes=[f"{type(err).__name__}: {err}"])
        text = _render(report, ns.as_json)
    print(text)
    return EXITS[report["status"]]


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
