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
import sys

import numpy as np

from . import __version__
from .algebra import map_from_json, params_from_json, verify_deformation
from .nc2d import (SingularBranchError, complete_2d, complete_2d_imaginary, params2d_to_doc,
                   residual_2d)
from .nc3d import generate_feasible_3d, params3d_from_json, params3d_to_doc, residual_3d, solve_3d
from .dynamics import (DEFAULT_STEPS, ClosedFormCoeffs, DegenerateFieldError, FieldConfig,
                       NonMatchableError, equivalence_check, field_to_deformation,
                       simulate_matched, trajectory_to_csv)

EXITS = {"pass": 0, "fail": 1, "error": 2}

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


def _run_solve2d(args):
    try:
        if args.get("f_theta_imag"):
            p = complete_2d_imaginary(
                args["theta"], args["eta"],
                complex(args["f_theta"], args["f_theta_imag"]),
                args["f_eta"], args["f_theta_x"], args.get("hbar", 1.0),
            )
        elif args.get("f_theta_y") is not None:
            p = complete_2d(args["theta"], args["eta"], args["f_theta"], args["f_eta"],
                            hbar=args.get("hbar", 1.0), f_theta_y=args["f_theta_y"])
        else:
            p = complete_2d(args["theta"], args["eta"], args["f_theta"], args["f_eta"],
                            args["f_theta_x"], args.get("hbar", 1.0))
    except SingularBranchError as err:
        return _report("solve2d", "error", notes=[f"SingularBranch: {err.kind.value}"])
    payload = params2d_to_doc(p)
    metrics = {"residual_max": float(np.abs(residual_2d(p)).max())}
    return _report("solve2d", "pass", metrics, payload)


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
    field = FieldConfig(
        alpha_x=args["alpha_x"], alpha_y=args["alpha_y"],
        beta_x=args["beta_x"], beta_y=args["beta_y"],
        e=args.get("e", 1.0), c=args.get("c", 1.0), m_p=args.get("m_p", 1.0),
    )
    try:
        match = field_to_deformation(field, args.get("f_theta", 0.0),
                                     args.get("hbar", 1.0), args.get("theta", 0.0))
    except (NonMatchableError, DegenerateFieldError) as err:
        return _report("match-field", "error", notes=[f"{type(err).__name__}: {err}"])
    payload = {
        "eta": match.eta,
        "f_eta": match.f_eta,
        "kx": match.kx,
        "ky": match.ky,
        "b_z": field.b_z,
        "params2d": params2d_to_doc(match.params2d),
    }
    metrics = {
        "eta": match.eta,
        "omega_commutative": match.omega_commutative,
        "omega_nc": match.omega_nc,
    }
    return _report("match-field", "pass", metrics, payload, [MATCH_PAIRING_NOTE])


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
    text = trajectory_to_csv(traj)
    with open(args["out"], "w") as fh:
        fh.write(text)
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


_SWEEP_TASKS = {"solve2d": _run_solve2d, "match-field": _run_match_field}
SWEEP_MAX_POINTS = 1_000_000


def _run_sweep(args):
    with open(args["config"]) as fh:
        cfg = json.load(fh)
    task = cfg.get("task")
    if task not in _SWEEP_TASKS:
        return _report("sweep", "error", notes=[f"unknown sweep task {task!r}"])
    grid = cfg.get("grid", {})
    if not 1 <= len(grid) <= 3:
        return _report("sweep", "error", notes=["grid must vary between 1 and 3 parameters"])
    names = sorted(grid)
    axes = []
    for name in names:
        spec = grid[name]
        if isinstance(spec, dict):
            axes.append(np.linspace(spec["start"], spec["stop"], int(spec["num"])).tolist())
        else:
            axes.append([float(v) for v in spec])
    total = math.prod(map(len, axes))
    if total > SWEEP_MAX_POINTS:
        return _report("sweep", "error", notes=[f"grid of {total} points exceeds the 1e6 cap"])

    base = dict(cfg.get("base", {}))
    finite = all(math.isfinite(v) for ax in axes for v in ax)
    rows = []
    for values in itertools.product(*axes):  # the last axis varies fastest
        point = dict(zip(names, values))
        call = dict(base)
        call.update(point)
        try:
            row = _SWEEP_TASKS[task](call)
        except Exception as err:  # singular points become error rows, sweep continues
            row = _report(task, "error", notes=[f"{type(err).__name__}: {err}"])
        row["point"] = point if finite else {k: _finite_or_none(v) for k, v in point.items()}
        rows.append(row)

    statuses = {row["status"] for row in rows}
    status = "pass" if statuses == {"pass"} else "fail"
    report = _report("sweep", status, {"points": total}, {"rows": rows})
    if not args.get("out"):
        return report
    # the rows go to the file only; stdout carries the summary
    with open(args["out"], "w") as fh:
        fh.write(_dumps(report))
        fh.write("\n")
    report["payload"] = {}
    return report


# ---------------------------------------------------------------------------


def _build_parser():
    ap = argparse.ArgumentParser(prog="ncphase")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-map", help="verify a map against a deformation target")
    p.add_argument("--map", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--tol", type=float, default=1e-10)

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
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=50)
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
    p.add_argument("--tol", type=float, default=1e-8)
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
    sys.exit(run())


if __name__ == "__main__":
    main()
