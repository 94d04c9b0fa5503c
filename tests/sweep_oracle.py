"""Reference sweep: the per-point path the batched engine replaced.

A copy of the scalar 2D completion (``classify_singular``,
``complete_2d``, ``complete_2d_imaginary``), of the scalar
``field_to_deformation`` and of the sweep loop that called
``_run_solve2d`` / ``_run_match_field`` once per grid point, as they
were before the engine became batched.  ``sweep_document(cfg)`` gives
the exact text ``sweep --json`` printed for ``cfg`` (without the final
newline), which is also the text of the ``--out`` file; ``render`` gives
the text of a report either way, ``--json`` or not.

Two inputs are outside its scope, because the batched engine answers
them differently on purpose: ``hbar <= 0`` (an input error now) and a
``match-field`` point whose largest matched entry squares past the float
range (an ``OverflowError`` here, the overflow outcome or a pass now).
"""
import cmath
import itertools
import json
import math

import numpy as np

from ncphase.dynamics import DegenerateFieldError, FieldConfig, NonMatchableError
from ncphase.nc2d import Params2D, SingularBranchError, SingularKind

RESIDUAL_TOL = 1e-12
ROUTE_AGREEMENT_RTOL = 1e-12
MATCH_RESIDUAL_TOL = 1e-12
PROPORTIONALITY_RTOL = 1e-12


def _as_scalar(v):
    if isinstance(v, complex) and v.imag == 0.0:
        return v.real
    return v


_INPUT_NAMES = ("theta", "eta", "f_theta", "f_eta", "f_theta_x", "f_theta_y", "hbar")


def _check_finite(values):
    for name, v in zip(_INPUT_NAMES, values):
        if v is not None and not cmath.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def _square(x):
    try:
        return x**2
    except OverflowError:
        raise ValueError("the completion overflows") from None


def classify_singular(theta, eta, f_theta, f_eta, pivot):
    tol = 1e-10 * max(abs(theta), abs(f_theta), 1.0)
    if abs(f_theta - theta) <= tol:
        return SingularKind.F_THETA_PLUS
    if abs(f_theta + theta) <= tol:
        return SingularKind.F_THETA_MINUS
    if abs(f_eta - eta) <= tol:
        return SingularKind.F_ETA_PLUS
    if abs(f_eta + eta) <= tol:
        return SingularKind.F_ETA_MINUS
    if abs(pivot) <= tol:
        return SingularKind.ZERO_PIVOT
    return SingularKind.REGULAR


def residual_2d(p):
    f = p.f_theta
    lower = f.conjugate() if p.imaginary_mode else f
    sign = -1
    Bm = np.array([[p.f_theta_x, f + sign * p.theta], [lower - sign * p.theta, p.f_theta_y]])
    Gm = np.array([[p.f_eta_x, p.f_eta + sign * p.eta], [p.f_eta - sign * p.eta, p.f_eta_y]])
    R = (Bm @ Gm).reshape(-1)
    if p.imaginary_mode:
        return np.abs(R)
    return R.real if np.iscomplexobj(R) else R


def _residual_scale(p):
    vals = [p.theta, p.eta, p.f_theta, p.f_eta, p.f_theta_x, p.f_theta_y, p.f_eta_x, p.f_eta_y]
    m = max(abs(v) for v in vals)
    return m * m


def complete_2d(theta, eta, f_theta, f_eta, f_theta_x=None, hbar=1.0, *, f_theta_y=None):
    if (f_theta_x is None) == (f_theta_y is None):
        raise ValueError("exactly one of f_theta_x, f_theta_y must be given")
    _check_finite((theta, eta, f_theta, f_eta, f_theta_x, f_theta_y, hbar))
    pivot = f_theta_x if f_theta_x is not None else f_theta_y
    kind = classify_singular(theta, eta, f_theta, f_eta, pivot)
    if kind is not SingularKind.REGULAR:
        raise SingularBranchError(kind)

    minus = f_theta - theta
    plus = f_theta + theta
    if f_theta_x is not None:
        f_theta_y = (_square(f_theta) - _square(theta)) / f_theta_x
        f_eta_y = -((f_eta - eta) / minus) * f_theta_x
        route_a = -((f_eta + eta) / plus) * f_theta_y
        route_b = -minus * (f_eta + eta) / f_theta_x
        f_eta_x = route_b
    else:
        f_theta_x = (_square(f_theta) - _square(theta)) / f_theta_y
        f_eta_x = -((f_eta + eta) / plus) * f_theta_y
        route_a = -((f_eta - eta) / minus) * f_theta_x
        route_b = -plus * (f_eta - eta) / f_theta_y
        f_eta_y = route_b
    gap = abs(route_a - route_b)
    if gap > ROUTE_AGREEMENT_RTOL * max(1.0, abs(route_a), abs(route_b)):
        raise RuntimeError(f"pivot routes disagree by {gap:.3e}")

    p = Params2D(
        theta=float(theta), eta=float(eta), f_theta=_as_scalar(f_theta), f_eta=float(f_eta),
        f_theta_x=_as_scalar(f_theta_x), f_theta_y=_as_scalar(f_theta_y),
        f_eta_x=_as_scalar(f_eta_x), f_eta_y=_as_scalar(f_eta_y), hbar=float(hbar),
    )
    scale = max(1.0, _residual_scale(p))
    worst = float(np.abs(residual_2d(p)).max())
    if not math.isfinite(worst):
        raise ValueError("the completion overflows")
    if worst > RESIDUAL_TOL * scale:
        raise RuntimeError(f"completion residual {worst:.3e} exceeds tolerance")
    return p


def complete_2d_imaginary(theta, eta, f_theta, f_eta, f_theta_x, hbar=1.0):
    _check_finite((theta, eta, f_theta, f_eta, f_theta_x, None, hbar))
    f_theta = complex(f_theta)
    if f_theta.imag == 0.0:
        return complete_2d(theta, eta, f_theta.real, f_eta, f_theta_x, hbar)

    kind = classify_singular(theta, eta, f_theta, f_eta, f_theta_x)
    if kind is not SingularKind.REGULAR:
        raise SingularBranchError(kind)

    minus = f_theta - theta
    f_theta_y = (f_theta * f_theta.conjugate() - _square(theta)).real / f_theta_x
    f_eta_y = -((f_eta - eta) / minus) * f_theta_x
    f_eta_x = -minus * (f_eta + eta) / f_theta_x
    if not all(map(cmath.isfinite, (f_theta_y, f_eta_x, f_eta_y))):
        raise ValueError("the completion overflows")
    return Params2D(
        theta=float(theta), eta=float(eta), f_theta=f_theta, f_eta=float(f_eta),
        f_theta_x=float(f_theta_x), f_theta_y=float(f_theta_y),
        f_eta_x=_as_scalar(f_eta_x), f_eta_y=_as_scalar(f_eta_y), hbar=float(hbar),
        imaginary_mode=True,
    )


def field_to_deformation(field, f_theta, hbar=1.0, theta=0.0):
    """(payload, metrics) of a matched field, raising as the scalar match did."""
    if not all(map(math.isfinite, (f_theta, hbar, theta))):
        raise ValueError(f"f_theta, hbar and theta must be finite, got {(f_theta, hbar, theta)!r}")
    k = field.e / field.c
    ax, ay, bx, by = field.alpha_x, field.alpha_y, field.beta_x, field.beta_y
    if ax == ay == bx == by == 0.0:
        eta = 0.0
        f_eta = 0.0
        kx = ky = 0.0
    else:
        if bx == 0.0 or ay == 0.0:
            raise DegenerateFieldError(
                "beta_x or alpha_y is zero; use the single-constant time-law branch"
            )
        cross = by * ax - ay * bx
        scale = max(abs(v) for v in (ax, ay, bx, by, 1.0))
        if not abs(cross) <= PROPORTIONALITY_RTOL * scale * scale:
            raise NonMatchableError(
                "gauge rows not proportional: beta_y/beta_x != alpha_y/alpha_x"
            )
        eta = hbar * k * field.b_z
        f_eta = -hbar * k * (ay + bx)
        kx = -by / ay
        ky = -ax / bx

    f_theta_x = kx * (f_theta - theta)
    f_theta_y = ky * (f_theta + theta)
    f_eta_x = (ax / bx) * (f_eta + eta) if bx else 0.0
    f_eta_y = (by / ay) * (f_eta - eta) if ay else 0.0
    p = Params2D(
        theta=float(theta), eta=float(eta), f_theta=float(f_theta), f_eta=float(f_eta),
        f_theta_x=float(f_theta_x), f_theta_y=float(f_theta_y), f_eta_x=float(f_eta_x),
        f_eta_y=float(f_eta_y), hbar=float(hbar),
    )
    vals = [abs(getattr(p, n)) for n in
            ("theta", "eta", "f_theta", "f_eta", "f_theta_x", "f_theta_y", "f_eta_x", "f_eta_y")]
    scale = max(1.0, max(vals) ** 2)
    worst = float(np.abs(residual_2d(p)).max())
    if not math.isfinite(worst):
        raise ValueError("the matched parameters overflow")
    if worst > MATCH_RESIDUAL_TOL * scale:
        raise RuntimeError(f"matched parameters violate the consistency product: {worst:.3e}")
    omega_c = field.omega
    omega_nc = eta / (field.m_p * hbar)
    payload = {"eta": float(eta), "f_eta": float(f_eta), "kx": float(kx), "ky": float(ky),
               "b_z": field.b_z, "params2d": params2d_to_doc(p)}
    metrics = {"eta": float(eta), "omega_commutative": float(omega_c),
               "omega_nc": float(omega_nc)}
    return payload, metrics


def _encode(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v


_FIELDS = ("theta", "eta", "f_theta", "f_eta", "f_theta_x", "f_theta_y", "f_eta_x", "f_eta_y")


def params2d_to_doc(p):
    doc = {name: _encode(getattr(p, name)) for name in _FIELDS}
    doc["hbar"] = p.hbar
    doc["imaginary_mode"] = p.imaginary_mode
    return doc


MATCH_PAIRING_NOTE = (
    "gauge-ratio pairing: f_theta_x = -(beta_y/alpha_y)*(f_theta - theta) and "
    "f_theta_y = -(alpha_x/beta_x)*(f_theta + theta); fixed by the consistency "
    "product, which rejects the swapped pairing"
)


def _finite_or_none(v):
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _report(command, status, metrics=None, payload=None, notes=None):
    return {
        "command": command,
        "status": status,
        "metrics": {k: _finite_or_none(v) for k, v in (metrics or {}).items()},
        "payload": payload or {},
        "errata_notes": list(notes or []),
    }


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
    metrics = {"residual_max": float(np.abs(residual_2d(p)).max())}
    return _report("solve2d", "pass", metrics, params2d_to_doc(p))


def _run_match_field(args):
    field = FieldConfig(
        alpha_x=args["alpha_x"], alpha_y=args["alpha_y"],
        beta_x=args["beta_x"], beta_y=args["beta_y"],
        e=args.get("e", 1.0), c=args.get("c", 1.0), m_p=args.get("m_p", 1.0),
    )
    try:
        payload, metrics = field_to_deformation(field, args.get("f_theta", 0.0),
                                                args.get("hbar", 1.0), args.get("theta", 0.0))
    except (NonMatchableError, DegenerateFieldError) as err:
        return _report("match-field", "error", notes=[f"{type(err).__name__}: {err}"])
    return _report("match-field", "pass", metrics, payload, [MATCH_PAIRING_NOTE])


TASKS = {"solve2d": _run_solve2d, "match-field": _run_match_field}


def sweep_report(cfg):
    """The report of a valid sweep config, rows and all; for a grid with an
    empty axis, the input-error report printed instead."""
    grid = cfg["grid"]
    names = sorted(grid)
    axes = []
    for name in names:
        spec = grid[name]
        if isinstance(spec, dict):
            axes.append(np.linspace(spec["start"], spec["stop"], int(spec["num"])).tolist())
        else:
            axes.append([float(v) for v in spec])
    empty = next((name for name, ax in zip(names, axes) if not ax), None)
    if empty is not None:
        return _report("sweep", "error", notes=[f"ValueError: grid {empty!r} has no points"])
    base = dict(cfg.get("base", {}))
    finite = all(math.isfinite(v) for ax in axes for v in ax)
    rows = []
    for values in itertools.product(*axes):
        point = dict(zip(names, values))
        call = dict(base)
        call.update(point)
        try:
            row = TASKS[cfg["task"]](call)
        except Exception as err:
            row = _report(cfg["task"], "error", notes=[f"{type(err).__name__}: {err}"])
        row["point"] = point if finite else {k: _finite_or_none(v) for k, v in point.items()}
        rows.append(row)
    status = "pass" if {row["status"] for row in rows} == {"pass"} else "fail"
    return _report("sweep", status, {"points": math.prod(map(len, axes))}, {"rows": rows})


def render(report, as_json):
    """The text the CLI printed for ``report``, without the final newline."""
    if as_json:
        return json.dumps(report, sort_keys=True, allow_nan=False)
    lines = [f"command: {report['command']}", f"status: {report['status']}"]
    lines += [f"{k} = {report['metrics'][k]!r}" for k in sorted(report["metrics"])]
    lines += [f"note: {note}" for note in report["errata_notes"]]
    if report["payload"]:
        lines.append(json.dumps(report["payload"], sort_keys=True, allow_nan=False))
    return "\n".join(lines)


def sweep_document(cfg):
    """The text ``sweep --json`` printed for ``cfg``, without the final newline."""
    return render(sweep_report(cfg), True)
