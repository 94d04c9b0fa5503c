"""The 3D consistency condition: residual, elimination identities, and a
damped Newton solver.

The unknowns are packed as an 18-vector in the fixed order

    (f_tx, f_ty, f_tz, f_t1, f_t2, f_t3,
     f_ex, f_ey, f_ez, f_e1, f_e2, f_e3,
     t1, t2, t3, e1, e2, e3)

with t* the position-sector antisymmetric components, e* the
momentum-sector ones, f_t*/f_e* the symmetric corrections (diagonal
x, y, z then off-diagonal 1 = (1,2), 2 = (1,3), 3 = (2,3)).  The residual
is the 3x3 product (f_theta - theta)(f_eta - eta), row-major.
"""
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import backend

FEASIBLE_TOL = 1e-12
GAP_TOL = 1e-10

UNKNOWN_NAMES = (
    "f_theta_x", "f_theta_y", "f_theta_z",
    "f_theta_1", "f_theta_2", "f_theta_3",
    "f_eta_x", "f_eta_y", "f_eta_z",
    "f_eta_1", "f_eta_2", "f_eta_3",
    "theta_1", "theta_2", "theta_3",
    "eta_1", "eta_2", "eta_3",
)

_GROUPS = {
    "f_theta_diag": range(0, 3),
    "f_theta_off": range(3, 6),
    "f_theta": range(0, 6),
    "f_eta_diag": range(6, 9),
    "f_eta_off": range(9, 12),
    "f_eta": range(6, 12),
    "f": range(0, 12),
    "theta": range(12, 15),
    "eta": range(15, 18),
}


class DegenerateDenominatorError(ValueError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"degenerate denominator: {name}")


@dataclass(frozen=True)
class Params3D:
    theta: tuple
    eta: tuple
    f_theta_diag: tuple
    f_theta_off: tuple
    f_eta_diag: tuple
    f_eta_off: tuple
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("theta", "eta", "f_theta_diag", "f_theta_off", "f_eta_diag", "f_eta_off"):
            v = tuple(float(x) for x in getattr(self, name))
            if len(v) != 3:
                raise ValueError(f"{name} must have three components")
            if not all(math.isfinite(x) for x in v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        hbar = float(self.hbar)
        if not math.isfinite(hbar):
            raise ValueError(f"hbar must be finite, got {hbar!r}")
        object.__setattr__(self, "hbar", hbar)


def pack(p):
    return np.array(
        p.f_theta_diag + p.f_theta_off + p.f_eta_diag + p.f_eta_off + p.theta + p.eta
    )


def unpack(x, hbar=1.0):
    x = np.asarray(x, dtype=float)
    return Params3D(
        theta=tuple(x[12:15]),
        eta=tuple(x[15:18]),
        f_theta_diag=tuple(x[0:3]),
        f_theta_off=tuple(x[3:6]),
        f_eta_diag=tuple(x[6:9]),
        f_eta_off=tuple(x[9:12]),
        hbar=hbar,
    )


def _antisym(triple):
    c1, c2, c3 = triple
    return np.array([[0.0, c1, c2], [-c1, 0.0, c3], [-c2, -c3, 0.0]])


def _sym(diag, off):
    d1, d2, d3 = diag
    o1, o2, o3 = off
    return np.array([[d1, o1, o2], [o1, d2, o3], [o2, o3, d3]])


def theta_matrix(p):
    return _antisym(p.theta)


def eta_matrix(p):
    return _antisym(p.eta)


def f_theta_matrix(p):
    return _sym(p.f_theta_diag, p.f_theta_off)


def f_eta_matrix(p):
    return _sym(p.f_eta_diag, p.f_eta_off)


def residual_3d(p):
    """Nine entries of (f_theta - theta)(f_eta - eta), row-major."""
    return backend.residual3d(pack(p))


def residual_scale(p):
    x = pack(p)
    m = float(np.abs(x).max())
    return max(1.0, m * m)


@dataclass(frozen=True)
class AuxQuantities3D:
    """Intermediate quantities of the entrywise residual expansion."""

    mu: tuple            # (mu_1, mu_2, mu_3)
    mu_pairs: tuple      # (mu_12, mu_13, mu_23)
    vartheta: dict       # keys "12","13","21","23","31","32"
    theta_eta: tuple     # ((te)_12, (te)_13, (te)_23)
    f_products: tuple    # ((ff)_12, (ff)_13, (ff)_23)
    w: dict              # keys "12","13","21","23","31","32"
    w_prime: tuple       # (w'_12, w'_13, w'_23)


def aux_quantities(p):
    t1, t2, t3 = p.theta
    e1, e2, e3 = p.eta
    ft1, ft2, ft3 = p.f_theta_off
    fe1, fe2, fe3 = p.f_eta_off

    mu1 = t1 * fe1 - e1 * ft1
    mu2 = t2 * fe2 - e2 * ft2
    mu3 = t3 * fe3 - e3 * ft3
    mu_pairs = (mu1 + mu2, mu3 - mu1, -mu3 - mu2)

    vt = {
        "12": t1 * fe2 - e2 * ft1,
        "13": t1 * fe3 + e3 * ft1,
        "21": t2 * fe1 - e1 * ft2,
        "23": t2 * fe3 - e3 * ft2,
        "31": t3 * fe1 + e1 * ft3,
        "32": t3 * fe2 - e2 * ft3,
    }
    te = (t1 * e1 + t2 * e2, t1 * e1 + t3 * e3, t2 * e2 + t3 * e3)
    ff = (ft1 * fe1 + ft2 * fe2, ft1 * fe1 + ft3 * fe3, ft2 * fe2 + ft3 * fe3)

    w = {
        "23": t2 * e3 + vt["23"] - ft2 * fe3,
        "32": t3 * e2 + vt["32"] - ft3 * fe2,
        "13": -t1 * e3 + vt["13"] - ft1 * fe3,
        "31": -t3 * e1 - vt["31"] - ft3 * fe1,
        "12": t1 * e2 - vt["12"] - ft1 * fe2,
        "21": t2 * e1 - vt["21"] - ft2 * fe1,
    }
    w_prime = (
        te[0] - ff[0] + mu_pairs[0],
        te[1] - ff[1] + mu_pairs[1],
        te[2] - ff[2] + mu_pairs[2],
    )
    return AuxQuantities3D(
        mu=(mu1, mu2, mu3),
        mu_pairs=mu_pairs,
        vartheta=vt,
        theta_eta=te,
        f_products=ff,
        w=w,
        w_prime=w_prime,
    )


def residual_3d_from_aux(p):
    """Residual assembled from the aux quantities instead of the direct
    product; used to cross-validate the entrywise expansion."""
    a = aux_quantities(p)
    t1, t2, t3 = p.theta
    e1, e2, e3 = p.eta
    ftx, fty, ftz = p.f_theta_diag
    ft1, ft2, ft3 = p.f_theta_off
    fex, fey, fez = p.f_eta_diag
    fe1, fe2, fe3 = p.f_eta_off
    return np.array(
        [
            ftx * fex - a.w_prime[0],
            ftx * (fe1 - e1) + fey * (ft1 - t1) - a.w["23"],
            ftx * (fe2 - e2) + fez * (ft2 - t2) - a.w["13"],
            fty * (fe1 + e1) + fex * (ft1 + t1) - a.w["32"],
            fty * fey - a.w_prime[1],
            fty * (fe3 - e3) + fez * (ft3 - t3) - a.w["12"],
            ftz * (fe2 + e2) + fex * (ft2 + t2) - a.w["31"],
            ftz * (fe3 + e3) + fey * (ft3 + t3) - a.w["21"],
            ftz * fez - a.w_prime[2],
        ]
    )


@dataclass(frozen=True)
class EliminationResult:
    """Three-route expressions for each momentum-sector diagonal entry."""

    estimates: dict      # name -> (route1, route2, route3)
    stored: dict         # name -> value carried by the instance
    max_gap: float       # worst relative gap, routes vs each other and stored

    @property
    def consistent(self):
        return self.max_gap <= GAP_TOL


def eliminate_3d(p, tol=None):
    """Evaluate the elimination identities for f_eta_x, f_eta_y, f_eta_z.

    Each diagonal entry has three equivalent expressions in the
    remaining unknowns; their mutual gaps (and the gap to the stored
    value) vanish exactly on feasible instances.  Degenerate
    denominators raise, naming the offending quantity.
    """
    t1, t2, t3 = p.theta
    e1, e2, e3 = p.eta
    ftx, fty, ftz = p.f_theta_diag
    ft1, ft2, ft3 = p.f_theta_off
    fe1, fe2, fe3 = p.f_eta_off
    if tol is None:
        scale = max(1.0, max(abs(v) for v in pack(p)))
        tol = 1e-10 * scale

    denoms = {
        "f_theta_1 + theta_1": ft1 + t1,
        "f_theta_1 - theta_1": ft1 - t1,
        "f_theta_2 + theta_2": ft2 + t2,
        "f_theta_2 - theta_2": ft2 - t2,
        "f_theta_3 + theta_3": ft3 + t3,
        "f_theta_3 - theta_3": ft3 - t3,
        "f_theta_x": ftx,
        "f_theta_y": fty,
        "f_theta_z": ftz,
    }
    for name, val in denoms.items():
        if abs(val) <= tol:
            raise DegenerateDenominatorError(name)

    a = aux_quantities(p)
    w, wp = a.w, a.w_prime
    estimates = {
        "f_eta_x": (
            (w["32"] - (fe1 + e1) * fty) / (ft1 + t1),
            (w["31"] - (fe2 + e2) * ftz) / (ft2 + t2),
            wp[0] / ftx,
        ),
        "f_eta_y": (
            (w["23"] - (fe1 - e1) * ftx) / (ft1 - t1),
            (w["21"] - (fe3 + e3) * ftz) / (ft3 + t3),
            wp[1] / fty,
        ),
        "f_eta_z": (
            (w["13"] - (fe2 - e2) * ftx) / (ft2 - t2),
            (w["12"] - (fe3 - e3) * fty) / (ft3 - t3),
            wp[2] / ftz,
        ),
    }
    stored = dict(zip(("f_eta_x", "f_eta_y", "f_eta_z"), p.f_eta_diag))
    max_gap = 0.0
    for name, routes in estimates.items():
        vals = list(routes) + [stored[name]]
        span = max(vals) - min(vals)
        scale = max(1.0, max(abs(v) for v in vals))
        max_gap = max(max_gap, span / scale)
    return EliminationResult(estimates=estimates, stored=stored, max_gap=float(max_gap))


def generate_feasible_3d(seed, hbar=1.0, force_zero_c=False):
    """Draw a random exactly-feasible instance.

    The position-sector block f_theta - theta is reduced to rank <= 2 by
    zeroing its smallest singular value; the momentum-sector block is a
    rank-one matrix whose columns lie in the null space, so the product
    vanishes identically.  With force_zero_c the momentum sector is zero
    and any position sector is feasible.
    """
    rng = np.random.default_rng(seed)
    for _ in range(100):
        raw = rng.normal(size=(3, 3))
        F0 = 0.5 * (raw + raw.T) - _antisym(rng.normal(size=3))
        if force_zero_c:
            F1 = F0
            G = np.zeros((3, 3))
        else:
            U, sv, Vt = np.linalg.svd(F0)
            sv[2] = 0.0
            F1 = (U * sv) @ Vt
            G = np.outer(Vt[2], rng.normal(size=3))
        f_theta = 0.5 * (F1 + F1.T)
        theta_m = 0.5 * (F1.T - F1)
        f_eta = 0.5 * (G + G.T)
        eta_m = 0.5 * (G.T - G)
        p = Params3D(
            theta=(theta_m[0, 1], theta_m[0, 2], theta_m[1, 2]),
            eta=(eta_m[0, 1], eta_m[0, 2], eta_m[1, 2]),
            f_theta_diag=tuple(np.diag(f_theta)),
            f_theta_off=(f_theta[0, 1], f_theta[0, 2], f_theta[1, 2]),
            f_eta_diag=tuple(np.diag(f_eta)),
            f_eta_off=(f_eta[0, 1], f_eta[0, 2], f_eta[1, 2]),
            hbar=hbar,
        )
        if np.abs(residual_3d(p)).max() <= FEASIBLE_TOL * residual_scale(p):
            return p
    raise RuntimeError("no feasible draw within 100 attempts")


def frozen_mask(spec):
    """Boolean mask over the 18 unknowns from names, groups, or a mask."""
    mask = np.zeros(18, dtype=bool)
    if spec is None:
        return mask
    if isinstance(spec, np.ndarray) or (
        isinstance(spec, (list, tuple)) and spec and isinstance(spec[0], (bool, np.bool_))
    ):
        mask[:] = np.asarray(spec, dtype=bool)
        return mask
    for token in spec:
        token = token.strip()
        if token in _GROUPS:
            for i in _GROUPS[token]:
                mask[i] = True
        elif token in UNKNOWN_NAMES:
            mask[UNKNOWN_NAMES.index(token)] = True
        else:
            raise ValueError(f"unknown unknown-name {token!r}")
    return mask


@dataclass
class SolveResult:
    params: Params3D
    converged: bool
    residual_max: float
    residual_norm: float
    iterations: int
    message: str = ""
    history: list = field(default_factory=list)


MAX_HALVINGS = 30
DAMPING_FLOOR = 1e-8
DAMPING_CEIL = 1e4


def solve_3d(p0, frozen=None, tol=1e-10, max_iter=50, trace=False):
    """Damped Newton iteration on the nine residual equations, with the
    exact Jacobian from backend.jacobian3d.

    Frozen unknowns are held at their p0 values.  Steps come from the
    normal equations with a Levenberg damping ladder for singular
    Jacobians, then backtracking halving until the residual 2-norm
    decreases; accepted iterates never increase it.  Returns a
    SolveResult; non-convergence is a result, not an exception, and
    carries the best iterate seen.
    """
    mask = frozen_mask(frozen)
    free = np.where(~mask)[0]
    x = pack(p0)
    r = backend.residual3d(x)
    rnorm = float(np.linalg.norm(r))
    history = [(0, rnorm)] if trace else []

    def result(converged, iterations, message=""):
        r = backend.residual3d(x)
        return SolveResult(
            params=unpack(x, p0.hbar),
            converged=converged,
            residual_max=float(np.abs(r).max()),
            residual_norm=float(np.linalg.norm(r)),
            iterations=iterations,
            message=message,
            history=history,
        )

    if np.abs(r).max() <= tol:
        return result(True, 0)
    if free.size == 0:
        return result(False, 0, "all unknowns frozen; residual floor cannot move")

    for it in range(1, max_iter + 1):
        J, r = backend.jacobian3d(x)
        J = J[:, free]
        jnorm = float(np.linalg.norm(J))
        if jnorm == 0.0:
            return result(False, it - 1, "vanishing Jacobian; the frozen pattern may be infeasible")
        if not math.isfinite(jnorm):
            return result(False, it - 1, "non-finite Jacobian; the instance overflows")
        JtJ = J.T @ J
        Jtr = J.T @ r
        lam = 0.0
        delta = None
        while True:
            try:
                delta = np.linalg.solve(JtJ + lam * np.eye(free.size), -Jtr)
                if np.all(np.isfinite(delta)):
                    break
            except np.linalg.LinAlgError:
                pass
            lam = DAMPING_FLOOR * jnorm if lam == 0.0 else lam * 10.0
            if not math.isfinite(lam) or lam > DAMPING_CEIL * jnorm:
                return result(
                    False, it - 1,
                    "damping ladder exhausted; the frozen pattern may be infeasible",
                )
        step = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            xt = x.copy()
            xt[free] += step * delta
            rt = backend.residual3d(xt)
            rtnorm = float(np.linalg.norm(rt))
            if rtnorm < rnorm:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return result(
                False, it - 1,
                "no descent step found; the frozen pattern may be infeasible",
            )
        x, rnorm = xt, rtnorm
        if trace:
            history.append((it, rnorm))
        if np.abs(rt).max() <= tol:
            return result(True, it)
    return result(False, max_iter, "iteration limit reached")


def params3d_to_doc(p):
    """The JSON document of ``p`` as a dict of lists and floats."""
    return {
        "theta": list(p.theta),
        "eta": list(p.eta),
        "f_theta_diag": list(p.f_theta_diag),
        "f_theta_off": list(p.f_theta_off),
        "f_eta_diag": list(p.f_eta_diag),
        "f_eta_off": list(p.f_eta_off),
        "hbar": p.hbar,
    }


def params3d_to_json(p):
    return json.dumps(params3d_to_doc(p), sort_keys=True)


def params3d_from_json(text):
    doc = json.loads(text)
    return Params3D(
        theta=tuple(doc["theta"]),
        eta=tuple(doc["eta"]),
        f_theta_diag=tuple(doc["f_theta_diag"]),
        f_theta_off=tuple(doc["f_theta_off"]),
        f_eta_diag=tuple(doc["f_eta_diag"]),
        f_eta_off=tuple(doc["f_eta_off"]),
        hbar=float(doc.get("hbar", 1.0)),
    )
