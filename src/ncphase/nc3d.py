"""The 3D consistency condition: residual, closed-form completion, and a
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

from .algebra import HBAR_MESSAGE, _load_object, _ratio, antisymmetric_3d

FEASIBLE_TOL = 1e-12
# complete3d's class cutoff: every class ratio is of degree 0 in the
# sector scales
CLASS_TOL = 1e-10

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


# the three-component fields of Params3D, in declaration order and in
# the packed order of the module docstring
_VECTORS = ("theta", "eta", "f_theta_diag", "f_theta_off", "f_eta_diag", "f_eta_off")
_PACKED = _VECTORS[2:] + _VECTORS[:2]


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
        for name in _VECTORS:
            v = tuple(float(x) for x in getattr(self, name))
            if len(v) != 3:
                raise ValueError(f"{name} must have three components")
            if not all(math.isfinite(x) for x in v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        hbar = float(self.hbar)
        if not 0.0 < hbar < math.inf:
            raise ValueError(HBAR_MESSAGE)
        object.__setattr__(self, "hbar", hbar)


def pack(p):
    return np.array(p.f_theta_diag + p.f_theta_off + p.f_eta_diag + p.f_eta_off + p.theta + p.eta)


def unpack(x, hbar=1.0):
    parts = np.asarray(x, dtype=float).reshape(6, 3)
    return Params3D(**dict(zip(_PACKED, map(tuple, parts))), hbar=hbar)


# the off-diagonal entries (1,2), (1,3), (2,3), zero-based
_PAIRS = ((0, 1), (0, 2), (1, 2))


def _block_map():
    # m[i] = (dF/dx_i, dG/dx_i) for F = f_theta - theta and
    # G = f_eta - eta over the packed 18-vector of the module docstring.
    # F and G are linear in x, so (F, G) = x @ m.
    m = np.zeros((18, 2, 3, 3))
    for s in (0, 1):
        sym, anti = 6 * s, 12 + 3 * s
        for k in range(3):
            m[sym + k, s, k, k] = 1.0
        for k, (i, j) in enumerate(_PAIRS):
            m[sym + 3 + k, s, i, j] = m[sym + 3 + k, s, j, i] = 1.0
            m[anti + k, s, i, j] = -1.0
            m[anti + k, s, j, i] = 1.0
    return m


_BLOCKS = _block_map()
_BLOCKS_FLAT = _BLOCKS.reshape(18, 18)
_DF = _BLOCKS[:, 0]
_DG = _BLOCKS[:, 1]


def _blocks(x):
    x = np.asarray(x, dtype=float)
    b = (x @ _BLOCKS_FLAT).reshape(x.shape[:-1] + (2, 3, 3))
    return b[..., 0, :, :], b[..., 1, :, :]


def residual3d(x):
    """(f_theta - theta)(f_eta - eta), row-major, for an (18,) or (N, 18)
    packed vector; returns shape (9,) or (N, 9)."""
    F, G = _blocks(x)
    return (F @ G).reshape(F.shape[:-2] + (9,))


def jacobian3d(x):
    """Exact Jacobian of residual3d and the residual itself.

    The residual F G is affine in every single unknown, so column i is
    dF/dx_i G + F dG/dx_i.  Returns (J, r) with J of shape (9, 18) and
    r of shape (9,) for one packed vector, (N, 9, 18) and (N, 9) for N.
    """
    F, G = _blocks(x)
    F1, G1 = F[..., None, :, :], G[..., None, :, :]
    cols = (_DF @ G1 + F1 @ _DG).reshape(F.shape[:-2] + (18, 9))
    return np.swapaxes(cols, -1, -2), (F @ G).reshape(F.shape[:-2] + (9,))


def residual_3d(p):
    """Nine entries of (f_theta - theta)(f_eta - eta), row-major."""
    return residual3d(pack(p))


def residual_scale(p):
    x = pack(p)
    m = float(np.abs(x).max())
    return max(1.0, m * m)


# complete3d's class codes index this tuple
CLASSES_3D = ("Regular", "RankThree", "RankAtMostOne", "Incompatible", "NonFinite")
_DIAG, _OFF = ((0, 1, 2), (0, 1, 2)), tuple(zip(*_PAIRS))


def complete3d(x, lam):
    """Complete the momentum sector of (18,) or (N, 18) packed vectors.

    F G = 0 puts every column of G in ker F.  Where F has rank 2, with n
    the unit vector along the largest cross product of two rows of F,
    G = n w^T.  Its antisymmetric part -eta fixes w x n = b, with
    b = -2 axial(eta) and axial(A) = (A[2,1], A[0,2], A[1,0]); that is
    solvable iff n . b = 0, by w = n x b + lam n.  So f_eta = sym(n w^T)
    is a one-parameter family in lam = n^T f_eta n (a scalar or one per
    vector), which carries the units of the eta sector.

    Returns (x with its f_eta slots completed, each vector's int8 class
    as an index into CLASSES_3D, |det F| / prod(row norms of F) and
    |n . b| / |b|, each ratio reading 0/0 as 0).  The first class that
    holds is taken: NonFinite (a non-finite input); RankThree (det ratio
    > CLASS_TOL: only G = 0 solves, so only eta = 0, with f_eta = 0);
    RankAtMostOne (no cross product above CLASS_TOL times the largest
    product of two row norms: more than one parameter); Incompatible
    (n . b ratio > CLASS_TOL: no f_eta solves); NonFinite (the
    completion overflows); Regular.  Only Regular vectors are completed;
    the others carry NaN f_eta slots.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    e = x[..., 15:18]
    b = 2.0 * np.stack([e[..., 2], -e[..., 1], e[..., 0]], -1)
    with np.errstate(all="ignore"):  # non-finite or overflowing draws are classed below
        F, _ = _blocks(x)
        rows = np.linalg.norm(F, axis=-1)
        cross = np.stack([np.cross(F[..., i, :], F[..., j, :]) for i, j in _PAIRS], -2)
        sizes = np.linalg.norm(cross, axis=-1)
        c = np.take_along_axis(cross, sizes.argmax(-1)[..., None, None], -2)[..., 0, :]
        u = c / np.abs(c).max(-1, keepdims=True)  # keeps n's bits under power-of-two scaling
        n = u / np.linalg.norm(u, axis=-1, keepdims=True)
        w = np.cross(n, b) + lam[..., None] * n
        G = n[..., :, None] * w[..., None, :]
        S = 0.5 * (G + np.swapaxes(G, -1, -2))
        det = np.abs(np.sum(F[..., 0, :] * cross[..., 2, :], -1))
        det_ratio = _ratio(det, rows.prod(-1))
        pairs = np.max([rows[..., i] * rows[..., j] for i, j in _PAIRS], 0)
        rank_ratio = _ratio(sizes.max(-1), pairs)
        compat = _ratio(np.abs(np.sum(n * b, -1)), np.linalg.norm(b, axis=-1))
    f_eta = np.concatenate([S[(..., *_DIAG)], S[(..., *_OFF)]], -1)
    kind = np.select(
        [~(np.isfinite(x).all(-1) & np.isfinite(lam)), det_ratio > CLASS_TOL,
         rank_ratio <= CLASS_TOL, compat > CLASS_TOL, ~np.isfinite(f_eta).all(-1)],
        [CLASSES_3D.index(name) for name in
         ("NonFinite", "RankThree", "RankAtMostOne", "Incompatible", "NonFinite")],
        CLASSES_3D.index("Regular")).astype(np.int8)
    out = x.copy()
    out[..., 6:12] = np.where((kind == CLASSES_3D.index("Regular"))[..., None], f_eta, np.nan)
    return out, kind, det_ratio, compat


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
        F0 = 0.5 * (raw + raw.T) - antisymmetric_3d(rng.normal(size=3))
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
    exact Jacobian from jacobian3d.

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
    r = residual3d(x)
    rnorm = float(np.linalg.norm(r))
    history = [(0, rnorm)] if trace else []

    def result(converged, iterations, message=""):
        r = residual3d(x)
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
        J, r = jacobian3d(x)
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
            rt = residual3d(xt)
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
    return {**{name: list(getattr(p, name)) for name in _VECTORS}, "hbar": p.hbar}


def params3d_to_json(p):
    return json.dumps(params3d_to_doc(p), sort_keys=True)


def params3d_from_json(text):
    doc = _load_object(text, "3D parameter file", _VECTORS + ("hbar",))
    return Params3D(*(tuple(doc[name]) for name in _VECTORS), hbar=float(doc.get("hbar", 1.0)))
