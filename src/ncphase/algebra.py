"""Linear phase-space maps and deformed canonical brackets.

A map z -> M z with block form M = [[A, B], [C, D]] sends canonical
operators (x, p) with [x_i, p_j] = i*hbar*delta_ij to new operators
(xhat, phat).  The induced brackets are read off three block products:

    [xhat_i, xhat_j] = i * hbar * (A B^T - B A^T)_ij
    [phat_i, phat_j] = i * hbar * (C D^T - D C^T)_ij
    [xhat_i, phat_j] = i * hbar * (A D^T - B C^T)_ij

A deformation target prescribes antisymmetric matrices theta (position
sector) and eta (momentum sector) together with the undeformed
cross-bracket hbar*I.  Everything here is plain dense numpy; instances
are immutable value objects.
"""
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

# Experimental upper bounds quoted for the deformation scales, kept as
# named reference constants only.  Units are the published ones
# (length^2 for the position sector; the momentum-sector figure is
# quoted in m^2/s^2 and is not converted here).
THETA_UPPER_BOUND = 4e-40
ETA_UPPER_BOUND = 1.76e-61

# Condition-number cutoff above which a map is treated as numerically
# singular rather than inverted.
COND_CUTOFF = 1e12

HBAR_MESSAGE = "hbar must be positive and finite"


class NonAntisymmetricInputError(ValueError):
    """Raised when a matrix that must satisfy m = -m^T does not."""


class DimensionMismatchError(ValueError):
    """Raised when block shapes or dims disagree."""


class SingularMapError(ValueError):
    """Raised when a map cannot be inverted reliably."""


def antisymmetric_2d(scale):
    """Return scale * [[0, 1], [-1, 0]]."""
    return np.array([[0.0, scale], [-scale, 0.0]])


def antisymmetric_3d(triple):
    """Antisymmetric 3x3 from components (c1, c2, c3).

    Placement: c1 at (1,2), c2 at (1,3), c3 at (2,3), signs from
    antisymmetry.
    """
    c1, c2, c3 = (float(v) for v in triple)
    return np.array(
        [
            [0.0, c1, c2],
            [-c1, 0.0, c3],
            [-c2, -c3, 0.0],
        ]
    )


def _frozen_array(a, shape=None):
    out = np.array(a, dtype=float)
    if shape is not None and out.shape != shape:
        raise DimensionMismatchError(f"expected shape {shape}, got {out.shape}")
    out.setflags(write=False)
    return out


def _require_finite(m, name):
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must be finite")


def _require_antisymmetric(m, name):
    if not np.array_equal(m, -m.T):
        raise NonAntisymmetricInputError(f"{name} must satisfy m = -m^T exactly")


def _require_symmetric(m, name):
    if not np.array_equal(m, m.T):
        raise ValueError(f"{name} must satisfy m = m^T exactly")


@dataclass(frozen=True)
class DeformationParams:
    """Deformation target: antisymmetric theta, eta and the scale hbar.

    Non-finite entries or hbar raise ValueError.
    """

    dim: int
    theta: np.ndarray
    eta: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatchError("dim must be >= 1")
        if not 0 < self.hbar < np.inf:
            raise ValueError(HBAR_MESSAGE)
        theta = _frozen_array(self.theta, (self.dim, self.dim))
        eta = _frozen_array(self.eta, (self.dim, self.dim))
        _require_finite(theta, "theta")
        _require_finite(eta, "eta")
        _require_antisymmetric(theta, "theta")
        _require_antisymmetric(eta, "eta")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "eta", eta)

    @classmethod
    def isotropic_2d(cls, theta, eta, hbar=1.0):
        """2D params from scalar strengths."""
        return cls(2, antisymmetric_2d(theta), antisymmetric_2d(eta), hbar)

    @classmethod
    def from_triples_3d(cls, theta_triple, eta_triple, hbar=1.0):
        """3D params from component triples."""
        return cls(3, antisymmetric_3d(theta_triple), antisymmetric_3d(eta_triple), hbar)

    @classmethod
    def commutative(cls, dim, hbar=1.0):
        z = np.zeros((dim, dim))
        return cls(dim, z, z.copy(), hbar)


@dataclass(frozen=True)
class PhaseSpaceMap:
    """Block-linear map [[A, B], [C, D]] acting on (x, p).

    Non-finite entries raise ValueError.
    """

    dim: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        shape = (self.dim, self.dim)
        for name in ("A", "B", "C", "D"):
            block = _frozen_array(getattr(self, name), shape)
            _require_finite(block, name)
            object.__setattr__(self, name, block)

    @property
    def matrix(self):
        """The assembled 2d x 2d matrix."""
        return np.block([[self.A, self.B], [self.C, self.D]])

    def apply(self, z):
        """Apply the map to a phase-space point (x_1..x_d, p_1..p_d)."""
        z = np.asarray(z, dtype=float)
        if z.shape[-1] != 2 * self.dim:
            raise DimensionMismatchError("state length must be 2*dim")
        return z @ self.matrix.T


@dataclass(frozen=True)
class BracketTable:
    """Induced bracket coefficient matrices of a map."""

    xx: np.ndarray
    pp: np.ndarray
    xp: np.ndarray


@dataclass(frozen=True)
class ResidualReport:
    """Max-entry deviations of a map's brackets from a deformation target,
    and per sector the largest entry of |deviation| / scale, each entry
    against its own rounding scale (0/0 reads 0, x/0 reads inf)."""

    max_abs_xx: float
    max_abs_pp: float
    max_abs_xp: float
    tol: float
    ratio_xx: float
    ratio_pp: float
    ratio_xp: float

    @property
    def passed(self):
        """Each deviation is finite and each entry at most tol times its
        scale; a zero scale demands a zero deviation."""
        sectors = ((self.max_abs_xx, self.ratio_xx), (self.max_abs_pp, self.ratio_pp),
                   (self.max_abs_xp, self.ratio_xp))
        return all(math.isfinite(dev) and ratio <= self.tol for dev, ratio in sectors)


def symplectic_form(dim):
    """J = [[0, I], [-I, 0]] of size 2*dim."""
    J = np.zeros((2 * dim, 2 * dim))
    J[:dim, dim:] = np.eye(dim)
    J[dim:, :dim] = -np.eye(dim)
    return J


def _ratio(dev, scale):
    """dev / scale elementwise, reading 0/0 as 0 and x/0 as inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(scale > 0.0, dev / scale, np.where(dev == 0.0, 0.0, np.inf))


def _max_ratio(dev, scale):
    """Largest entry of _ratio(dev, scale); a NaN entry makes it NaN."""
    return float(_ratio(dev, scale).max())


def _bracket_scales(m, hbar):
    """The componentwise rounding scales (Higham, ch. 3) of the xx, pp and
    xp brackets, elementwise: hbar (|A||B|^T + |B||A|^T),
    hbar (|C||D|^T + |D||C|^T) and hbar (|A||D|^T + |B||C|^T)."""
    A, B, C, D = (np.abs(block) for block in (m.A, m.B, m.C, m.D))
    return hbar * (A @ B.T + B @ A.T), hbar * (C @ D.T + D @ C.T), hbar * (A @ D.T + B @ C.T)


def bracket_table(m, hbar=1.0):
    """Bracket coefficient matrices induced by a map.

    Computed twice, from the block formulas and from hbar * M J M^T, and
    cross-checked entry by entry: each gap must be at most 1e-13 times
    its entry's rounding scale (_bracket_scales), so the check means the
    same at every scale of the blocks.  The block route is returned.
    """
    A, B, C, D = m.A, m.B, m.C, m.D
    xx = hbar * (A @ B.T - B @ A.T)
    pp = hbar * (C @ D.T - D @ C.T)
    xp = hbar * (A @ D.T - B @ C.T)

    M = m.matrix
    full = hbar * (M @ symplectic_form(m.dim) @ M.T)
    d = m.dim
    gaps = (np.abs(full[:d, :d] - xx), np.abs(full[d:, d:] - pp), np.abs(full[:d, d:] - xp))
    # a NaN ratio (an overflowing table) is no route disagreement: the
    # table's deviations are not finite, so verify_deformation fails it
    worst = [r for r in map(_max_ratio, gaps, _bracket_scales(m, hbar)) if r > 1e-13]
    if worst:
        raise RuntimeError(f"bracket route disagreement {max(worst):.3e} times its entry's "
                           "scale exceeds 1e-13")
    return BracketTable(xx=_frozen_array(xx), pp=_frozen_array(pp), xp=_frozen_array(xp))


def verify_deformation(m, params, tol=1e-10):
    """Report whether a map reproduces the target brackets within tol.

    Each entry's deviation is taken relative to the componentwise
    rounding scale of its bracket (Higham, ch. 3), elementwise:
    hbar (|A||B|^T + |B||A|^T) for xx, hbar (|C||D|^T + |D||C|^T) for pp
    and hbar (|A||D|^T + |B||C|^T) for xp.  Rescaling the sectors by
    powers of two keeps the verdict.
    """
    if m.dim != params.dim:
        raise DimensionMismatchError("map and params dims differ")
    t = bracket_table(m, params.hbar)
    eye = params.hbar * np.eye(params.dim)
    devs = (np.abs(t.xx - params.theta), np.abs(t.pp - params.eta), np.abs(t.xp - eye))
    xx, pp, xp = (float(d.max()) for d in devs)
    rxx, rpp, rxp = map(_max_ratio, devs, _bracket_scales(m, params.hbar))
    return ResidualReport(max_abs_xx=xx, max_abs_pp=pp, max_abs_xp=xp, tol=float(tol),
                          ratio_xx=rxx, ratio_pp=rpp, ratio_xp=rxp)


def sw_map(params):
    """The shift-only map A = D = I, C = 0, B = -theta / (2 hbar).

    Exact only for eta = 0; nonzero eta is rejected.
    """
    if np.any(params.eta != 0.0):
        raise ValueError("shift-only map requires eta = 0")
    d = params.dim
    eye = np.eye(d)
    return PhaseSpaceMap(d, eye, -params.theta / (2.0 * params.hbar), np.zeros((d, d)), eye)


def extended_map(params, f_theta, f_eta):
    """Map with symmetric corrections in both sectors.

    A = D = I, B = (f_theta - theta) / (2 hbar),
    C = (f_eta + eta) / (2 hbar).  Reproduces the xx and pp targets for
    any symmetric f; the cross bracket is hbar*I iff B C^T = 0.
    """
    d = params.dim
    f_theta = np.array(f_theta, dtype=float)
    f_eta = np.array(f_eta, dtype=float)
    if f_theta.shape != (d, d) or f_eta.shape != (d, d):
        raise DimensionMismatchError("f blocks must be dim x dim")
    _require_symmetric(f_theta, "f_theta")
    _require_symmetric(f_eta, "f_eta")
    eye = np.eye(d)
    B = (f_theta - params.theta) / (2.0 * params.hbar)
    C = (f_eta + params.eta) / (2.0 * params.hbar)
    return PhaseSpaceMap(d, eye, B, C, eye)


def scaled_spatial_map(theta, f, alpha, beta, hbar=1.0):
    """Spatially scaled variant A = alpha*I, B = (f - theta)/(2 hbar alpha),
    C = 0, D = beta*I.

    The xx bracket stays theta (alpha cancels); the cross bracket is
    alpha*beta*hbar*I.
    """
    theta = np.array(theta, dtype=float)
    f = np.array(f, dtype=float)
    if alpha == 0.0 or beta == 0.0:
        raise ValueError("alpha and beta must be nonzero")
    _require_antisymmetric(theta, "theta")
    _require_symmetric(f, "f")
    d = theta.shape[0]
    return PhaseSpaceMap(
        d,
        alpha * np.eye(d),
        (f - theta) / (2.0 * hbar * alpha),
        np.zeros((d, d)),
        beta * np.eye(d),
    )


def invert_map(m):
    """Inverse map; raises SingularMapError above the condition cutoff."""
    M = m.matrix
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond >= COND_CUTOFF:
        raise SingularMapError(f"condition number {cond:.3e} exceeds cutoff {COND_CUTOFF:.0e}")
    inv = np.linalg.inv(M)
    d = m.dim
    return PhaseSpaceMap(d, inv[:d, :d], inv[:d, d:], inv[d:, :d], inv[d:, d:])


def compose(outer, inner):
    """The map applying inner first, then outer."""
    if outer.dim != inner.dim:
        raise DimensionMismatchError("composed maps must share dim")
    P = outer.matrix @ inner.matrix
    d = outer.dim
    return PhaseSpaceMap(d, P[:d, :d], P[:d, d:], P[d:, :d], P[d:, d:])


def sw_obstruction(params):
    """Max-entry norm of B C^T for the f = 0 extended map.

    Equals max|theta @ eta| / (4 hbar^2); zero exactly when the matrix
    product theta @ eta vanishes.  This is the floor obstruction to
    restoring the undeformed cross bracket with shift-only corrections.
    """
    prod = params.theta @ params.eta
    return float(np.abs(prod).max() / (4.0 * params.hbar**2))


# ---------------------------------------------------------------------------
# JSON serialization.  Floats pass through python repr, so documents
# round-trip bit-faithfully for values of up to 17 significant digits.

def map_to_json(m, hbar=1.0):
    """Serialize a map (with its bracket scale) to a JSON string."""
    doc = {
        "dim": m.dim,
        "hbar": float(hbar),
        "A": m.A.tolist(),
        "B": m.B.tolist(),
        "C": m.C.tolist(),
        "D": m.D.tolist(),
    }
    return json.dumps(doc, sort_keys=True)


def _is_number(v):
    """Whether ``v`` is a JSON number a float can hold: true, "1.5", null
    and an integer beyond the float range are not."""
    return type(v) is float or (type(v) is int and abs(v) <= sys.float_info.max)


def _check_keys(where, given, known):
    unknown = sorted(set(given) - set(known))
    if unknown:  # a misspelt key would run with the default
        raise ValueError(f"{where} has no key {unknown[0]!r}")


def _check_numbers(where, key, value):
    """Raise ValueError unless ``value``, under ``key`` in ``where``, is a
    JSON number or a nested list of them.  An integer beyond the float
    range is left to float(), which raises OverflowError."""
    if isinstance(value, list):
        for v in value:
            _check_numbers(where, key, v)
    elif not (_is_number(value) or type(value) is int):
        raise ValueError(f"{where} value {key!r} is not a number: {value!r}")


def _load_object(text, where, known):
    """The JSON object of an input file: a key outside ``known``, or a
    value other than ``dim`` (see _dim) that is not a number or a nested
    list of numbers, raises ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"{where} is not a JSON object")
    _check_keys(where, doc, known)
    for key, value in doc.items():
        if key != "dim":
            _check_numbers(where, key, value)
    return doc


def _dim(doc):
    # a whole JSON number: 2.0 is one; 2.9, "2", true and 1e400 are not
    dim = doc["dim"]
    if not (type(dim) is int or (type(dim) is float and dim.is_integer())):
        raise ValueError(f"dim must be a whole number, got {dim!r}")
    return int(dim)


def map_from_json(text):
    """Parse a map document; returns (PhaseSpaceMap, hbar)."""
    doc = _load_object(text, "map file", ("dim", "hbar", "A", "B", "C", "D"))
    m = PhaseSpaceMap(_dim(doc), doc["A"], doc["B"], doc["C"], doc["D"])
    return m, float(doc.get("hbar", 1.0))


def params_to_json(params):
    doc = {
        "dim": params.dim,
        "hbar": params.hbar,
        "theta": params.theta.tolist(),
        "eta": params.eta.tolist(),
    }
    return json.dumps(doc, sort_keys=True)


def params_from_json(text):
    doc = _load_object(text, "deformation file", ("dim", "hbar", "theta", "eta"))
    return DeformationParams(
        _dim(doc), np.array(doc["theta"]), np.array(doc["eta"]), float(doc.get("hbar", 1.0))
    )
