"""Closed-form completion of the 2D consistency condition.

With A = D = I the cross bracket stays canonical iff B C^T = 0.  In 2D
that product, scaled by (2 hbar)^2, is

    [[f_tx, f_t - t], [f_t + t, f_ty]] @ [[f_ex, f_e - e], [f_e + e, f_ey]]

written here with t = theta, e = eta, f_t* the symmetric position-sector
correction entries and f_e* the momentum-sector ones.  Given the scalars
(theta, eta, f_theta, f_eta) and one diagonal pivot, the remaining three
entries follow in closed form; the four product entries are the residual.
"""
import cmath
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import PhaseSpaceMap

RESIDUAL_TOL = 1e-12
ROUTE_AGREEMENT_RTOL = 1e-12


class SingularKind(Enum):
    F_THETA_PLUS = "FThetaPlus"
    F_THETA_MINUS = "FThetaMinus"
    F_ETA_PLUS = "FEtaPlus"
    F_ETA_MINUS = "FEtaMinus"
    ZERO_PIVOT = "ZeroPivot"
    REGULAR = "Regular"


class SingularBranchError(ValueError):
    """A completion hit one of the non-regular parameter classes."""

    def __init__(self, kind):
        self.kind = kind
        super().__init__(f"singular branch: {kind.value}")


@dataclass(frozen=True)
class Params2D:
    theta: float
    eta: float
    f_theta: complex
    f_eta: float
    f_theta_x: float
    f_theta_y: float
    f_eta_x: complex
    f_eta_y: complex
    hbar: float = 1.0
    imaginary_mode: bool = False


def _as_scalar(v):
    # collapse complex carrying no imaginary part to float
    if isinstance(v, complex) and v.imag == 0.0:
        return v.real
    return v


_INPUT_NAMES = ("theta", "eta", "f_theta", "f_eta", "f_theta_x", "f_theta_y", "hbar")


def _check_finite(values):
    # non-finite input is an input error, never a completion; None is an absent pivot
    for name, v in zip(_INPUT_NAMES, values):
        if v is not None and not cmath.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def _square(x):
    # a float ** raises OverflowError where a product would give inf
    try:
        return x**2
    except OverflowError:
        raise ValueError("the completion overflows") from None


def singular_tolerance(theta, f_theta):
    """Default absolute tolerance for singular-class detection."""
    return 1e-10 * max(abs(theta), abs(f_theta), 1.0)


def classify_singular(theta, eta, f_theta, f_eta, pivot, tol=None):
    """Classify a parameter draw, highest-priority class first.

    Order: FThetaPlus, FThetaMinus, FEtaPlus, FEtaMinus, ZeroPivot,
    Regular.
    """
    if tol is None:
        tol = singular_tolerance(theta, f_theta)
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


def complete_2d(theta, eta, f_theta, f_eta, f_theta_x=None, hbar=1.0, tol=None, *, f_theta_y=None):
    """Complete the regular 2D instance from one diagonal pivot.

    Exactly one of f_theta_x, f_theta_y must be given.  With the x
    pivot:

        f_theta_y = (f_theta^2 - theta^2) / f_theta_x
        f_eta_y   = -((f_eta - eta) / (f_theta - theta)) * f_theta_x
        f_eta_x   = -(f_theta - theta) * (f_eta + eta) / f_theta_x

    f_eta_x is also computed through the mirror route
    -((f_eta + eta)/(f_theta + theta)) * f_theta_y and the two values
    must agree to 1e-12 relative.  The y pivot derives the mirrored
    formulas.  Non-regular draws raise SingularBranchError; non-finite
    arguments, and finite ones whose completion overflows, raise
    ValueError.
    """
    if (f_theta_x is None) == (f_theta_y is None):
        raise ValueError("exactly one of f_theta_x, f_theta_y must be given")
    _check_finite((theta, eta, f_theta, f_eta, f_theta_x, f_theta_y, hbar))
    pivot = f_theta_x if f_theta_x is not None else f_theta_y
    kind = classify_singular(theta, eta, f_theta, f_eta, pivot, tol)
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
        theta=float(theta),
        eta=float(eta),
        f_theta=_as_scalar(f_theta),
        f_eta=float(f_eta),
        f_theta_x=_as_scalar(f_theta_x),
        f_theta_y=_as_scalar(f_theta_y),
        f_eta_x=_as_scalar(f_eta_x),
        f_eta_y=_as_scalar(f_eta_y),
        hbar=float(hbar),
    )
    scale = max(1.0, _residual_scale(p))
    worst = float(np.abs(residual_2d(p)).max())
    if not math.isfinite(worst):  # every entry enters the residual
        raise ValueError("the completion overflows")
    if worst > RESIDUAL_TOL * scale:
        raise RuntimeError(f"completion residual {worst:.3e} exceeds tolerance")
    return p


def complete_2d_imaginary(theta, eta, f_theta, f_eta, f_theta_x, hbar=1.0, tol=None):
    """Completion variant admitting complex f_theta.

    A purely real f_theta reduces exactly to complete_2d.  Otherwise the
    pivot relation uses the conjugate product,

        f_theta_y = (f_theta * conj(f_theta) - theta^2) / f_theta_x,

    and the off-diagonal momentum-sector entries keep the closed forms
    evaluated over the complex numbers.  Non-finite arguments and an
    overflowing completion raise ValueError.
    """
    _check_finite((theta, eta, f_theta, f_eta, f_theta_x, None, hbar))
    f_theta = complex(f_theta)
    if f_theta.imag == 0.0:
        return complete_2d(theta, eta, f_theta.real, f_eta, f_theta_x, hbar, tol)

    kind = classify_singular(theta, eta, f_theta, f_eta, f_theta_x, tol)
    if kind is not SingularKind.REGULAR:
        raise SingularBranchError(kind)

    minus = f_theta - theta
    f_theta_y = (f_theta * f_theta.conjugate() - _square(theta)).real / f_theta_x
    f_eta_y = -((f_eta - eta) / minus) * f_theta_x
    f_eta_x = -minus * (f_eta + eta) / f_theta_x
    if not all(map(cmath.isfinite, (f_theta_y, f_eta_x, f_eta_y))):
        raise ValueError("the completion overflows")
    return Params2D(
        theta=float(theta),
        eta=float(eta),
        f_theta=f_theta,
        f_eta=float(f_eta),
        f_theta_x=float(f_theta_x),
        f_theta_y=float(f_theta_y),
        f_eta_x=_as_scalar(f_eta_x),
        f_eta_y=_as_scalar(f_eta_y),
        hbar=float(hbar),
        imaginary_mode=True,
    )


def theta_sector_matrix(p, sign=-1):
    """[[f_tx, f_t -/+ t], [f_t +/- t, f_ty]]; sign=-1 gives f_t - t up top.

    In imaginary mode the lower-left entry carries conj(f_theta), so the
    assembled block is the Hermitian deformation.
    """
    f = p.f_theta
    lower = f.conjugate() if p.imaginary_mode else f
    return np.array(
        [
            [p.f_theta_x, f + sign * p.theta],
            [lower - sign * p.theta, p.f_theta_y],
        ]
    )


def eta_sector_matrix(p, sign=+1):
    """[[f_ex, f_e +/- e], [f_e -/+ e, f_ey]]; sign=+1 gives f_e + e up top."""
    return np.array(
        [
            [p.f_eta_x, p.f_eta + sign * p.eta],
            [p.f_eta - sign * p.eta, p.f_eta_y],
        ]
    )


def residual_2d(p):
    """The four entries of B C^T (2 hbar)^2, row-major.

    Real instances return signed entries; imaginary-mode instances
    return entry magnitudes of the conjugate-convention product.
    """
    Bm = theta_sector_matrix(p, sign=-1)
    Gm = eta_sector_matrix(p, sign=-1)
    R = (Bm @ Gm).reshape(-1)
    if p.imaginary_mode:
        return np.abs(R)
    return R.real if np.iscomplexobj(R) else R


def _residual_scale(p):
    vals = [p.theta, p.eta, p.f_theta, p.f_eta, p.f_theta_x, p.f_theta_y, p.f_eta_x, p.f_eta_y]
    m = max(abs(v) for v in vals)
    return m * m


def maps_2d(p):
    """The PhaseSpaceMap realizing a completed real instance.

    A = D = I, B = (f_theta_mat - theta_mat) / (2 hbar),
    C = (f_eta_mat + eta_mat) / (2 hbar).
    """
    if p.imaginary_mode:
        raise ValueError("imaginary-mode parameters do not define a real map")
    vals = [p.theta, p.eta, p.f_theta, p.f_eta, p.f_theta_x, p.f_theta_y, p.f_eta_x, p.f_eta_y]
    if not all(np.isfinite(complex(v).real) and np.isfinite(complex(v).imag) for v in vals):
        raise ValueError("incomplete parameter set")
    B = theta_sector_matrix(p, sign=-1) / (2.0 * p.hbar)
    C = eta_sector_matrix(p, sign=+1) / (2.0 * p.hbar)
    eye = np.eye(2)
    return PhaseSpaceMap(2, eye, B.astype(float), C.astype(float), eye)


def _encode(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v


def _decode(v):
    if isinstance(v, list):
        return complex(v[0], v[1])
    return v


_FIELDS = ("theta", "eta", "f_theta", "f_eta", "f_theta_x", "f_theta_y", "f_eta_x", "f_eta_y")


def params2d_to_doc(p):
    """The JSON document of ``p`` as a dict; a complex entry is ``[re, im]``."""
    doc = {name: _encode(getattr(p, name)) for name in _FIELDS}
    doc["hbar"] = p.hbar
    doc["imaginary_mode"] = p.imaginary_mode
    return doc


def params2d_to_json(p):
    return json.dumps(params2d_to_doc(p), sort_keys=True)


def params2d_from_json(text):
    doc = json.loads(text)
    kwargs = {name: _as_scalar(_decode(doc[name])) for name in _FIELDS}
    return Params2D(hbar=float(doc.get("hbar", 1.0)),
                    imaginary_mode=bool(doc.get("imaginary_mode", False)), **kwargs)
