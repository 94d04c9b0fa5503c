"""Closed-form completion of the 2D consistency condition.

With A = D = I the cross bracket stays canonical iff B C^T = 0.  In 2D
that product, scaled by (2 hbar)^2, is

    [[f_tx, f_t - t], [f_t + t, f_ty]] @ [[f_ex, f_e - e], [f_e + e, f_ey]]

written here with t = theta, e = eta, f_t* the symmetric position-sector
correction entries and f_e* the momentum-sector ones.  Given the scalars
(theta, eta, f_theta, f_eta) and one diagonal pivot, the remaining three
entries follow in closed form; the four product entries are the residual.

Classification and completion are written once, over arrays of draws
(``classify_singular_batch``, ``complete_2d_batch``); the scalar
``complete_2d`` and ``complete_2d_imaginary`` are their one-draw calls.
"""
import cmath
import json
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .algebra import HBAR_MESSAGE, DeformationParams, extended_map

RESIDUAL_TOL = 1e-12
ROUTE_AGREEMENT_RTOL = 1e-12


class SingularKind(Enum):
    # declaration order is the classification priority
    F_THETA_PLUS = "FThetaPlus"
    F_THETA_MINUS = "FThetaMinus"
    F_ETA_PLUS = "FEtaPlus"
    F_ETA_MINUS = "FEtaMinus"
    ZERO_PIVOT = "ZeroPivot"
    REGULAR = "Regular"


# classify_singular_batch returns indices into this tuple
SINGULAR_KINDS = tuple(SingularKind)
_REGULAR = SINGULAR_KINDS.index(SingularKind.REGULAR)


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


_FIELDS = ("theta", "eta", "f_theta", "f_eta", "f_theta_x", "f_theta_y", "f_eta_x", "f_eta_y")
_PARAMS = _FIELDS + ("hbar", "imaginary_mode")
_ONE_PIVOT = "exactly one of f_theta_x, f_theta_y must be given"


def _as_scalar(v):
    # collapse complex carrying no imaginary part to float
    if isinstance(v, complex) and v.imag == 0.0:
        return v.real
    return v


def _item(v, i):
    """Draw i of an input or a result column as a Python scalar: the
    caller's own object where it passed a scalar."""
    return v if np.ndim(v) == 0 else v.item(i)


def _draws(*values):
    """(raw, columns) of batch inputs that are scalars or (N,) arrays.

    In ``raw`` a scalar stays the caller's own object (its repr goes into
    messages and its type into payloads) and an array is its column;
    ``columns`` are float arrays of shape (N,).  None, an absent input,
    stays None in both.
    """
    raw = [v if v is None or np.ndim(v) == 0 else np.asarray(v, dtype=float) for v in values]
    n = max([1] + [v.size for v in raw if np.ndim(v)])
    columns = [None if v is None else np.broadcast_to(np.asarray(v, float), (n,)) for v in raw]
    return [v if np.ndim(v) == 0 else c for v, c in zip(raw, columns)], columns


def _value(raw, column):
    """The float every draw holds of a scalar input, else its column."""
    return column if np.ndim(raw) else column.item(0)


def _column(values, override=None, where=None):
    """A result column: ``values`` (a scalar, kept as is, or an array),
    with ``override`` put in at the draws ``where`` selects."""
    if where is None or not where.any():
        return values
    col = np.empty(where.size, dtype=object)
    col[:] = values
    col[where] = override[where]
    return col


def _first_failure(stages):
    """Each draw's first failing stage, -1 where it fails none."""
    return np.select(stages, list(range(len(stages))), -1).astype(np.int8)


def _failure(stage, failures, i):
    """The exception draw i fails with, or None if it passed."""
    if stage[i] < 0:
        return None
    make = failures[stage[i]]
    return make if isinstance(make, Exception) else make(i)


def singular_tolerance(x, f_x):
    """The absolute tolerance of singular-class detection in one sector:
    (theta, f_theta) or (eta, f_eta)."""
    return 1e-10 * np.maximum(np.maximum(np.abs(x), np.abs(f_x)), 1.0)


def classify_singular_batch(theta, eta, f_theta, f_eta, pivot):
    """Classify draws, highest-priority class first; returns indices into
    SINGULAR_KINDS.

    Order: FThetaPlus, FThetaMinus, FEtaPlus, FEtaMinus, ZeroPivot,
    Regular, each detected to the singular_tolerance of its own sector:
    the theta sector's for the FTheta classes and the pivot, the eta
    sector's for the FEta classes.  Arguments are scalars or arrays that
    broadcast together; f_theta may be complex.
    """
    theta, eta, f_theta, f_eta, pivot = map(np.asarray, (theta, eta, f_theta, f_eta, pivot))
    tol, eta_tol = singular_tolerance(theta, f_theta), singular_tolerance(eta, f_eta)
    hits = [np.abs(f_theta - theta) <= tol, np.abs(f_theta + theta) <= tol,
            np.abs(f_eta - eta) <= eta_tol, np.abs(f_eta + eta) <= eta_tol,
            np.abs(pivot) <= tol]
    return np.select(hits, range(len(hits)), _REGULAR).astype(np.int8)


def _residual_entries(theta, eta, f_theta, f_eta, f_theta_x, f_theta_y, f_eta_x, f_eta_y,
                      conjugate=False):
    """The entries of B C^T (2 hbar)^2 of N draws, shape (N, 4), row-major.

    The two sector blocks are stacked as (N, 2, 2) for one matmul, which
    rounds every draw as that draw's own 2x2 product does.  ``conjugate``
    puts conj(f_theta) in the lower-left entry, the imaginary-mode
    convention.
    """
    lower = np.conjugate(f_theta) if conjugate else f_theta
    B = np.stack(np.broadcast_arrays(f_theta_x, f_theta - theta, lower + theta, f_theta_y), -1)
    G = np.stack(np.broadcast_arrays(f_eta_x, f_eta - eta, f_eta + eta, f_eta_y), -1)
    return np.matmul(B.reshape(-1, 2, 2), G.reshape(-1, 2, 2)).reshape(-1, 4)


def _residual_scale(*fields):
    """max(1, largest |field|^2) per draw: the scale the residual is checked against."""
    m = np.max(np.abs(np.stack(np.broadcast_arrays(*fields))), axis=0)
    return np.maximum(1.0, m * m)


class Completion2D(NamedTuple):
    """N completed draws and the first failing stage of each.

    Every value field is a column: the values the Params2D of the draws
    hold, as an (N,) array, or as one scalar that every draw holds.  An
    input given as a scalar gives a scalar column: f_theta and the given
    pivot echo the caller's own object, as the scalar API did; theta,
    eta, f_eta and hbar its float.  A column that mixes types (complex
    entries of imaginary draws beside real ones) is an object array.
    Entries of failed draws are placeholders.

    ``stage`` is an (N,) int8 array of each draw's first failing stage,
    -1 where the draw passed.  ``failures`` holds, per stage, the
    exception the scalar call raises for a draw failing there: one
    exception that all those draws share, or a function of the draw's
    index that builds it.
    """

    theta: object
    eta: object
    f_theta: object
    f_eta: object
    f_theta_x: object
    f_theta_y: object
    f_eta_x: object
    f_eta_y: object
    hbar: object
    imaginary_mode: object
    residual_max: np.ndarray
    stage: np.ndarray
    failures: tuple

    def error(self, i):
        """The exception draw i fails with, or None if it passed."""
        return _failure(self.stage, self.failures, i)

    def params(self, i):
        """Draw i as a Params2D of Python scalars."""
        return Params2D(*(_item(getattr(self, name), i) for name in _PARAMS))

    def first(self):
        """The one draw of an N=1 call as Params2D, or its error raised."""
        err = self.error(0)
        if err is not None:
            raise err
        return self.params(0)


def complete_2d_batch(theta, eta, f_theta, f_eta, f_theta_x=None, hbar=1.0, *,
                      f_theta_y=None, f_theta_imag=0.0):
    """Complete N draws of the 2D system at once; returns Completion2D.

    Every argument is a scalar or an (N,) array.  A draw with a nonzero
    (or NaN) f_theta_imag takes the imaginary variant of
    complete_2d_imaginary, from f_theta_x, with f_theta + i f_theta_imag;
    every other draw completes from f_theta_y when it is given, else from
    f_theta_x, as complete_2d does.  Each draw fails exactly as that
    scalar call would, in the same order of checks, with the same
    exception and message: a non-finite input, hbar <= 0, a singular
    class, a completed field that is not finite (an overflow),
    disagreeing pivot routes, a residual that is not finite or above
    tolerance.  A missing pivot raises ValueError for the whole call.
    """
    if f_theta_x is None and f_theta_y is None:
        raise ValueError(_ONE_PIVOT)
    raw, (t, e, fr, fe, fx, fy, h, fi) = _draws(theta, eta, f_theta, f_eta, f_theta_x,
                                                f_theta_y, hbar, f_theta_imag)
    imag = fi != 0
    if fx is None and imag.any():
        raise ValueError("the imaginary variant completes from f_theta_x")
    by_y = fy is not None
    pivot_name = np.where(imag | (not by_y), "f_theta_x", "f_theta_y")
    real_pivot = fy if by_y else fx
    pivot = np.where(imag, fx, real_pivot) if fx is not None else real_pivot

    with np.errstate(all="ignore"):
        finite = np.stack([np.isfinite(t), np.isfinite(e), np.isfinite(fr) & np.isfinite(fi),
                           np.isfinite(fe), np.isfinite(pivot), np.isfinite(h)])
        any_imag = bool(imag.any())
        z = _complex(fr, fi)
        kind = classify_singular_batch(t, e, z if any_imag else fr, fe, pivot)

        # real draws, either pivot
        minus, plus = fr - t, fr + t
        sq = minus * plus / real_pivot
        if by_y:
            ftx, fty = sq, fy
            fex = -((fe + e) / plus) * fy
            route_a = -((fe - e) / minus) * ftx
            route_b = -plus * (fe - e) / fy
            fey = route_b
        else:
            ftx, fty = fx, sq
            fey = -((fe - e) / minus) * fx
            route_a = -((fe + e) / plus) * fty
            route_b = -minus * (fe + e) / fx
            fex = route_b
        gap = np.abs(route_a - route_b)
        split = gap > ROUTE_AGREEMENT_RTOL * np.maximum(np.maximum(1.0, np.abs(route_a)),
                                                        np.abs(route_b))
        fields = (t, e, fr, fe, ftx, fty, fex, fey)
        resid = np.abs(_residual_entries(*fields)).max(axis=1)
        overflow = ~(np.isfinite(sq) & np.isfinite(fex) & np.isfinite(fey))

        if any_imag:  # x pivot; f_theta - theta is (fr - t) + i fi
            i_minus = _complex(minus, fi)
            i_fty = (minus * plus + fi * fi) / fx
            i_fey = -((fe - e) / i_minus) * fx
            i_fex = -i_minus * (fe + e) / fx
            i_resid = np.abs(_residual_entries(t, e, z, fe, fx, i_fty, i_fex, i_fey,
                                               conjugate=True)).max(axis=1)
            overflow = np.where(imag, ~(np.isfinite(i_fty) & np.isfinite(i_fex)
                                        & np.isfinite(i_fey)), overflow)
            resid = np.where(imag, i_resid, resid)

        stages = [
            ~finite.all(axis=0),
            h <= 0,
            *(kind == k for k in range(_REGULAR)),  # one stage per singular class
            overflow,
            ~imag & split,
            ~imag & ~np.isfinite(resid),
            ~imag & (resid > RESIDUAL_TOL * _residual_scale(*fields)),
        ]

    def non_finite(i):
        slot = int(np.argmin(finite[:, i]))
        name = ("theta", "eta", "f_theta", "f_eta", pivot_name[i], "hbar")[slot]
        value = _item((raw[0], raw[1], raw[2], raw[3],
                       raw[5] if name == "f_theta_y" else raw[4], raw[6])[slot], i)
        if slot == 2 and imag[i]:
            value = complex(value, _item(raw[7], i))
        return ValueError(f"{name} must be finite, got {value!r}")

    overflow_error = ValueError("the completion overflows")
    failures = (
        non_finite,
        ValueError(HBAR_MESSAGE),
        *(SingularBranchError(k) for k in SINGULAR_KINDS[:_REGULAR]),
        overflow_error,
        lambda i: RuntimeError(f"pivot routes disagree by {gap[i]:.3e}"),
        overflow_error,
        lambda i: RuntimeError(f"completion residual {resid[i]:.3e} exceeds tolerance"),
    )

    if any_imag:
        imaginary = {"f_theta": z.astype(object), "f_theta_x": fx, "f_theta_y": i_fty,
                     "f_eta_x": _scalars(i_fex), "f_eta_y": _scalars(i_fey)}
    else:
        imaginary = dict.fromkeys(("f_theta", "f_theta_x", "f_theta_y", "f_eta_x", "f_eta_y"))
    return Completion2D(
        theta=_value(raw[0], t),
        eta=_value(raw[1], e),
        f_theta=_column(raw[2], imaginary["f_theta"], imag),
        f_eta=_value(raw[3], fe),
        f_theta_x=_column(ftx if by_y else raw[4], imaginary["f_theta_x"], imag),
        f_theta_y=_column(raw[5] if by_y else fty, imaginary["f_theta_y"], imag),
        f_eta_x=_column(fex, imaginary["f_eta_x"], imag),
        f_eta_y=_column(fey, imaginary["f_eta_y"], imag),
        hbar=_value(raw[6], h),
        imaginary_mode=imag if any_imag else False,
        residual_max=resid,
        stage=_first_failure(stages),
        failures=failures,
    )


def _complex(re, im):
    # re + i im with both parts kept bit for bit (re + 1j * im is not: inf * 0j is nan)
    z = np.empty(np.shape(re), dtype=complex)
    z.real = re
    z.imag = im
    return z


def _scalars(z):
    # per-draw Python values, a complex collapsed to float when its imaginary part is zero
    out = z.astype(object)
    real = z.imag == 0
    out[real] = z.real[real]
    return out


def complete_2d(theta, eta, f_theta, f_eta, f_theta_x=None, hbar=1.0, *, f_theta_y=None):
    """Complete the regular 2D instance from one diagonal pivot.

    Exactly one of f_theta_x, f_theta_y must be given.  With the x
    pivot:

        f_theta_y = (f_theta - theta) * (f_theta + theta) / f_theta_x
        f_eta_y   = -((f_eta - eta) / (f_theta - theta)) * f_theta_x
        f_eta_x   = -(f_theta - theta) * (f_eta + eta) / f_theta_x

    f_theta^2 - theta^2 is evaluated factored, so it does not cancel near
    a singular line: every completed field is within 4 ulps of the exact
    value (2.8 ulps was the worst measured, on uniform draws and on draws
    1e-9..1e-3 relative off a line).  f_eta_x is also computed through
    the mirror route -((f_eta + eta)/(f_theta + theta)) * f_theta_y and
    the two values must agree to 1e-12 relative.  The y pivot derives
    the mirrored formulas.  Non-regular draws raise SingularBranchError;
    non-finite arguments, hbar <= 0, and finite arguments with a
    completed field that is not finite raise ValueError.  The one-draw
    call of complete_2d_batch.
    """
    if f_theta_x is not None and f_theta_y is not None:
        raise ValueError(_ONE_PIVOT)
    return complete_2d_batch(theta, eta, f_theta, f_eta, f_theta_x, hbar,
                             f_theta_y=f_theta_y).first()


def complete_2d_imaginary(theta, eta, f_theta, f_eta, f_theta_x, hbar=1.0):
    """Completion variant admitting complex f_theta.

    A purely real f_theta reduces exactly to complete_2d.  Otherwise,
    with f_theta = f + i fi, the pivot relation uses the conjugate
    product,

        f_theta_y = (f_theta * conj(f_theta) - theta^2) / f_theta_x
                  = ((f - theta) * (f + theta) + fi^2) / f_theta_x,

    evaluated in the second form, and the off-diagonal momentum-sector
    entries keep the closed forms evaluated over the complex numbers.
    f_eta_x and f_eta_y are within 6 ulps of the exact value's magnitude,
    and so is f_theta_y while its two terms cancel by at most half.  Near
    the circle |f_theta| = |theta| they cancel, and f_theta_y keeps an
    absolute error of a few ulps of the terms' size: 7e8 ulps of the
    value was measured at a relative gap of 1e-9.  Non-finite arguments,
    hbar <= 0 and a completed field that is not finite raise ValueError.
    The one-draw call of complete_2d_batch.
    """
    z = complex(f_theta)
    return complete_2d_batch(theta, eta, z.real, f_eta, f_theta_x, hbar,
                             f_theta_imag=z.imag).first()


def residual_2d(p):
    """The four entries of B C^T (2 hbar)^2, row-major.

    Real instances return signed entries; imaginary-mode instances
    return entry magnitudes of the conjugate-convention product.
    """
    fields = (np.atleast_1d(getattr(p, name)) for name in _FIELDS)
    R = _residual_entries(*fields, conjugate=p.imaginary_mode)[0]
    if p.imaginary_mode:
        return np.abs(R)
    return R.real if np.iscomplexobj(R) else R


def maps_2d(p):
    """The PhaseSpaceMap realizing a completed real instance: the
    extended_map of its sector blocks,

    A = D = I, B = (f_theta_mat - theta_mat) / (2 hbar),
    C = (f_eta_mat + eta_mat) / (2 hbar).
    """
    if p.imaginary_mode:
        raise ValueError("imaginary-mode parameters do not define a real map")
    vals = [_as_scalar(getattr(p, name)) for name in _FIELDS]
    if not all(cmath.isfinite(v) for v in vals):
        raise ValueError("incomplete parameter set")
    theta, eta, f_theta, f_eta, f_theta_x, f_theta_y, f_eta_x, f_eta_y = vals
    return extended_map(DeformationParams.isotropic_2d(theta, eta, p.hbar),
                        [[f_theta_x, f_theta], [f_theta, f_theta_y]],
                        [[f_eta_x, f_eta], [f_eta, f_eta_y]])


def _encode(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v


def _decode(v):
    if isinstance(v, list):
        return complex(v[0], v[1])
    return v


def params2d_to_doc(p):
    """The JSON document of ``p`` as a dict; a complex entry is ``[re, im]``."""
    doc = {name: _encode(getattr(p, name)) for name in _FIELDS}
    doc.update(hbar=p.hbar, imaginary_mode=p.imaginary_mode)
    return doc


def params2d_to_json(p):
    return json.dumps(params2d_to_doc(p), sort_keys=True)


def params2d_from_json(text):
    doc = json.loads(text)
    kwargs = {name: _as_scalar(_decode(doc[name])) for name in _FIELDS}
    return Params2D(hbar=float(doc.get("hbar", 1.0)),
                    imaginary_mode=bool(doc.get("imaginary_mode", False)), **kwargs)
