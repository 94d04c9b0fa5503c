"""Equivalence of free noncommutative motion and charged motion in a
linear gauge field.

A gauge A = (alpha_x x + beta_x y, alpha_y x + beta_y y) gives the
uniform field b_z = alpha_y - beta_x.  Matching the minimally coupled
Hamiltonian against the free Hamiltonian of deformed operators fixes the
momentum-sector deformation,

    eta = (hbar e / c) b_z,      f_eta = -(hbar e / c)(alpha_y + beta_x),

and ties the position-sector corrections to the gauge ratios.  The match
exists only when the gauge rows are proportional,
beta_y / beta_x = alpha_y / alpha_x.

Closed-form orbits, an RK4 integrator driven by the bracket generator
dz/dt = (1/hbar) * Omega * S * z with Omega = [[theta, hbar I],
[-hbar I, eta]], and the time-dependent parameter laws live here too.
"""
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .algebra import HBAR_MESSAGE, DeformationParams, antisymmetric_2d
from .nc2d import (Completion2D, Params2D, _draws, _failure, _first_failure, _item,
                   _residual_entries, _residual_scale, _value, maps_2d)

PROPORTIONALITY_RTOL = 1e-12
MATCH_RESIDUAL_TOL = 1e-12
STABILITY_LIMIT = 0.1
DEFAULT_STEPS = 4096


class NonMatchableError(ValueError):
    """Gauge rows not proportional; no deformation reproduces the field."""


class DegenerateFieldError(ValueError):
    """beta_x or alpha_y vanishes; the gauge-ratio relations degenerate
    and the alternate single-constant branch applies instead."""


class StabilityError(ValueError):
    """Step size too large for the integrator guard dt * rho(K) < 0.1."""


@dataclass(frozen=True)
class FieldConfig:
    alpha_x: float
    alpha_y: float
    beta_x: float
    beta_y: float
    e: float = 1.0
    c: float = 1.0
    m_p: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v!r}")

    @property
    def b_z(self):
        return self.alpha_y - self.beta_x

    @property
    def omega(self):
        """Cyclotron frequency -(e / (c m_p)) b_z."""
        return -(self.e / (self.c * self.m_p)) * self.b_z

    def is_matchable(self):
        return bool(_proportional(self.alpha_x, self.alpha_y, self.beta_x, self.beta_y))


def _proportional(ax, ay, bx, by):
    # beta_y / beta_x == alpha_y / alpha_x to PROPORTIONALITY_RTOL, without dividing
    scale = np.maximum(np.maximum(np.abs(ax), np.abs(ay)), np.maximum(np.abs(bx), np.abs(by)))
    scale = np.maximum(scale, 1.0)
    return np.abs(by * ax - ay * bx) <= PROPORTIONALITY_RTOL * scale * scale


@dataclass(frozen=True)
class QuadraticForm:
    """H(z) = 0.5 z^T S z + offset . z on (x_1..x_d, p_1..p_d)."""

    S: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        S = np.array(self.S, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1] or not np.allclose(S, S.T, atol=0, rtol=0):
            raise ValueError("S must be square symmetric")
        offset = np.array(self.offset, dtype=float)
        if offset.shape != (S.shape[0],):
            raise ValueError("offset length must match S")
        S.setflags(write=False)
        offset.setflags(write=False)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "offset", offset)

    def evaluate(self, z):
        z = np.asarray(z, dtype=float)
        return 0.5 * np.einsum("...i,ij,...j->...", z, self.S, z) + z @ self.offset


def magnetic_hamiltonian(field):
    """Minimally coupled H = |p - (e/c) A|^2 / (2 m_p) as a quadratic form."""
    k = field.e / field.c
    m = field.m_p
    ax, ay, bx, by = field.alpha_x, field.alpha_y, field.beta_x, field.beta_y
    S = np.array(
        [
            [k * k * (ax * ax + ay * ay), k * k * (ax * bx + ay * by), -k * ax, -k * ay],
            [k * k * (ax * bx + ay * by), k * k * (bx * bx + by * by), -k * bx, -k * by],
            [-k * ax, -k * bx, 1.0, 0.0],
            [-k * ay, -k * by, 0.0, 1.0],
        ]
    ) / m
    return QuadraticForm(S=S, offset=np.zeros(4))


def free_hamiltonian(mass, dim=2):
    """Kinetic-only form |p|^2 / (2 mass)."""
    S = np.zeros((2 * dim, 2 * dim))
    S[dim:, dim:] = np.eye(dim) / mass
    return QuadraticForm(S=S, offset=np.zeros(2 * dim))


@dataclass(frozen=True)
class MatchResult:
    """Deformation reproducing a matchable field, plus derived data.

    kx and ky are the gauge ratios entering the position-sector
    relations f_theta_x = kx (f_theta - theta),
    f_theta_y = ky (f_theta + theta).
    """

    field: FieldConfig
    hbar: float
    theta: float
    f_theta: float
    eta: float
    f_eta: float
    kx: float
    ky: float
    omega_commutative: float
    omega_nc: float
    params2d: Params2D


_FIELD_NAMES = ("alpha_x", "alpha_y", "beta_x", "beta_y", "e", "c", "m_p")


def _division_error(num, den):
    # the ZeroDivisionError Python raises for num / den, message included
    try:
        num / den
    except ZeroDivisionError as err:
        return err
    raise AssertionError(f"{num!r} / {den!r} divides")


class MatchBatch(NamedTuple):
    """N matched fields and the first failing stage of each.

    Every value field is an (N,) array: the values the MatchResults of
    the draws hold; ``params2d`` carries the matched Params2D columns.
    Entries of failed draws are placeholders.  ``stage`` and ``failures``
    are those of Completion2D: each draw's first failing stage (-1 where
    it passed) and, per stage, the exception field_to_deformation raises
    there, shared by its draws or built from the draw's index.
    """

    eta: np.ndarray
    f_eta: np.ndarray
    kx: np.ndarray
    ky: np.ndarray
    omega_commutative: np.ndarray
    omega_nc: np.ndarray
    params2d: Completion2D
    stage: np.ndarray
    failures: tuple

    def error(self, i):
        """The exception draw i fails with, or None if it passed."""
        return _failure(self.stage, self.failures, i)


def field_to_deformation_batch(alpha_x, alpha_y, beta_x, beta_y, e=1.0, c=1.0, m_p=1.0,
                               f_theta=0.0, hbar=1.0, theta=0.0):
    """Match N proportional gauge fields at once; returns MatchBatch.

    Every argument is a scalar or an (N,) array.  Each draw fails exactly
    as building its FieldConfig and calling field_to_deformation would, in
    the same order of checks, with the same exception and message.
    """
    raw, (ax, ay, bx, by, e, c, m_p, f, h, t) = _draws(alpha_x, alpha_y, beta_x, beta_y, e, c,
                                                       m_p, f_theta, hbar, theta)
    finite = np.isfinite(np.stack([ax, ay, bx, by, e, c, m_p, f, h, t]))
    with np.errstate(all="ignore"):
        k = e / c
        zero = (ax == 0.0) & (ay == 0.0) & (bx == 0.0) & (by == 0.0)
        proportional = _proportional(ax, ay, bx, by)
        b_z = ay - bx
        eta = np.where(zero, 0.0, h * k * b_z)
        f_eta = np.where(zero, 0.0, -h * k * (ay + bx))
        kx = np.where(zero, 0.0, -by / ay)
        ky = np.where(zero, 0.0, -ax / bx)
        f_theta_x = kx * (f - t)
        f_theta_y = ky * (f + t)
        # gauge-ratio forms of the off-diagonal momentum entries; the
        # divisions of the generic closed forms cancel exactly here
        f_eta_x = np.where(bx != 0.0, (ax / bx) * (f_eta + eta), 0.0)
        f_eta_y = np.where(ay != 0.0, (by / ay) * (f_eta - eta), 0.0)
        fields = (t, eta, f, f_eta, f_theta_x, f_theta_y, f_eta_x, f_eta_y)
        worst = np.abs(_residual_entries(*fields)).max(axis=1)
        omega_c = -(e / (c * m_p)) * b_z
        omega_nc = eta / (m_p * h)
        stages = [
            ~finite[:7].all(axis=0),
            ~finite[7:].all(axis=0),
            h <= 0,
            c == 0.0,
            ~zero & ((bx == 0.0) | (ay == 0.0)),
            ~zero & ~proportional,
            ~np.isfinite(worst),
            worst > MATCH_RESIDUAL_TOL * _residual_scale(*fields),
            c * m_p == 0.0,
            m_p * h == 0.0,
        ]

    def item(slot, i):
        return _item(raw[slot], i)

    def non_finite_field(i):
        slot = int(np.argmin(finite[:7, i]))
        return ValueError(f"{_FIELD_NAMES[slot]} must be finite, got {item(slot, i)!r}")

    failures = (
        non_finite_field,
        lambda i: ValueError("f_theta, hbar and theta must be finite, got "
                             f"{(item(7, i), item(8, i), item(9, i))!r}"),
        ValueError(HBAR_MESSAGE),
        lambda i: _division_error(item(4, i), item(5, i)),
        DegenerateFieldError("beta_x or alpha_y is zero; use the single-constant time-law branch"),
        NonMatchableError("gauge rows not proportional: beta_y/beta_x != alpha_y/alpha_x"),
        ValueError("the matched parameters overflow"),
        lambda i: RuntimeError(
            f"matched parameters violate the consistency product: {worst[i]:.3e}"),
        lambda i: _division_error(item(4, i), item(5, i) * item(6, i)),
        lambda i: _division_error(eta[i].item(), item(6, i) * item(8, i)),
    )
    stage = _first_failure(stages)
    params2d = Completion2D(_value(raw[9], t), eta, _value(raw[7], f), f_eta, f_theta_x,
                            f_theta_y, f_eta_x, f_eta_y, _value(raw[8], h), imaginary_mode=False,
                            residual_max=worst, stage=stage, failures=failures)
    return MatchBatch(eta=eta, f_eta=f_eta, kx=kx, ky=ky, omega_commutative=omega_c,
                      omega_nc=omega_nc, params2d=params2d, stage=stage, failures=failures)


def field_to_deformation(field, f_theta, hbar=1.0, theta=0.0):
    """Match a proportional gauge field to a momentum-sector deformation.

    Fails with NonMatchableError when the gauge rows are not
    proportional and with DegenerateFieldError when beta_x or alpha_y
    vanishes (unless the whole gauge is zero, which matches trivially),
    and with ValueError on a non-finite argument, hbar <= 0 or an
    overflowing match.  The one-draw call of field_to_deformation_batch.
    """
    batch = field_to_deformation_batch(field.alpha_x, field.alpha_y, field.beta_x, field.beta_y,
                                       field.e, field.c, field.m_p, f_theta, hbar, theta)
    err = batch.error(0)
    if err is not None:
        raise err
    return MatchResult(
        field=field,
        hbar=float(hbar),
        theta=float(theta),
        f_theta=float(f_theta),
        eta=_item(batch.eta, 0),
        f_eta=_item(batch.f_eta, 0),
        kx=_item(batch.kx, 0),
        ky=_item(batch.ky, 0),
        omega_commutative=_item(batch.omega_commutative, 0),
        omega_nc=_item(batch.omega_nc, 0),
        params2d=batch.params2d.params(0),
    )


def nc_free_hamiltonian(match):
    """The free deformed-operator Hamiltonian written in commutative
    variables: 0.5 |C x + D p|^2 / m_p, with C, D the matched map.

    It equals magnetic_hamiltonian(match.field) coefficient by coefficient.
    """
    m = maps_2d(match.params2d)
    CD = np.hstack([m.C, m.D])
    S = CD.T @ CD / match.field.m_p
    return QuadraticForm(S=S, offset=np.zeros(4))


# ---------------------------------------------------------------------------
# Closed-form orbits for b_z != 0 (and their static b_z = 0 limit).

@dataclass(frozen=True)
class ClosedFormCoeffs:
    """Orbit constants: center (x3, y3), phase amplitudes (x1, x2), omega.

    The y amplitudes are structurally locked to y1 = x2, y2 = -x1, so
    only the x pair is stored.
    """

    x1: float
    x2: float
    x3: float
    y3: float
    omega: float

    @classmethod
    def for_field(cls, field, x1, x2, x3=0.0, y3=0.0):
        return cls(x1=x1, x2=x2, x3=x3, y3=y3, omega=field.omega)

    @classmethod
    def from_initial_state(cls, field, z0):
        """Coefficients of the orbit through state (x, y, px, py) at t=0."""
        w = field.omega
        if w == 0.0:
            raise ZeroDivisionError("no closed-form orbit constants for b_z = 0")
        x, y, px, py = (float(v) for v in z0)
        k = field.e / field.c
        vx = (px - k * (field.alpha_x * x + field.beta_x * y)) / field.m_p
        vy = (py - k * (field.alpha_y * x + field.beta_y * y)) / field.m_p
        x1 = vx / w
        x2 = vy / w
        return cls(x1=x1, x2=x2, x3=x - x2, y3=y + x1, omega=w)


def _check_omega(coeffs, field):
    w = field.omega
    if abs(coeffs.omega - w) > 1e-12 * max(1.0, abs(w)):
        raise ValueError("coeffs.omega inconsistent with the field")


def commutative_closed_form(coeffs, field, t):
    """Canonical-variable orbit (x, y, px, py) at times t."""
    _check_omega(coeffs, field)
    t = np.asarray(t, dtype=float)
    w = coeffs.omega
    s, co = np.sin(w * t), np.cos(w * t)
    x1, x2, x3, y3 = coeffs.x1, coeffs.x2, coeffs.x3, coeffs.y3
    k = field.e / field.c
    ax, ay, bx, by = field.alpha_x, field.alpha_y, field.beta_x, field.beta_y
    x = x3 + x1 * s + x2 * co
    y = y3 + x2 * s - x1 * co
    px = k * (ax * x1 + ay * x2) * s + k * (ax * x2 - ay * x1) * co + k * (ax * x3 + bx * y3)
    py = k * (by * x2 + bx * x1) * s + k * (bx * x2 - by * x1) * co + k * (ay * x3 + by * y3)
    return x, y, px, py


def velocity_closed_form(coeffs, t):
    """(dx/dt, dy/dt) of the commutative orbit."""
    t = np.asarray(t, dtype=float)
    w = coeffs.omega
    s, co = np.sin(w * t), np.cos(w * t)
    return w * (coeffs.x1 * co - coeffs.x2 * s), w * (coeffs.x2 * co + coeffs.x1 * s)


def nc_closed_form(coeffs, field, t):
    """Deformed-operator momenta (pxhat, pyhat) along the matched orbit."""
    _check_omega(coeffs, field)
    t = np.asarray(t, dtype=float)
    w = coeffs.omega
    s, co = np.sin(w * t), np.cos(w * t)
    a = (field.e / field.c) * field.b_z
    pxhat = a * (coeffs.x2 * s - coeffs.x1 * co)
    pyhat = -a * (coeffs.x1 * s + coeffs.x2 * co)
    return pxhat, pyhat


def period(field):
    """Cyclotron period 2 pi c m_p / |e b_z|."""
    if field.b_z == 0.0 or field.e == 0.0:
        raise ZeroDivisionError("no finite period for b_z = 0")
    return 2.0 * math.pi * field.c * field.m_p / abs(field.e * field.b_z)


# ---------------------------------------------------------------------------
# Bracket-generated linear evolution.

# rows per chunk of a trajectory: the integrator, the equivalence check
# and the CSV writer each hold one chunk, whatever the step count
CSV_CHUNK = 8192


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray            # columns (x, y, px, py) or the hatted set
    nc_states: np.ndarray = None  # optional hatted companion columns

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)

    def chunks(self):
        """(times, states, nc_states) of CSV_CHUNK rows at a time."""
        for start in range(0, self.times.size, CSV_CHUNK):
            rows = slice(start, start + CSV_CHUNK)
            yield self.times[rows], self.states[rows], self.nc_states[rows]


def bracket_generator(params):
    """Omega = [[theta, hbar I], [-hbar I, eta]]."""
    d = params.dim
    eye = params.hbar * np.eye(d)
    return np.block([[params.theta, eye], [-eye, params.eta]])


def _rk4_steps(gen, drift, z, dt, out):
    # classical RK4 on the affine system dz/dt = gen @ z + drift: one step
    # from z per row of out; returns the last state
    for i in range(out.shape[0]):
        k1 = np.dot(gen, z) + drift
        k2 = np.dot(gen, z + 0.5 * dt * k1) + drift
        k3 = np.dot(gen, z + 0.5 * dt * k2) + drift
        k4 = np.dot(gen, z + dt * k3) + drift
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i] = z
    return z


def _rk4_chunks(gen, drift, z0, dt, steps):
    # the states z0 .. z_steps, CSV_CHUNK rows a chunk; the state carries
    # from one chunk to the next
    z = z0
    for start in range(0, steps + 1, CSV_CHUNK):
        out = np.empty((min(CSV_CHUNK, steps + 1 - start), z0.shape[0]))
        if start == 0:
            out[0] = z0
        z = _rk4_steps(gen, drift, z, dt, out[1:] if start == 0 else out)
        yield out


def rk4_trajectory(gen, drift, z0, dt, steps):
    """The (steps + 1, n) states of classical RK4 on the affine system
    dz/dt = gen @ z + drift from z0, row 0 being z0."""
    return np.concatenate(list(_rk4_chunks(gen, drift, z0, dt, steps)))


def _linear_chunks(h, params, z0, dt, steps):
    # every check of evolve_linear, then its states as _rk4_chunks
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    K = bracket_generator(params) @ h.S / params.hbar
    drift = bracket_generator(params) @ h.offset / params.hbar
    rho = np.abs(np.linalg.eigvals(K)).max()
    if dt * rho >= STABILITY_LIMIT:
        raise StabilityError(f"dt*rho(K) = {dt * rho:.3e} exceeds {STABILITY_LIMIT}")
    return _rk4_chunks(K, drift, np.asarray(z0, dtype=float), float(dt), int(steps))


def evolve_linear(h, params, z0, dt, steps):
    """RK4 integration of dz/dt = (1/hbar) Omega (S z + offset).

    dt must be positive and finite (else ValueError) and satisfy
    dt * rho(K) < 0.1, else StabilityError, where rho(K) is the spectral
    radius of K = Omega S / hbar.  K mixes units (1/m_p beside
    (e/c)^2 alpha^2 / m_p), so its norm changes when the units do; its
    eigenvalues, the rates the trajectory rotates and grows at, do not.
    """
    states = np.concatenate(list(_linear_chunks(h, params, z0, dt, steps)))
    return Trajectory(times=np.arange(steps + 1) * float(dt), states=states)


def _matched_chunks(field, coeffs, hbar=1.0, f_theta=0.0, theta=0.0, dt=None,
                    steps=DEFAULT_STEPS, eta_scale=1.0):
    """simulate_matched as a stream: (MatchResult, dt as a float, chunks).

    Every check runs before this returns.  ``chunks`` then yields
    (times, states, nc_states) for CSV_CHUNK rows at a time, so nothing
    held grows with ``steps``.
    """
    match = field_to_deformation(field, f_theta, hbar, theta)
    if dt is None:
        dt = period(field) / DEFAULT_STEPS if field.b_z != 0.0 else 1.0 / DEFAULT_STEPS

    x, y, px, py = commutative_closed_form(coeffs, field, 0.0)
    z0 = np.array([float(x), float(y), float(px), float(py)])
    comm = _linear_chunks(
        magnetic_hamiltonian(field), DeformationParams.commutative(2, hbar), z0, dt, steps
    )

    nc_params = DeformationParams(
        2, antisymmetric_2d(theta), antisymmetric_2d(match.eta * eta_scale), hbar
    )
    zhat0 = maps_2d(match.params2d).apply(z0)
    nc = _linear_chunks(free_hamiltonian(field.m_p), nc_params, zhat0, dt, steps)
    dt = float(dt)
    chunks = ((np.arange(start, start + len(states)) * dt, states, nc_states)
              for start, states, nc_states in zip(range(0, int(steps) + 1, CSV_CHUNK), comm, nc))
    return match, dt, chunks


def simulate_matched(field, coeffs, hbar=1.0, f_theta=0.0, theta=0.0, dt=None, steps=DEFAULT_STEPS,
                     eta_scale=1.0):
    """Integrate the commutative and deformed branches side by side.

    Returns (Trajectory with both column sets, MatchResult).  The
    commutative branch runs the minimally coupled Hamiltonian under
    canonical brackets; the deformed branch runs the free Hamiltonian
    under (theta, eta) brackets from the matched initial state.  A
    null ``dt`` means period / DEFAULT_STEPS (1 / DEFAULT_STEPS when
    b_z = 0) whatever ``steps`` is, so ``steps`` steps cover
    steps / DEFAULT_STEPS of a period.
    """
    match, _, chunks = _matched_chunks(field, coeffs, hbar, f_theta, theta, dt, steps, eta_scale)
    times, states, nc_states = (np.concatenate(cols) for cols in zip(*chunks))
    return Trajectory(times=times, states=states, nc_states=nc_states), match


@dataclass(frozen=True)
class EquivalenceReport:
    passed: bool
    deviations: dict
    omega_extracted: float
    omega_expected: float
    omega_commutative: float
    tol: float
    errata_notes: tuple


FREQUENCY_NOTE = (
    "frequency convention: the momentum-sector rotation rate is |eta|/(m_p*hbar); "
    "the doubled variant 2*eta/(m_p*hbar) fails the extraction check by a factor of two"
)
STATIC_FIELD_NOTE = (
    "b_z = 0: nothing rotates (omega = 0), so the orbit stands still and every deviation "
    "is zero, up to rounding, by construction"
)


def extract_rotation_frequency(times, px, py):
    """Mean angular rate of the (px, py) vector via unwrapped phase."""
    phase = np.unwrap(np.arctan2(py, px))
    return float((phase[-1] - phase[0]) / (times[-1] - times[0]))


class _UnwrappedPhase:
    """The first and last entries of np.unwrap(p), p fed a chunk at a time,
    bit for bit: each chunk's first difference is taken from the previous
    chunk's last phase, and the correction sum carried so far leads the
    chunk's cumsum, so the sum stays sequential, as np.unwrap's is."""

    def __init__(self):
        self.first = self.last = None
        self.carry = 0.0

    def add(self, p):
        if self.first is None:
            self.first = self.last = p[0]
        dd = np.diff(p, prepend=self.last)
        # np.unwrap's arithmetic at its default period 2 pi
        ddmod = np.mod(dd + np.pi, 2 * np.pi) - np.pi
        np.copyto(ddmod, np.pi, where=(ddmod == -np.pi) & (dd > 0))
        correction = ddmod - dd
        np.copyto(correction, 0, where=np.abs(dd) < np.pi)
        self.carry = np.cumsum(np.concatenate(([self.carry], correction)))[-1]
        self.last = p[-1]

    def span(self):
        """unwrapped[-1] - unwrapped[0]."""
        return (self.last + self.carry) - self.first


def equivalence_check(field, coeffs, n_samples=64, tol=1e-8, hbar=1.0, f_theta=0.0,
                      theta=0.0, dt=None, steps=DEFAULT_STEPS, eta_scale=1.0):
    """Cross-check the three routes to the deformed momenta.

    Checks, over the simulated span: the closed-form identity
    phat = m_p * (orbit velocity); the integrated deformed branch
    against the closed form; and the extracted rotation frequency
    against |eta| / (m_p hbar) and |e b_z / (c m_p)|.  A null ``dt``
    means period / DEFAULT_STEPS whatever ``steps`` is, as in
    simulate_matched, so the span is one period only at the default
    step count.  At b_z = 0 the checks hold vacuously, and the report
    says so with STATIC_FIELD_NOTE.  The trajectory is reduced a chunk
    at a time, to the values the whole-array reductions give.
    """
    match, _, chunks = _matched_chunks(field, coeffs, hbar, f_theta, theta, dt, steps, eta_scale)
    notes = [STATIC_FIELD_NOTE] if field.b_z == 0.0 else []

    # largest |pxhat - closed|, |pyhat - closed|, |z - closed| and |closed|,
    # and smallest |phat|; np.maximum and np.minimum carry a NaN as .max() does
    top, low = np.full(4, -np.inf), np.inf
    phase = _UnwrappedPhase()
    for times, states, nc_states in chunks:
        pxh_c, pyh_c = nc_closed_form(coeffs, field, times)
        closed = np.stack(commutative_closed_form(coeffs, field, times), axis=1)
        top = np.maximum(top, [np.abs(nc_states[:, 2] - pxh_c).max(),
                               np.abs(nc_states[:, 3] - pyh_c).max(),
                               np.abs(states - closed).max(), np.abs(closed).max()])
        low = np.minimum(low, np.hypot(nc_states[:, 2], nc_states[:, 3]).min())
        with np.errstate(all="ignore"):  # read only where every |phat| > 1e-12
            phase.add(np.arctan2(nc_states[:, 3], nc_states[:, 2]))
    t_end = times[-1]  # the first time is 0

    ts = np.linspace(0.0, t_end, n_samples)
    pxh, pyh = nc_closed_form(coeffs, field, ts)
    vx, vy = velocity_closed_form(coeffs, ts)
    amp = max(1.0, float(np.hypot(pxh, pyh).max()))
    dev_velocity = float(
        max(np.abs(pxh - field.m_p * vx).max(), np.abs(pyh - field.m_p * vy).max())
    )
    dev_nc = float(max(top[0], top[1]))
    dev_comm = float(top[2])
    scale_z = max(1.0, float(top[3]))

    omega_expected = match.eta * eta_scale / (field.m_p * hbar)
    omega_extracted = float(phase.span() / t_end) if low > 1e-12 else 0.0
    freq_ok = abs(abs(omega_extracted) - abs(omega_expected)) <= 1e-6 * max(1.0, abs(omega_expected))
    if omega_expected != 0.0:
        doubled = 2.0 * omega_expected
        if abs(abs(omega_extracted) - abs(doubled)) > 1e-6 * max(1.0, abs(doubled)):
            notes.append(FREQUENCY_NOTE)

    deviations = {
        "closed_form_momentum_vs_velocity": dev_velocity,
        "integrated_nc_vs_closed_form": dev_nc,
        "integrated_commutative_vs_closed_form": dev_comm,
    }
    passed = (
        dev_velocity <= tol * amp
        and dev_nc <= tol * amp
        and dev_comm <= tol * scale_z
        and freq_ok
    )
    return EquivalenceReport(
        passed=bool(passed),
        deviations=deviations,
        omega_extracted=omega_extracted,
        omega_expected=float(omega_expected),
        omega_commutative=match.omega_commutative,
        tol=float(tol),
        errata_notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Reduced momentum combinations and the time-dependent parameter laws.

def uv_momenta(field, coeffs, t):
    """u = (beta_y/beta_x) px + py and v = px + (beta_x/beta_y) py.

    v = (beta_x / beta_y) u holds identically.
    """
    if field.beta_x == 0.0 or field.beta_y == 0.0:
        raise DegenerateFieldError("u, v need nonzero beta_x and beta_y")
    _, _, px, py = commutative_closed_form(coeffs, field, t)
    u = (field.beta_y / field.beta_x) * px + py
    v = px + (field.beta_x / field.beta_y) * py
    return u, v


def _check_u(u):
    u = np.asarray(u, dtype=float)
    if u.size == 0:
        raise ValueError("u must be non-empty")
    if np.any(u == 0.0) or (u.max() > 0.0 and u.min() < 0.0):
        raise ValueError("u crosses zero on the sample range")
    return u


def time_dependent_ftheta(u, c_minus, c_plus):
    """Sampled (f_theta(t), theta(t)) laws from the two integration
    constants:

        theta   = ((c_-/c_+) - 1) / (2 c_-) / u
        f_theta = ((c_-/c_+) + 1) / (2 c_-) / u

    which make (f_theta - theta) u = 1/c_- and
    (f_theta + theta) u = 1/c_+ exactly constant.
    """
    if c_minus == 0.0 or c_plus == 0.0:
        raise ValueError("integration constants must be nonzero")
    u = _check_u(u)
    ratio = c_minus / c_plus
    theta = (ratio - 1.0) / (2.0 * c_minus) / u
    f_theta = (ratio + 1.0) / (2.0 * c_minus) / u
    return f_theta, theta


def approach_two_ftheta(u, c_minus):
    """The single-constant law for the combination (f_theta - theta)(t)
    = 1 / (c_- u(t))."""
    if c_minus == 0.0:
        raise ValueError("integration constant must be nonzero")
    u = _check_u(u)
    return 1.0 / (c_minus * u)


# ---------------------------------------------------------------------------
# Trajectory CSV (write-only interface).

CSV_HEADER = "t,x,y,px,py,xhat,yhat,pxhat,pyhat"


def trajectory_to_csv(traj, fh):
    """Write a trajectory with both column sets to the open text file
    ``fh`` as CSV, each value its float repr (the shortest decimal that
    round-trips), a chunk of rows at a time.  ``traj`` is a Trajectory
    or an iterable of (times, states, nc_states) chunks."""
    fh.write(CSV_HEADER + "\n")
    for times, states, nc_states in traj.chunks() if isinstance(traj, Trajectory) else traj:
        chunk = np.column_stack([times, states, nc_states])
        fh.writelines(",".join(map(repr, row)) + "\n" for row in chunk.tolist())
