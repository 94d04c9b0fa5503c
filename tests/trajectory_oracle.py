"""The whole-array trajectory path that the chunked one in
``ncphase.dynamics`` replaced, kept as the oracle of its values: one RK4
loop filling a (steps + 1, 4) array per branch, whole-length closed forms,
and the rotation frequency from ``np.unwrap`` of the whole phase.
"""
import math

import numpy as np

from ncphase.algebra import DeformationParams, antisymmetric_2d
from ncphase.dynamics import (DEFAULT_STEPS, FREQUENCY_NOTE, STABILITY_LIMIT, STATIC_FIELD_NOTE,
                              EquivalenceReport, StabilityError, Trajectory, bracket_generator,
                              commutative_closed_form, field_to_deformation, free_hamiltonian,
                              magnetic_hamiltonian, nc_closed_form, period, velocity_closed_form)
from ncphase.nc2d import maps_2d


def rk4_trajectory(gen, drift, z0, dt, steps):
    # classical RK4 on the affine system dz/dt = gen @ z + drift
    n = z0.shape[0]
    out = np.empty((steps + 1, n))
    out[0] = z0
    z = z0.copy()
    for i in range(steps):
        k1 = np.dot(gen, z) + drift
        k2 = np.dot(gen, z + 0.5 * dt * k1) + drift
        k3 = np.dot(gen, z + 0.5 * dt * k2) + drift
        k4 = np.dot(gen, z + dt * k3) + drift
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = z
    return out


def evolve_linear(h, params, z0, dt, steps):
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    K = bracket_generator(params) @ h.S / params.hbar
    drift = bracket_generator(params) @ h.offset / params.hbar
    rho = np.abs(np.linalg.eigvals(K)).max()
    if dt * rho >= STABILITY_LIMIT:
        raise StabilityError(f"dt*rho(K) = {dt * rho:.3e} exceeds {STABILITY_LIMIT}")
    z0 = np.asarray(z0, dtype=float)
    states = rk4_trajectory(K, drift, z0, float(dt), int(steps))
    times = np.arange(steps + 1) * float(dt)
    return Trajectory(times=times, states=states)


def simulate_matched(field, coeffs, hbar=1.0, f_theta=0.0, theta=0.0, dt=None, steps=DEFAULT_STEPS,
                     eta_scale=1.0):
    match = field_to_deformation(field, f_theta, hbar, theta)
    if dt is None:
        dt = period(field) / DEFAULT_STEPS if field.b_z != 0.0 else 1.0 / DEFAULT_STEPS
    x, y, px, py = commutative_closed_form(coeffs, field, 0.0)
    z0 = np.array([float(x), float(y), float(px), float(py)])
    comm = evolve_linear(
        magnetic_hamiltonian(field), DeformationParams.commutative(2, hbar), z0, dt, steps
    )
    nc_params = DeformationParams(
        2, antisymmetric_2d(theta), antisymmetric_2d(match.eta * eta_scale), hbar
    )
    zhat0 = maps_2d(match.params2d).apply(z0)
    nc = evolve_linear(free_hamiltonian(field.m_p), nc_params, zhat0, dt, steps)
    return Trajectory(times=comm.times, states=comm.states, nc_states=nc.states), match


def extract_rotation_frequency(times, px, py):
    phase = np.unwrap(np.arctan2(py, px))
    return float((phase[-1] - phase[0]) / (times[-1] - times[0]))


def equivalence_check(field, coeffs, n_samples=64, tol=1e-8, hbar=1.0, f_theta=0.0,
                      theta=0.0, dt=None, steps=DEFAULT_STEPS, eta_scale=1.0):
    traj, match = simulate_matched(field, coeffs, hbar, f_theta, theta, dt, steps, eta_scale)
    notes = [STATIC_FIELD_NOTE] if field.b_z == 0.0 else []

    ts = np.linspace(traj.times[0], traj.times[-1], n_samples)
    pxh, pyh = nc_closed_form(coeffs, field, ts)
    vx, vy = velocity_closed_form(coeffs, ts)
    amp = max(1.0, float(np.hypot(pxh, pyh).max()))
    dev_velocity = float(
        max(np.abs(pxh - field.m_p * vx).max(), np.abs(pyh - field.m_p * vy).max())
    )

    pxh_c, pyh_c = nc_closed_form(coeffs, field, traj.times)
    dev_nc = float(
        max(np.abs(traj.nc_states[:, 2] - pxh_c).max(), np.abs(traj.nc_states[:, 3] - pyh_c).max())
    )
    xc, yc, pxc, pyc = commutative_closed_form(coeffs, field, traj.times)
    closed = np.stack([xc, yc, pxc, pyc], axis=1)
    scale_z = max(1.0, float(np.abs(closed).max()))
    dev_comm = float(np.abs(traj.states - closed).max())

    omega_expected = match.eta * eta_scale / (field.m_p * hbar)
    if np.hypot(traj.nc_states[:, 2], traj.nc_states[:, 3]).min() > 1e-12:
        omega_extracted = extract_rotation_frequency(
            traj.times, traj.nc_states[:, 2], traj.nc_states[:, 3]
        )
    else:
        omega_extracted = 0.0
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


def matched_chunks(field, coeffs, **run):
    """``dynamics._matched_chunks`` from the whole arrays: the match, the
    dt the CLI reports (its first time step) and one chunk of every row."""
    traj, match = simulate_matched(field, coeffs, **run)
    dt = float(traj.times[1] - traj.times[0])
    return match, dt, [(traj.times, traj.states, traj.nc_states)]
