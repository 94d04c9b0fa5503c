"""Field matching, closed forms, the integrator, and time-dependent laws."""
import io

import numpy as np
import pytest
from numpy.testing import assert_allclose

from csv_oracle import trajectory_csv

from ncphase.dynamics import (
    CSV_CHUNK,
    ClosedFormCoeffs,
    DegenerateFieldError,
    FieldConfig,
    NonMatchableError,
    StabilityError,
    Trajectory,
    approach_two_ftheta,
    bracket_generator,
    commutative_closed_form,
    equivalence_check,
    evolve_linear,
    extract_rotation_frequency,
    field_to_deformation,
    free_hamiltonian,
    magnetic_hamiltonian,
    nc_closed_form,
    nc_free_hamiltonian,
    period,
    rk4_trajectory,
    simulate_matched,
    time_dependent_ftheta,
    trajectory_to_csv,
    uv_momenta,
    velocity_closed_form,
)
from ncphase.algebra import DeformationParams, antisymmetric_2d

MATCH_FIELD = FieldConfig(alpha_x=1.0, alpha_y=2.0, beta_x=1.0, beta_y=2.0)
CLOSED_FORM_TOL = 1e-6  # of amplitude, at dt = T/4096
MOMENTUM_ID_TOL = 1e-8
CONSTANCY_RTOL = 1e-10


def coeffs_for(field, x1=0.05, x2=0.05, x3=1.0, y3=0.5):
    return ClosedFormCoeffs.for_field(field, x1=x1, x2=x2, x3=x3, y3=y3)


def test_field_derived_quantities():
    f = MATCH_FIELD
    assert f.b_z == 1.0
    assert f.omega == -1.0
    assert f.is_matchable()
    landau = FieldConfig(alpha_x=0.0, alpha_y=1.0, beta_x=0.0, beta_y=0.0)
    assert landau.b_z == 1.0
    symmetric = FieldConfig(alpha_x=0.0, alpha_y=0.5, beta_x=-0.5, beta_y=0.0)
    assert symmetric.b_z == 1.0
    # the symmetric gauge has a rank-2 coefficient matrix, so no match exists
    assert not symmetric.is_matchable()


def test_match_worked_example():
    m = field_to_deformation(MATCH_FIELD, f_theta=0.0)
    assert m.eta == pytest.approx(1.0, abs=1e-15)
    assert m.f_eta == pytest.approx(-3.0, abs=1e-15)
    assert m.kx == pytest.approx(-1.0, abs=1e-15)
    assert m.ky == pytest.approx(-1.0, abs=1e-15)
    assert abs(m.omega_nc) == pytest.approx(abs(m.omega_commutative), abs=1e-15)


def test_match_scales_with_charge_and_hbar():
    f = FieldConfig(alpha_x=1.0, alpha_y=2.0, beta_x=1.0, beta_y=2.0, e=2.0, c=4.0)
    m = field_to_deformation(f, f_theta=0.0, hbar=3.0)
    assert m.eta == pytest.approx(3.0 * (2.0 / 4.0) * f.b_z, rel=1e-15)


def test_match_rejects_nonproportional_gauge():
    bad = FieldConfig(alpha_x=1.0, alpha_y=2.0, beta_x=1.0, beta_y=3.0)
    with pytest.raises(NonMatchableError):
        field_to_deformation(bad, f_theta=0.0)


def test_match_rejects_degenerate_gauge():
    landau = FieldConfig(alpha_x=0.0, alpha_y=1.0, beta_x=0.0, beta_y=0.0)
    with pytest.raises(DegenerateFieldError):
        field_to_deformation(landau, f_theta=0.0)


def test_match_zero_gauge_is_trivial():
    zero = FieldConfig(alpha_x=0.0, alpha_y=0.0, beta_x=0.0, beta_y=0.0)
    m = field_to_deformation(zero, f_theta=0.0)
    assert m.eta == 0.0 and m.f_eta == 0.0


def test_closed_form_satisfies_equations_of_motion():
    # central differences of the closed form against the Hamiltonian flow
    field = MATCH_FIELD
    cf = coeffs_for(field)
    h = magnetic_hamiltonian(field)
    J = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    eps = 1e-6
    for t in np.linspace(0.1, period(field), 7):
        z = np.array(commutative_closed_form(cf, field, t))
        zp = np.array(commutative_closed_form(cf, field, t + eps))
        zm = np.array(commutative_closed_form(cf, field, t - eps))
        fd = (zp - zm) / (2.0 * eps)
        flow = J @ (h.S @ z + h.offset)
        assert np.abs(fd - flow).max() <= 1e-7 * max(1.0, np.abs(flow).max())


def test_momentum_is_mass_times_velocity():
    field = MATCH_FIELD
    cf = coeffs_for(field)
    for t in np.linspace(0.0, period(field), 64):
        vx, vy = velocity_closed_form(cf, t)
        pxh, pyh = nc_closed_form(cf, field, t)
        assert abs(pxh - field.m_p * vx) <= MOMENTUM_ID_TOL
        assert abs(pyh - field.m_p * vy) <= MOMENTUM_ID_TOL


def test_coeffs_from_initial_state_roundtrip():
    field = MATCH_FIELD
    cf = coeffs_for(field)
    z0 = np.array(commutative_closed_form(cf, field, 0.0))
    cf2 = ClosedFormCoeffs.from_initial_state(field, z0)
    assert cf2.x1 == pytest.approx(cf.x1, rel=1e-12)
    assert cf2.x2 == pytest.approx(cf.x2, rel=1e-12)
    assert cf2.x3 == pytest.approx(cf.x3, rel=1e-12)
    assert cf2.y3 == pytest.approx(cf.y3, rel=1e-12)


def test_integrated_matches_closed_form():
    field = MATCH_FIELD
    cf = coeffs_for(field)
    traj, _ = simulate_matched(field, cf)
    amp = max(1.0, np.abs(traj.states).max())
    for idx in (0, 1024, 2048, 4096):
        t = traj.times[idx]
        ref = np.array(commutative_closed_form(cf, field, t))
        assert np.abs(traj.states[idx] - ref).max() <= CLOSED_FORM_TOL * amp
        refh = np.array(nc_closed_form(cf, field, t))
        assert np.abs(traj.nc_states[idx][2:] - refh).max() <= CLOSED_FORM_TOL * amp


def test_energy_conserved_along_both_branches():
    field = MATCH_FIELD
    cf = coeffs_for(field)
    traj, match = simulate_matched(field, cf)
    h = magnetic_hamiltonian(field)
    e = h.evaluate(traj.states)
    assert np.ptp(e) <= 1e-9 * max(1.0, abs(e[0]))
    enc = free_hamiltonian(field.m_p).evaluate(traj.nc_states)
    assert np.ptp(enc) <= 1e-9 * max(1.0, abs(enc[0]))
    # both branches carry the same energy value
    assert np.abs(e - enc).max() <= 1e-9 * max(1.0, abs(e[0]))
    # the free form pushed through the map collapses to the magnetic form
    hnc = nc_free_hamiltonian(match)
    assert np.abs(hnc.evaluate(traj.states) - e).max() <= 1e-12 * max(1.0, abs(e[0]))


def test_stability_guard():
    field = MATCH_FIELD
    h = magnetic_hamiltonian(field)
    params = DeformationParams.commutative(2)
    with pytest.raises(StabilityError, match=r"dt\*rho\(K\) = "):
        evolve_linear(h, params, np.array([1.0, 0.0, 0.0, 0.0]), dt=10.0, steps=4)


@pytest.mark.parametrize("s", [1e-2, 1.0, 1e2])
def test_step_guard_does_not_depend_on_the_gauge_units(s):
    # dt * ||K|| read 0.102 at s = 1e-2 and 0.639 at s = 1e2, so the norm
    # guard refused both; dt * rho(K) is 2 pi / 4096 at every s
    field = FieldConfig(alpha_x=s, alpha_y=2.0 * s, beta_x=0.5 * s, beta_y=s)
    rep = equivalence_check(field, coeffs_for(field))
    assert rep.passed, rep.deviations


@pytest.mark.parametrize("dt", [float("nan"), 0.0, -0.01, float("inf"), float("-inf")])
def test_step_must_be_positive_and_finite(dt):
    # a NaN dt slipped past the stability guard (nan * norm >= 0.1 is
    # false) and integrated a trajectory of NaN
    h = magnetic_hamiltonian(MATCH_FIELD)
    params = DeformationParams.commutative(2)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        evolve_linear(h, params, np.array([1.0, 0.0, 0.0, 0.0]), dt=dt, steps=4)


def test_trajectory_requires_increasing_times():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0, 1.0]), states=np.zeros((3, 4)))


def test_bracket_generator_blocks():
    params = DeformationParams.isotropic_2d(0.3, 0.7, hbar=2.0)
    om = bracket_generator(params)
    assert_allclose(om[:2, :2], antisymmetric_2d(0.3), atol=0.0)
    assert_allclose(om[2:, 2:], antisymmetric_2d(0.7), atol=0.0)
    assert_allclose(om[:2, 2:], 2.0 * np.eye(2), atol=0.0)


def test_frequency_extraction():
    field = MATCH_FIELD
    cf = coeffs_for(field)
    traj, match = simulate_matched(field, cf)
    w = extract_rotation_frequency(traj.times, traj.nc_states[:, 2], traj.nc_states[:, 3])
    expected = abs(match.eta) / (field.m_p * match.hbar)
    assert abs(abs(w) - expected) <= 1e-6
    assert abs(abs(w) - abs(field.e * field.b_z / (field.c * field.m_p))) <= 1e-6
    # the doubled rate is off by a factor of two
    assert abs(abs(w) - 2.0 * expected) > 0.5 * expected


def test_equivalence_report():
    rep = equivalence_check(MATCH_FIELD, coeffs_for(MATCH_FIELD))
    assert rep.passed
    assert rep.deviations["closed_form_momentum_vs_velocity"] <= MOMENTUM_ID_TOL
    assert rep.deviations["integrated_nc_vs_closed_form"] <= CLOSED_FORM_TOL
    assert rep.deviations["integrated_commutative_vs_closed_form"] <= CLOSED_FORM_TOL
    assert len(rep.errata_notes) == 1


def test_equivalence_detects_wrong_eta():
    rep = equivalence_check(MATCH_FIELD, coeffs_for(MATCH_FIELD), eta_scale=1.5)
    assert not rep.passed


def test_uv_momenta_proportionality():
    field = MATCH_FIELD
    cf = coeffs_for(field)
    ts = np.linspace(0.0, period(field), 129)
    u, v = uv_momenta(field, cf, ts)
    assert np.abs(v - (field.beta_x / field.beta_y) * u).max() <= 1e-12 * np.abs(u).max()


def test_time_dependent_constancy():
    field = MATCH_FIELD
    cf = coeffs_for(field)
    ts = np.linspace(0.0, period(field), 257)
    u, _ = uv_momenta(field, cf, ts)
    f_t, th_t = time_dependent_ftheta(u, c_minus=1.0, c_plus=2.0)
    minus = (f_t - th_t) * u
    plus = (f_t + th_t) * u
    assert np.ptp(minus) <= CONSTANCY_RTOL * abs(minus[0])
    assert np.ptp(plus) <= CONSTANCY_RTOL * abs(plus[0])
    assert minus[0] == pytest.approx(1.0, rel=1e-12)
    assert plus[0] == pytest.approx(0.5, rel=1e-12)


def test_time_dependent_derivative_law():
    # d/dt[(f-theta)u] = 0, checked by finite differences of the sampled law
    field = MATCH_FIELD
    cf = coeffs_for(field)
    ts = np.linspace(0.0, period(field), 2049)
    u, _ = uv_momenta(field, cf, ts)
    f_t, th_t = time_dependent_ftheta(u, c_minus=1.0, c_plus=1.0)
    g = (f_t - th_t) * u
    dg = np.gradient(g, ts)
    assert np.abs(dg).max() <= 1e-8 * max(1.0, abs(g[0]))


def test_approach_two_constancy():
    field = MATCH_FIELD
    cf = coeffs_for(field)
    ts = np.linspace(0.0, period(field), 257)
    u, _ = uv_momenta(field, cf, ts)
    f_minus_theta = approach_two_ftheta(u, c_minus=2.0)
    g = f_minus_theta * u
    assert np.ptp(g) <= CONSTANCY_RTOL * abs(g[0])


def test_time_dependent_rejects_zero_constants():
    field = MATCH_FIELD
    cf = coeffs_for(field)
    ts = np.linspace(0.0, period(field), 33)
    u, _ = uv_momenta(field, cf, ts)
    with pytest.raises(ValueError):
        time_dependent_ftheta(u, c_minus=0.0, c_plus=1.0)
    with pytest.raises(ValueError):
        time_dependent_ftheta(u, c_minus=1.0, c_plus=0.0)


def test_time_dependent_rejects_vanishing_u():
    # pure circular motion crosses u = 0
    field = MATCH_FIELD
    cf = coeffs_for(field, x1=0.5, x2=0.5, x3=0.0, y3=0.0)
    ts = np.linspace(0.0, period(field), 257)
    u, _ = uv_momenta(field, cf, ts)
    with pytest.raises(ValueError):
        time_dependent_ftheta(u, c_minus=1.0, c_plus=1.0)


def csv_text(traj):
    fh = io.StringIO()
    trajectory_to_csv(traj, fh)
    return fh.getvalue()


def test_csv_format():
    field = MATCH_FIELD
    cf = coeffs_for(field)
    traj, _ = simulate_matched(field, cf, steps=8)
    text = csv_text(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,x,y,px,py,xhat,yhat,pxhat,pyhat"
    assert len(lines) == 10
    first = lines[1].split(",")
    assert len(first) == 9
    assert first[0] == "0.0"
    assert text == trajectory_csv(traj)


# values whose repr is easy to get wrong: signed zero, subnormals, the
# largest magnitudes, non-finite values, and a shortest round trip
SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -1.5e-310, 1e300, -1.7976931348623157e308,
                  float("nan"), float("inf"), float("-inf"), 0.1, 1 / 3]


@pytest.mark.parametrize("rows", [1, 2, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1, 2 * CSV_CHUNK + 3])
def test_csv_writer_matches_the_per_value_oracle(rows):
    rng = np.random.default_rng(rows)
    times = np.arange(rows) * 0.37
    times[0] = -0.0
    values = rng.normal(size=(rows, 8)) * 10.0 ** rng.integers(-300, 300, size=(rows, 8))
    flat = values.reshape(-1)
    specials = rng.choice(flat.size, size=min(flat.size, 4 * len(SPECIAL_VALUES)), replace=False)
    flat[specials] = np.resize(SPECIAL_VALUES, specials.size)
    traj = Trajectory(times=times, states=values[:, :4], nc_states=values[:, 4:])
    text = csv_text(traj)
    assert text == trajectory_csv(traj)
    assert text.count("\n") == rows + 1


def test_rk4_steps_are_one_affine_map():
    # on dz/dt = K z + d every RK4 step is z -> P z + q with P the RK4
    # stability polynomial of hK
    rng = np.random.default_rng(91)
    sym = rng.uniform(-1.0, 1.0, (4, 4)) * 0.3
    gen = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    gen = gen @ (sym + sym.T)
    drift = rng.uniform(-0.5, 0.5, 4)
    z0 = rng.uniform(-1.0, 1.0, 4)
    dt = 0.01
    hk = dt * gen
    eye = np.eye(4)
    P = eye + hk + hk @ hk / 2 + hk @ hk @ hk / 6 + hk @ hk @ hk @ hk / 24
    q = dt * (eye + hk / 2 + hk @ hk / 6 + hk @ hk @ hk / 24) @ drift
    expected = [z0]
    for _ in range(100):
        expected.append(P @ expected[-1] + q)
    expected = np.array(expected)
    loop = rk4_trajectory(gen, drift, z0, dt, 100)
    assert loop.shape == expected.shape
    assert np.abs(loop - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("name", ["alpha_x", "alpha_y", "beta_x", "beta_y", "e", "c", "m_p"])
def test_field_config_rejects_non_finite(name):
    kwargs = {"alpha_x": 1.0, "alpha_y": 2.0, "beta_x": 1.0, "beta_y": 2.0}
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            FieldConfig(**dict(kwargs, **{name: bad}))
