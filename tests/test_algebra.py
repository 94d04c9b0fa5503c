"""Bracket tables, canonical maps, and their JSON round trips."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ncphase import algebra
from ncphase.algebra import (
    DeformationParams,
    DimensionMismatchError,
    NonAntisymmetricInputError,
    PhaseSpaceMap,
    SingularMapError,
    antisymmetric_2d,
    antisymmetric_3d,
    bracket_table,
    compose,
    extended_map,
    invert_map,
    map_from_json,
    map_to_json,
    params_from_json,
    params_to_json,
    scaled_spatial_map,
    sw_map,
    sw_obstruction,
    symplectic_form,
    verify_deformation,
)

ROUTE_TOL = 1e-13
ROUNDTRIP_TOL = 1e-12


def identity_map(dim):
    eye = np.eye(dim)
    zero = np.zeros((dim, dim))
    return PhaseSpaceMap(dim=dim, A=eye, B=zero, C=zero, D=eye)


def random_map(rng, dim):
    blocks = rng.uniform(-2.0, 2.0, size=(4, dim, dim))
    return PhaseSpaceMap(dim=dim, A=blocks[0], B=blocks[1], C=blocks[2], D=blocks[3])


def table_via_symplectic(m, hbar=1.0):
    M = m.matrix
    full = hbar * M @ symplectic_form(m.dim) @ M.T
    d = m.dim
    return full[:d, :d], full[d:, d:], full[:d, d:]


def test_antisymmetric_constructors():
    t2 = antisymmetric_2d(0.7)
    assert_allclose(t2, [[0.0, 0.7], [-0.7, 0.0]])
    t3 = antisymmetric_3d((1.0, 2.0, 3.0))
    # component 1 sits at (1,2), component 2 at (1,3), component 3 at (2,3)
    assert t3[0, 1] == 1.0 and t3[0, 2] == 2.0 and t3[1, 2] == 3.0
    assert_allclose(t3, -t3.T)


def test_params_validation():
    with pytest.raises(NonAntisymmetricInputError):
        DeformationParams(dim=2, theta=np.eye(2), eta=np.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError):
        DeformationParams(dim=3, theta=antisymmetric_2d(1.0), eta=np.zeros((2, 2)))
    p = DeformationParams.commutative(2)
    assert p.theta.flags.writeable is False
    assert np.all(p.theta == 0.0) and np.all(p.eta == 0.0)


def test_identity_map_brackets():
    t = bracket_table(identity_map(2), hbar=0.5)
    assert np.all(t.xx == 0.0)
    assert np.all(t.pp == 0.0)
    assert_allclose(t.xp, 0.5 * np.eye(2), atol=0.0)


def test_block_formulas_match_symplectic_route():
    rng = np.random.default_rng(11)
    for dim in (2, 3):
        for _ in range(100):
            m = random_map(rng, dim)
            t = bracket_table(m, hbar=1.3)
            xx, pp, xp = table_via_symplectic(m, hbar=1.3)
            scale = max(1.0, float(np.abs(m.matrix).max()) ** 2)
            assert np.abs(t.xx - xx).max() <= ROUTE_TOL * scale
            assert np.abs(t.pp - pp).max() <= ROUTE_TOL * scale
            assert np.abs(t.xp - xp).max() <= ROUTE_TOL * scale


def test_sw_map_reproduces_position_deformation():
    rng = np.random.default_rng(5)
    for _ in range(100):
        theta = antisymmetric_2d(rng.uniform(-3.0, 3.0))
        params = DeformationParams(dim=2, theta=theta, eta=np.zeros((2, 2)))
        rep = verify_deformation(sw_map(params), params, tol=1e-12)
        assert rep.passed


def test_sw_map_rejects_momentum_deformation():
    params = DeformationParams.isotropic_2d(1.0, 0.5)
    with pytest.raises(ValueError):
        sw_map(params)


def test_extended_map_blocks():
    params = DeformationParams.isotropic_2d(1.0, 2.0)
    f_theta = np.array([[3.0, 2.0], [2.0, 1.0]])
    f_eta = np.array([[-2.0, 4.0], [4.0, -6.0]])
    m = extended_map(params, f_theta, f_eta)
    assert_allclose(m.A, np.eye(2))
    assert_allclose(m.D, np.eye(2))
    assert_allclose(2.0 * m.B, f_theta - params.theta)
    assert_allclose(2.0 * m.C, f_eta + params.eta)


def test_extended_map_requires_symmetry():
    params = DeformationParams.isotropic_2d(1.0, 2.0)
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        extended_map(params, bad, np.zeros((2, 2)))


def test_scaled_spatial_map_table():
    theta = antisymmetric_2d(0.8)
    f = np.array([[1.0, 0.3], [0.3, -0.5]])
    m = scaled_spatial_map(theta, f, alpha=2.0, beta=0.25, hbar=1.5)
    t = bracket_table(m, hbar=1.5)
    assert_allclose(t.xx, theta, atol=1e-15)
    assert np.all(t.pp == 0.0)
    # cross block picks up the product of the two stretches
    assert_allclose(t.xp, 2.0 * 0.25 * 1.5 * np.eye(2), atol=1e-15)


def test_invert_compose_roundtrip():
    rng = np.random.default_rng(23)
    for dim in (2, 3):
        for _ in range(50):
            m = random_map(rng, dim)
            if np.linalg.cond(m.matrix) > 1e6:
                continue
            r = compose(invert_map(m), m)
            assert np.abs(r.matrix - np.eye(2 * dim)).max() <= ROUNDTRIP_TOL


def test_invert_rejects_singular():
    m = PhaseSpaceMap(dim=2, A=np.zeros((2, 2)), B=np.zeros((2, 2)),
                      C=np.zeros((2, 2)), D=np.eye(2))
    with pytest.raises(SingularMapError):
        invert_map(m)


def test_sw_obstruction_value():
    params = DeformationParams.isotropic_2d(1.0, 2.0)
    # theta @ eta = -2 I, so the bound is 2 / (4 hbar^2)
    assert sw_obstruction(params) == pytest.approx(0.5, abs=1e-15)
    assert sw_obstruction(DeformationParams.isotropic_2d(1.0, 0.0)) == 0.0


def test_verify_deformation_detects_mismatch():
    params = DeformationParams.isotropic_2d(1.0, 0.0)
    wrong = DeformationParams.isotropic_2d(1.5, 0.0)
    rep = verify_deformation(sw_map(params), wrong, tol=1e-12)
    assert not rep.passed
    assert rep.max_abs_xx == pytest.approx(0.5, abs=1e-15)


def rescaled_worked_map(k, j):
    """The completed worked instance (theta, eta, f_theta, f_eta) = (1, 2,
    2, 4) with f_theta_x = 3, its theta sector scaled by 2^k and its eta
    sector by 2^j, as (map, theta, eta)."""
    s, r = 2.0 ** k, 2.0 ** j
    theta, eta = s, 2.0 * r
    m = extended_map(DeformationParams.isotropic_2d(theta, eta),
                     [[3.0 * s, 2.0 * s], [2.0 * s, s]], [[-2.0 * r, 4.0 * r], [4.0 * r, -6.0 * r]])
    return m, theta, eta


POWERS = [-202, -131, -40, 0, 40, 131]  # 2^-131 ~ 4e-40 and 2^-202 ~ 1.6e-61: the paper's bounds


@pytest.mark.parametrize("j", POWERS)
@pytest.mark.parametrize("k", POWERS)
def test_verify_deformation_verdict_is_unchanged_by_power_of_two_rescaling(k, j):
    m, theta, eta = rescaled_worked_map(k, j)
    base, _, _ = rescaled_worked_map(0, 0)
    for target, passes in (((theta, eta), True), ((-theta, eta), False), ((theta, -eta), False),
                           ((theta, eta * (1.0 + 1e-6)), False)):
        rep = verify_deformation(m, DeformationParams.isotropic_2d(*target), tol=1e-10)
        assert rep.passed is passes, target
        # the theta and eta sectors' deviations relative to their scales keep their bits
        unit = verify_deformation(base, DeformationParams.isotropic_2d(
            target[0] / 2.0 ** k, target[1] / 2.0 ** j), tol=1e-10)
        assert (rep.ratio_xx, rep.ratio_pp) == (unit.ratio_xx, unit.ratio_pp)


def test_verify_deformation_zero_scale_demands_zero_deviation():
    # the SW map has C = 0: any nonzero eta target fails, however small
    params = DeformationParams.isotropic_2d(0.5, 0.0)
    assert verify_deformation(sw_map(params), params).passed
    wrong = DeformationParams.isotropic_2d(0.5, 1e-300)
    rep = verify_deformation(sw_map(params), wrong)
    assert (rep.ratio_pp, rep.passed) == (np.inf, False)


def test_verify_deformation_scales_each_entry_by_its_own_terms():
    # xp = A D^T = diag(1, 1.5), 50% off diag(1, 1); the largest entries
    # of A and D (1e5 and 1.5e5) must not widen the (1, 1) entry's bound
    A, D = np.diag([1e5, 1e-5]), np.diag([1e-5, 1.5e5])
    m = PhaseSpaceMap(dim=2, A=A, B=np.zeros((2, 2)), C=np.zeros((2, 2)), D=D)
    rep = verify_deformation(m, DeformationParams.isotropic_2d(0.0, 0.0), tol=1e-10)
    assert rep.max_abs_xp == pytest.approx(0.5, rel=1e-12)
    assert not rep.passed


def test_map_json_roundtrip_is_bit_faithful():
    rng = np.random.default_rng(77)
    m = random_map(rng, 3)
    text = map_to_json(m, hbar=1.25)
    m2, hbar = map_from_json(text)
    assert hbar == 1.25
    assert np.array_equal(m.matrix, m2.matrix)
    assert map_to_json(m2, hbar=hbar) == text


def test_params_json_roundtrip():
    p = DeformationParams.from_triples_3d((0.1, -0.2, 0.3), (1.0, 2.0, -3.0), hbar=0.9)
    p2 = params_from_json(params_to_json(p))
    assert p2.hbar == p.hbar
    assert np.array_equal(p.theta, p2.theta)
    assert np.array_equal(p.eta, p2.eta)
    doc = json.loads(params_to_json(p))
    assert doc["dim"] == 3


@settings(max_examples=60, deadline=None)
@given(scale=st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False))
def test_sw_table_property(scale):
    theta = antisymmetric_2d(scale)
    params = DeformationParams(dim=2, theta=theta, eta=np.zeros((2, 2)))
    t = bracket_table(sw_map(params))
    assert np.abs(t.xx - theta).max() <= 1e-12 * max(1.0, abs(scale))
    assert np.all(t.pp == 0.0)
    assert np.abs(t.xp - np.eye(2)).max() <= 1e-12


def scaled_blocks(rng, dim):
    # each block at its own power of two, each entry within 10^+-6 of it
    return (rng.uniform(-1.0, 1.0, (4, dim, dim)) * 2.0 ** rng.integers(-200, 201, (4, 1, 1))
            * 10.0 ** rng.uniform(-6.0, 6.0, (4, dim, dim)))


def test_bracket_routes_agree_entrywise_at_every_scale():
    # against 1e-13 max(1, max|M J M^T|), about 3% of these maps raised: a
    # large block product that cancels leaves its rounding in a small entry
    rng = np.random.default_rng(61)
    for i in range(2000):
        dim = 2 + i % 2
        bracket_table(PhaseSpaceMap(dim, *scaled_blocks(rng, dim)), hbar=1.3)


def test_bracket_route_check_catches_a_perturbed_symplectic_form(monkeypatch):
    # J off by 1e-10 relative: at block scale 2^-70 every bracket is about
    # 2^-140, far below the absolute 1e-13 a max(1, ...) floor allowed
    rng = np.random.default_rng(62)
    m = PhaseSpaceMap(2, *(rng.uniform(-1.0, 1.0, (4, 2, 2)) * 2.0 ** -70))
    bracket_table(m)
    exact = algebra.symplectic_form
    monkeypatch.setattr(algebra, "symplectic_form", lambda dim: exact(dim) * (1.0 + 1e-10))
    with pytest.raises(RuntimeError, match="bracket route disagreement"):
        bracket_table(m)


def test_bracket_table_returns_an_overflowing_table():
    # a table with non-finite entries is no route disagreement; the
    # deviation check then fails it
    m = PhaseSpaceMap(2, *np.full((4, 2, 2), 1e200))
    with np.errstate(over="ignore", invalid="ignore"):
        t = bracket_table(m)
        rep = verify_deformation(m, DeformationParams.commutative(2))
    assert not np.isfinite(t.xp).all()
    assert not rep.passed
