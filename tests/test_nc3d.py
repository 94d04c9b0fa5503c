"""3D residual, auxiliary identities, generator, and the damped solver."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from ncphase.nc3d import (
    UNKNOWN_NAMES,
    DegenerateDenominatorError,
    Params3D,
    aux_quantities,
    eliminate_3d,
    frozen_mask,
    generate_feasible_3d,
    jacobian3d,
    pack,
    params3d_from_json,
    params3d_to_json,
    residual3d,
    residual_3d,
    residual_3d_from_aux,
    residual_scale,
    solve_3d,
    unpack,
)

FEASIBLE_TOL = 1e-12
AUX_AGREEMENT_TOL = 1e-10


def random_point(rng):
    return unpack(rng.uniform(-2.0, 2.0, 18))


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1.0, 1.0, 18)
    assert_allclose(pack(unpack(x)), x, atol=0.0)
    assert UNKNOWN_NAMES[0] == "f_theta_x"
    assert UNKNOWN_NAMES[12] == "theta_1"
    assert len(UNKNOWN_NAMES) == 18


def test_theta_eta_pair_sums():
    p = unpack(np.zeros(18))
    p = Params3D(theta=(1.0, 2.0, 3.0), eta=(4.0, 5.0, 6.0),
                 f_theta_diag=p.f_theta_diag, f_theta_off=p.f_theta_off,
                 f_eta_diag=p.f_eta_diag, f_eta_off=p.f_eta_off)
    aux = aux_quantities(p)
    assert aux.theta_eta == pytest.approx((14.0, 22.0, 28.0), abs=0.0)


def test_aux_route_matches_matrix_product():
    # the scalar recombination must reproduce the direct product at any
    # point, not just feasible ones
    rng = np.random.default_rng(31)
    for _ in range(200):
        p = random_point(rng)
        direct = residual_3d(p)
        via_aux = residual_3d_from_aux(p)
        assert np.abs(direct - via_aux).max() <= AUX_AGREEMENT_TOL * residual_scale(p)


def test_generator_is_exactly_feasible():
    for seed in range(50):
        p = generate_feasible_3d(seed)
        assert np.abs(residual_3d(p)).max() <= FEASIBLE_TOL * residual_scale(p)


def test_generator_zero_momentum_sector():
    p = generate_feasible_3d(4, force_zero_c=True)
    assert p.f_eta_diag == (0.0, 0.0, 0.0)
    assert p.f_eta_off == (0.0, 0.0, 0.0)
    assert p.eta == (0.0, 0.0, 0.0)
    assert np.abs(residual_3d(p)).max() == 0.0


def test_elimination_consistent_at_feasible_points():
    for seed in range(20):
        p = generate_feasible_3d(seed)
        res = eliminate_3d(p)
        assert res.consistent, res.max_gap
        for name in ("f_eta_x", "f_eta_y", "f_eta_z"):
            assert len(res.estimates[name]) == 3


def test_elimination_flags_vanishing_denominator():
    p = generate_feasible_3d(0)
    q = Params3D(theta=(p.f_theta_off[0], p.theta[1], p.theta[2]), eta=p.eta,
                 f_theta_diag=p.f_theta_diag, f_theta_off=p.f_theta_off,
                 f_eta_diag=p.f_eta_diag, f_eta_off=p.f_eta_off)
    with pytest.raises(DegenerateDenominatorError) as err:
        eliminate_3d(q)
    assert "f_theta_1" in str(err.value)


def test_elimination_detects_infeasible_point():
    rng = np.random.default_rng(9)
    p = random_point(rng)
    res = eliminate_3d(p)
    assert not res.consistent


def test_frozen_mask_forms():
    m1 = frozen_mask(["theta", "eta"])
    assert m1[12:].all() and not m1[:12].any()
    m2 = frozen_mask(["f_theta_x", "eta_3"])
    assert m2[0] and m2[17] and m2.sum() == 2
    m3 = frozen_mask(None)
    assert not m3.any()
    arr = np.zeros(18, dtype=bool)
    arr[5] = True
    assert frozen_mask(arr)[5]
    with pytest.raises(ValueError):
        frozen_mask(["no_such_name"])


def test_solver_reconverges_from_perturbation():
    rng = np.random.default_rng(14)
    ok = 0
    for seed in range(40):
        p = generate_feasible_3d(seed)
        x = pack(p)
        x[6:12] += 1e-3 * rng.standard_normal(6)
        res = solve_3d(unpack(x), frozen=["theta", "eta"], tol=1e-10, max_iter=20)
        ok += res.converged and res.residual_max <= 1e-10
    assert ok >= 38


def test_solver_zero_iterations_when_already_solved():
    p = generate_feasible_3d(1)
    res = solve_3d(p, frozen=["theta", "eta"])
    assert res.converged and res.iterations == 0


def test_solver_all_frozen_reports_floor():
    x = pack(generate_feasible_3d(7))
    x[:12] = 0.0
    res = solve_3d(unpack(x), frozen=["f_theta", "f_eta", "theta", "eta"])
    assert not res.converged
    assert res.iterations == 0
    assert "frozen" in res.message
    # the floor is the product of the bare deformation matrices
    th = np.array([[0.0, x[12], x[13]], [-x[12], 0.0, x[14]], [-x[13], -x[14], 0.0]])
    et = np.array([[0.0, x[15], x[16]], [-x[15], 0.0, x[17]], [-x[16], -x[17], 0.0]])
    assert res.residual_max == pytest.approx(np.abs(th @ et).max(), abs=0.0)


def test_solver_trace_history():
    x = pack(generate_feasible_3d(3))
    x[6:12] += 1e-3
    res = solve_3d(unpack(x), frozen=["theta", "eta"], trace=True)
    assert res.converged
    # entry 0 is the starting norm, then one entry per accepted step
    assert len(res.history) == res.iterations + 1
    norms = [h[1] for h in res.history]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_solver_infeasible_frozen_pattern():
    # freezing everything except one diagonal entry cannot kill a generic
    # residual, so the damping ladder must give up with a message
    rng = np.random.default_rng(8)
    p = random_point(rng)
    names = [n for n in UNKNOWN_NAMES if n != "f_theta_x"]
    res = solve_3d(p, frozen=names, tol=1e-10, max_iter=10)
    assert not res.converged
    assert res.message


def test_jacobian_rank_at_feasible_points():
    # 9 equations, 18 unknowns, measured rank 7: an 11-dimensional surface
    xs = np.array([pack(generate_feasible_3d(seed)) for seed in range(10)])
    batched, _ = jacobian3d(xs)
    for x0, exact_row in zip(xs, batched):
        J = np.empty((9, 18))
        for j in range(18):
            xp, xm = x0.copy(), x0.copy()
            xp[j] += 1e-6
            xm[j] -= 1e-6
            J[:, j] = (residual_3d(unpack(xp)) - residual_3d(unpack(xm))) / 2e-6
        exact, r = jacobian3d(x0)
        assert np.abs(exact - J).max() <= 1e-7 * np.abs(exact).max()
        assert np.array_equal(exact_row, exact)
        assert np.array_equal(r, residual3d(x0))
        for jac in (J, exact):
            s = np.linalg.svd(jac, compute_uv=False)
            assert int((s > 1e-7 * s[0]).sum()) == 7


def residual_oracle(x):
    # per-entry reference: build both blocks element by element, then a
    # scalar triple loop for the product
    F = np.empty((3, 3))
    F[0, 0] = x[0]
    F[0, 1] = x[3] - x[12]
    F[0, 2] = x[4] - x[13]
    F[1, 0] = x[3] + x[12]
    F[1, 1] = x[1]
    F[1, 2] = x[5] - x[14]
    F[2, 0] = x[4] + x[13]
    F[2, 1] = x[5] + x[14]
    F[2, 2] = x[2]
    G = np.empty((3, 3))
    G[0, 0] = x[6]
    G[0, 1] = x[9] - x[15]
    G[0, 2] = x[10] - x[16]
    G[1, 0] = x[9] + x[15]
    G[1, 1] = x[7]
    G[1, 2] = x[11] - x[17]
    G[2, 0] = x[10] + x[16]
    G[2, 1] = x[11] + x[17]
    G[2, 2] = x[8]
    r = np.empty(9)
    for i in range(3):
        for j in range(3):
            s = 0.0
            for k in range(3):
                s += F[i, k] * G[k, j]
            r[3 * i + j] = s
    return r


@pytest.mark.parametrize("n", [1, 1000])
def test_batched_residual_matches_oracle(n):
    # the batched product may sum in another order than the loop, so the
    # bound is a few ulps of the largest possible entry, 12 max|x|^2
    rng = np.random.default_rng(55 + n)
    xs = rng.uniform(-3.0, 3.0, (n, 18))
    batched = residual3d(xs)
    assert batched.shape == (n, 9)
    for x, row in zip(xs, batched):
        assert np.abs(row - residual_oracle(x)).max() <= 1e-14 * np.abs(x).max() ** 2
        assert np.array_equal(residual3d(x), row)


def test_json_roundtrip():
    p = generate_feasible_3d(12, hbar=0.7)
    q = params3d_from_json(params3d_to_json(p))
    assert q == p
