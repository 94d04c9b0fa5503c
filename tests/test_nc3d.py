"""3D residual, closed-form completion, generator, and the damped solver."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ncphase.nc3d import (
    CLASSES_3D,
    UNKNOWN_NAMES,
    complete3d,
    frozen_mask,
    generate_feasible_3d,
    jacobian3d,
    pack,
    params3d_from_json,
    params3d_to_json,
    residual3d,
    residual_3d,
    residual_scale,
    solve_3d,
    unpack,
)

FEASIBLE_TOL = 1e-12
EPS = np.finfo(float).eps
# the off-diagonal entries (1,2), (1,3), (2,3) as index arrays
OFF = ((0, 0, 1), (1, 2, 2))


def random_point(rng):
    return unpack(rng.uniform(-2.0, 2.0, 18))


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1.0, 1.0, 18)
    assert_allclose(pack(unpack(x)), x, atol=0.0)
    assert UNKNOWN_NAMES[0] == "f_theta_x"
    assert UNKNOWN_NAMES[12] == "theta_1"
    assert len(UNKNOWN_NAMES) == 18


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


def blocks(x):
    """F = f_theta - theta and G = f_eta - eta of one packed vector, built
    element by element."""
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
    return F, G


def residual_oracle(x):
    # per-entry reference: both blocks element by element, then a scalar
    # triple loop for the product
    F, G = blocks(x)
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


def packed(F, G):
    """The packed vector of blocks F = f_theta - theta and G = f_eta - eta."""
    sym = [np.concatenate([np.diag(M), 0.5 * (M + M.T)[OFF]]) for M in (F, G)]
    return np.concatenate(sym + [0.5 * (M.T - M)[OFF] for M in (F, G)])


def kernel_lambda(x):
    """n^T f_eta n, with n spanning ker F taken from the SVD of F."""
    F, G = blocks(x)
    n = np.linalg.svd(F)[2][-1]
    return n @ (0.5 * (G + G.T)) @ n


def test_completion_reproduces_generated_instances():
    xs = np.array([pack(generate_feasible_3d(seed)) for seed in range(200)])
    lam = np.array([kernel_lambda(x) for x in xs])
    out, kind, det_ratio, compat = complete3d(xs, lam)
    assert kind.dtype == np.int8 and (kind == CLASSES_3D.index("Regular")).all()
    assert det_ratio.max() <= 1e-14 and compat.max() <= 1e-14
    assert np.array_equal(out[:, :6], xs[:, :6]) and np.array_equal(out[:, 12:], xs[:, 12:])
    f_eta = xs[:, 6:12]
    assert (np.abs(out[:, 6:12] - f_eta).max(1) <= 4e-15 * np.abs(f_eta).max(1)).all()
    # the residual of each completion: a few ulps of max|F| max|G|
    for x, r in zip(out, residual3d(out)):
        F, G = blocks(x)
        assert np.abs(r).max() <= 8 * EPS * np.abs(F).max() * np.abs(G).max()


def test_completion_where_a_route_denominator_vanishes():
    # a feasible instance with f_theta_1 + theta_1 = F[1, 0] = 0: the
    # completion divides by no entry of F
    F = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 1.0], [1.0, 3.0, 4.0]])
    n = np.linalg.svd(F)[2][-1]
    x = packed(F, np.outer(n, [0.3, -1.2, 0.7]))
    assert x[3] + x[12] == 0.0 and np.abs(residual3d(x)).max() <= 1e-15
    out, kind, _, _ = complete3d(x, kernel_lambda(x))
    assert CLASSES_3D[kind] == "Regular"
    assert np.abs(out - x).max() <= 1e-15
    assert np.abs(residual3d(out)).max() <= 1e-15


def test_uniform_draws_are_rank_three():
    # a generic F is invertible, so only G = 0 solves: no completion
    xs = np.random.default_rng(9).uniform(-2.0, 2.0, (100_000, 18))
    out, kind, det_ratio, _ = complete3d(xs, 0.5)
    assert (kind == CLASSES_3D.index("RankThree")).all()
    assert det_ratio.min() > 1e3 * 1e-10
    assert np.isnan(out[:, 6:12]).all()


def test_completion_classes():
    x = pack(generate_feasible_3d(5))
    eta_off = x.copy()
    eta_off[15:18] += 0.1  # moves b off the plane orthogonal to n
    low = packed(np.outer([1.0, 2.0, -1.0], [0.5, 0.0, 3.0]), blocks(x)[1])
    huge = x.copy()
    huge[:6] *= 1e200
    cases = {"Regular": (x, 0.0), "Incompatible": (eta_off, 0.0), "RankAtMostOne": (low, 0.0),
             "NonFinite": (x, np.inf)}
    for name, (xi, lam) in cases.items():
        out, kind, _, _ = complete3d(xi, lam)
        assert CLASSES_3D[kind] == name
        assert np.isnan(out[6:12]).all() == (name != "Regular")
    for bad in (np.nan, np.inf):
        y = x.copy()
        y[7] = bad  # an input f_eta slot is an input too
        assert CLASSES_3D[complete3d(y, 0.0)[1]] == "NonFinite"
    # finite input whose cross products overflow
    assert CLASSES_3D[complete3d(huge, 0.0)[1]] == "NonFinite"
    # F = 0 reads 0/0 as 0 in every ratio
    zero = np.zeros(18)
    out, kind, det_ratio, _ = complete3d(zero, 0.0)
    assert CLASSES_3D[kind] == "RankAtMostOne" and det_ratio == 0.0


def test_one_vector_is_the_n1_call():
    xs = np.array([pack(generate_feasible_3d(seed)) for seed in range(5)])
    lam = np.linspace(-1.0, 1.0, 5)
    batch = complete3d(xs, lam)
    for i in range(5):
        single = complete3d(xs[i], lam[i])
        assert single[0].shape == (18,) and single[1].shape == ()
        for b, v in zip(batch, single):
            assert np.array_equal(b[i], v)


def rotation(q):
    """The rotation of the unit quaternion along q (det +1)."""
    a, b, c, d = np.asarray(q) / np.linalg.norm(q)
    return np.array([
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
    ])


SEEDS = st.integers(0, 10_000)
EXPONENTS = st.integers(-200, 200)
QUATERNIONS = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda q: np.linalg.norm(q) > 0.1)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, k=EXPONENTS, j=EXPONENTS, uniform=st.booleans())
def test_completion_scales_with_each_sector_bit_for_bit(seed, k, j, uniform):
    # theta sector (f_theta, theta) by 2^k, eta sector (f_eta, eta, lam) by 2^j
    if uniform:
        x = np.random.default_rng(seed).uniform(-2.0, 2.0, 18)
    else:
        x = pack(generate_feasible_3d(seed))
    lam = kernel_lambda(x)
    y = x.copy()
    y[np.r_[0:6, 12:15]] *= 2.0 ** k
    y[np.r_[6:12, 15:18]] *= 2.0 ** j
    out, kind, det_ratio, compat = complete3d(x, lam)
    out_s, kind_s, det_s, compat_s = complete3d(y, lam * 2.0 ** j)
    assert kind_s == kind and det_s == det_ratio
    assert np.array_equal(compat_s, compat, equal_nan=True)
    assert np.array_equal(out_s[6:12], out[6:12] * 2.0 ** j, equal_nan=True)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, q=QUATERNIONS)
def test_rotated_input_gives_the_rotated_completion(seed, q):
    # (R F R^T)(R G R^T) = R F G R^T; lam = n^T f_eta n is unchanged as n -> R n
    x = pack(generate_feasible_3d(seed))
    lam = kernel_lambda(x)
    F, G = blocks(x)
    R = rotation(q)
    xr = packed(R @ F @ R.T, R @ G @ R.T)
    out, kind, _, _ = complete3d(x, lam)
    out_r, kind_r, _, _ = complete3d(xr, lam)
    assert kind == kind_r == CLASSES_3D.index("Regular")
    S, S_r = (0.5 * (M + M.T) for M in (blocks(out)[1], blocks(out_r)[1]))
    # n moves by about eps times the condition of F on its range
    sv = np.linalg.svd(F, compute_uv=False)
    assert np.abs(R @ S @ R.T - S_r).max() <= 1e-14 * (sv[0] / sv[1]) * np.abs(S).max()


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, q=QUATERNIONS, uniform=st.booleans())
def test_residual_norm_is_rotation_invariant(seed, q, uniform):
    if uniform:
        x = np.random.default_rng(seed).uniform(-2.0, 2.0, 18)
    else:
        x = pack(generate_feasible_3d(seed))
    F, G = blocks(x)
    R = rotation(q)
    xr = packed(R @ F @ R.T, R @ G @ R.T)
    gap = abs(np.linalg.norm(residual3d(xr)) - np.linalg.norm(residual3d(x)))
    assert gap <= 1e-14 * np.linalg.norm(F) * np.linalg.norm(G)
