"""2D completion: worked values, singular classification, imaginary branch."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ncphase.algebra import DeformationParams, verify_deformation
from ncphase.nc2d import (
    SINGULAR_KINDS,
    Params2D,
    SingularBranchError,
    SingularKind,
    classify_singular_batch,
    complete_2d,
    complete_2d_imaginary,
    maps_2d,
    params2d_from_json,
    params2d_to_doc,
    params2d_to_json,
    residual_2d,
)

RESIDUAL_TOL = 1e-12
ROUTE_RTOL = 1e-12


def regular_draw(rng):
    # keep all four singular combinations and the pivot away from zero
    while True:
        theta, eta = rng.uniform(-2.0, 2.0, 2)
        f_theta, f_eta = rng.uniform(-3.0, 3.0, 2)
        f_theta_x = rng.uniform(-2.0, 2.0)
        guards = (f_theta - theta, f_theta + theta, f_eta - eta, f_eta + eta, f_theta_x)
        if min(abs(g) for g in guards) > 0.1:
            return theta, eta, f_theta, f_eta, f_theta_x


def test_worked_instance_exact():
    p = complete_2d(1.0, 2.0, 2.0, 4.0, 3.0)
    assert p.f_theta_y == 1.0
    assert p.f_eta_x == -2.0
    assert p.f_eta_y == -6.0
    assert np.abs(residual_2d(p)).max() == 0.0


def test_worked_instance_map_blocks():
    p = complete_2d(1.0, 2.0, 2.0, 4.0, 3.0)
    m = maps_2d(p)
    assert_allclose(m.B, [[1.5, 0.5], [1.5, 0.5]], atol=0.0)
    assert_allclose(m.C, [[-1.0, 3.0], [1.0, -3.0]], atol=0.0)
    params = DeformationParams.isotropic_2d(1.0, 2.0)
    assert verify_deformation(m, params, tol=1e-12).passed


def test_pivot_y_mirror():
    # completing from f_theta_y must land on the same surface
    p = complete_2d(1.0, 2.0, 2.0, 4.0, f_theta_y=1.0)
    assert p.f_theta_x == pytest.approx(3.0, rel=1e-14)
    assert np.abs(residual_2d(p)).max() <= RESIDUAL_TOL


def test_random_regular_completions():
    rng = np.random.default_rng(19)
    for _ in range(300):
        theta, eta, f_theta, f_eta, f_theta_x = regular_draw(rng)
        p = complete_2d(theta, eta, f_theta, f_eta, f_theta_x)
        scale = max(1.0, max(abs(v) for v in
                             (theta, eta, f_theta, f_eta, p.f_theta_x, p.f_theta_y,
                              p.f_eta_x, p.f_eta_y)) ** 2)
        assert np.abs(residual_2d(p)).max() <= RESIDUAL_TOL * scale


def classify_one(theta, eta, f_theta, f_eta, pivot):
    (code,) = classify_singular_batch([theta], [eta], [f_theta], [f_eta], [pivot])
    return SINGULAR_KINDS[code]


def test_classification_priority():
    assert classify_one(1.0, 0.0, 1.0, 5.0, 1.0) is SingularKind.F_THETA_PLUS
    assert classify_one(1.0, 0.0, -1.0, 5.0, 1.0) is SingularKind.F_THETA_MINUS
    assert classify_one(1.0, 2.0, 3.0, 2.0, 1.0) is SingularKind.F_ETA_PLUS
    assert classify_one(1.0, 2.0, 3.0, -2.0, 1.0) is SingularKind.F_ETA_MINUS
    assert classify_one(1.0, 2.0, 3.0, 4.0, 0.0) is SingularKind.ZERO_PIVOT
    assert classify_one(1.0, 2.0, 3.0, 4.0, 1.0) is SingularKind.REGULAR
    # f_theta singularities shadow the eta ones
    assert classify_one(1.0, 2.0, 1.0, 2.0, 0.0) is SingularKind.F_THETA_PLUS


def test_singular_raises_with_kind():
    with pytest.raises(SingularBranchError) as err:
        complete_2d(1.0, 2.0, 1.0, 4.0, 3.0)
    assert err.value.kind is SingularKind.F_THETA_PLUS
    with pytest.raises(SingularBranchError) as err:
        complete_2d(1.0, 2.0, 2.0, 4.0, 0.0)
    assert err.value.kind is SingularKind.ZERO_PIVOT


def test_mirror_symmetry():
    # negating both deformations while swapping the diagonal slots keeps
    # the product zero
    p = complete_2d(1.0, 2.0, 2.0, 4.0, 3.0)
    q = Params2D(theta=-p.theta, eta=-p.eta, f_theta=p.f_theta, f_eta=p.f_eta,
                 f_theta_x=p.f_theta_y, f_theta_y=p.f_theta_x,
                 f_eta_x=p.f_eta_y, f_eta_y=p.f_eta_x)
    assert np.abs(residual_2d(q)).max() <= RESIDUAL_TOL


def test_jacobian_rank_on_solution_surface():
    # the residual map R^8 -> R^4 has rank 3 at regular completed points,
    # leaving a 5-dimensional local solution manifold
    def resid(v):
        return residual_2d(Params2D(*v))

    rng = np.random.default_rng(3)
    for _ in range(10):
        p = complete_2d(*regular_draw(rng))
        v0 = np.array([p.theta, p.eta, p.f_theta, p.f_eta,
                       p.f_theta_x, p.f_theta_y, p.f_eta_x, p.f_eta_y])
        J = np.empty((4, 8))
        for j in range(8):
            vp, vm = v0.copy(), v0.copy()
            vp[j] += 1e-6
            vm[j] -= 1e-6
            J[:, j] = (resid(vp) - resid(vm)) / 2e-6
        s = np.linalg.svd(J, compute_uv=False)
        assert int((s > 1e-8 * s[0]).sum()) == 3


def test_imaginary_examples():
    p = complete_2d_imaginary(1.0, 2.0, 1.0j, 4.0, 1.0)
    assert p.f_theta_y == pytest.approx(0.0, abs=1e-15)
    q = complete_2d_imaginary(1.0, 2.0, 2.0j, 4.0, 2.0)
    assert q.f_theta_y == pytest.approx(1.5, rel=1e-14)
    assert p.imaginary_mode and q.imaginary_mode


def test_imaginary_reduces_to_real():
    p = complete_2d_imaginary(1.0, 2.0, 2.0 + 0.0j, 4.0, 3.0)
    assert not p.imaginary_mode
    assert p.f_theta_y == 1.0


def test_imaginary_zero_theta_residual_vanishes():
    # with no position deformation the hermitianized product is exactly zero
    p = complete_2d_imaginary(0.0, 2.0, 1.5j, 4.0, 1.0)
    assert np.abs(residual_2d(p)).max() <= 1e-12


def test_maps_rejects_imaginary_mode():
    p = complete_2d_imaginary(1.0, 2.0, 1.0j, 4.0, 1.0)
    with pytest.raises(ValueError):
        maps_2d(p)


def test_json_roundtrip_real_and_complex():
    p = complete_2d(1.0, 2.0, 2.0, 4.0, 3.0)
    assert params2d_from_json(params2d_to_json(p)) == p
    q = complete_2d_imaginary(1.0, 2.0, 2.0j, 4.0, 2.0)
    q2 = params2d_from_json(params2d_to_json(q))
    assert q2.f_theta == q.f_theta
    assert q2.f_eta_x == q.f_eta_x
    doc = json.loads(params2d_to_json(q))
    assert doc["f_theta"] == [0.0, 2.0]


@pytest.mark.parametrize("p", [
    complete_2d(1.0, 2.0, 2.0, 4.0, 3.0),
    complete_2d(1.0, 2.0, 2.0, 4.0, f_theta_y=-0.5),
    complete_2d_imaginary(1.0, 2.0, 0.5 + 2.0j, 4.0, 2.0),
], ids=["x-pivot", "y-pivot", "imaginary"])
def test_params2d_to_doc_is_the_json_document(p):
    assert params2d_to_doc(p) == json.loads(params2d_to_json(p))


@settings(max_examples=80, deadline=None)
@given(
    theta=st.floats(-2.0, 2.0),
    eta=st.floats(-2.0, 2.0),
    f_theta=st.floats(-3.0, 3.0),
    f_eta=st.floats(-3.0, 3.0),
    f_theta_x=st.floats(-2.0, 2.0),
)
def test_completion_property(theta, eta, f_theta, f_eta, f_theta_x):
    guards = (f_theta - theta, f_theta + theta, f_eta - eta, f_eta + eta, f_theta_x)
    if min(abs(g) for g in guards) <= 0.05:
        return
    p = complete_2d(theta, eta, f_theta, f_eta, f_theta_x)
    scale = max(1.0, max(abs(v) for v in
                         (theta, eta, f_theta, f_eta, p.f_theta_x, p.f_theta_y,
                          p.f_eta_x, p.f_eta_y)) ** 2)
    assert np.abs(residual_2d(p)).max() <= RESIDUAL_TOL * scale


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("slot", range(5))
def test_non_finite_arguments_raise_value_error(bad, slot):
    args = [1.0, 2.0, 2.0, 4.0, 3.0]
    args[slot] = bad
    with pytest.raises(ValueError, match="must be finite"):
        complete_2d(*args)
    imag = [1.0, 2.0, 2.0 + 0.5j, 4.0, 3.0]
    imag[slot] = bad
    with pytest.raises(ValueError, match="must be finite"):
        complete_2d_imaginary(*imag)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_completion_raises_value_error():
    # finite arguments whose closed forms leave the float range
    with pytest.raises(ValueError, match="overflows"):
        complete_2d(1e200, 3e200, 2e200, 4e200, 3e200)
    with pytest.raises(ValueError, match="overflows"):
        complete_2d(1e150, 2e160, 2e150, 4e160, 1e141)  # f_eta_x overflows
