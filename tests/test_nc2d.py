"""2D completion: worked values, singular classification, imaginary branch."""
import dataclasses
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import exact_oracle
from ncphase.algebra import DeformationParams, verify_deformation
from ncphase.nc2d import (
    SINGULAR_KINDS,
    Params2D,
    SingularBranchError,
    SingularKind,
    classify_singular_batch,
    complete_2d,
    complete_2d_batch,
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


def test_verify_deformation_rejects_wrong_signs_beside_a_large_cancelling_entry():
    # B_00 = f_theta_x / 2 = 5e11 cancels in xx = B^T - B; it must not
    # widen the bound of the xx and pp entries the signs sit in
    m = maps_2d(complete_2d(1.0, 2.0, 2.0, 4.0, 1e12))
    for target, passes in (((1.0, 2.0), True), ((-1.0, 2.0), False), ((1.0, -2.0), False)):
        rep = verify_deformation(m, DeformationParams.isotropic_2d(*target), tol=1e-10)
        assert rep.passed is passes, target


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


def test_maps_of_complex_entries_without_imaginary_part():
    # a real-mode instance built by hand with complex(x, 0.0) entries is
    # the instance of their real parts, without a ComplexWarning
    real = complete_2d(1.0, 2.0, 2.0, 4.0, 3.0)
    fields = {name: complex(getattr(real, name), 0.0)
              for name in ("theta", "f_theta", "f_eta_x", "f_eta_y")}
    hand_built = dataclasses.replace(real, **fields)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = maps_2d(hand_built)
    want = maps_2d(real)
    for name in "ABCD":
        assert np.array_equal(getattr(m, name), getattr(want, name))


def test_maps_eta_block_adds_the_zero_diagonal_of_eta():
    # C = (f_eta_mat + eta_mat) / (2 hbar): a -0.0 diagonal entry plus
    # eta's +0.0 diagonal reads +0.0
    p = Params2D(1.0, 2.0, 2.0, 4.0, 3.0, 1.0, -0.0, -0.0)
    C = maps_2d(p).C
    assert np.signbit(C.diagonal()).tolist() == [False, False]
    assert C.tolist() == [[0.0, 3.0], [1.0, 0.0]]


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


# Accuracy against exact arithmetic (exact_oracle): every field of every
# passing draw, in ulps of the exact value (of its magnitude, if complex).

U = 2.0 ** -53  # the unit roundoff of a float
N_DRAWS = 1500


def real_draws(rng, near_line):
    """Uniform draws in [-5, 5]; with ``near_line``, f_theta or f_eta at a
    relative gap of 1e-9..1e-3 from one of the four singular lines."""
    t, e, f, fe, pivot = rng.uniform(-5.0, 5.0, (5, N_DRAWS))
    if near_line:
        gap = 10.0 ** rng.uniform(-9.0, -3.0, N_DRAWS) * rng.choice([-1.0, 1.0], N_DRAWS)
        line = rng.integers(0, 4, N_DRAWS)
        sign = np.where(line % 2 == 0, 1.0, -1.0)
        f = np.where(line < 2, sign * t * (1.0 + gap), f)
        fe = np.where(line >= 2, sign * e * (1.0 + gap), fe)
    return t, e, f, fe, pivot


def imaginary_draws(rng, near_circle):
    """Draws of a complex f_theta = f + i fi from the x pivot.  Away from the
    circle |f_theta| = |theta|, f^2 - theta^2 and fi^2 cancel by at most
    half; near it, fi^2 = (theta^2 - f^2)(1 + gap) at a gap of 1e-9..1e-3."""
    t, e, f, fe, pivot, fi = rng.uniform(-5.0, 5.0, (6, N_DRAWS))
    if near_circle:
        f = t * rng.uniform(-0.99, 0.99, N_DRAWS)
        gap = 10.0 ** rng.uniform(-9.0, -3.0, N_DRAWS) * rng.choice([-1.0, 1.0], N_DRAWS)
        fi = np.sqrt(t * t - f * f) * (1.0 + gap)
    else:
        mp = (f - t) * (f + t)
        away = np.abs(mp + fi * fi) >= 0.5 * (np.abs(mp) + fi * fi)
        t, e, f, fe, pivot, fi = (a[away] for a in (t, e, f, fe, pivot, fi))
    return t, e, f, fe, pivot, fi


def passing_errors(t, e, f, fe, pivot, by_y=False, fi=None):
    """(draw, field name, ulps) of every completed field of every passing
    draw, and the draws' Completion2D."""
    kw = {"f_theta_y" if by_y else "f_theta_x": pivot}
    if fi is not None:
        kw["f_theta_imag"] = fi
    done = complete_2d_batch(t, e, f, fe, **kw)
    passed = np.flatnonzero(done.stage < 0)
    assert passed.size > 0.9 * t.size
    out = []
    for i in passed:
        p = done.params(i)
        want = exact_oracle.completion(t[i], e[i], f[i], fe[i],
                                       f_theta_x=None if by_y else pivot[i],
                                       f_theta_y=pivot[i] if by_y else None,
                                       f_theta_imag=0.0 if fi is None else fi[i])
        for name, exact in zip(("f_theta_x", "f_theta_y", "f_eta_x", "f_eta_y"), want):
            out.append((i, name, exact_oracle.ulps(getattr(p, name), exact)))
        # the residual the engine reports is the exact residual of the fields
        # it returns, up to the rounding of the 2x2 product
        entries = exact_oracle.residual(p)
        worst = max(entry.magnitude() for entry, _ in entries)
        terms = max(size for _, size in entries)
        assert abs(done.residual_max[i] - worst) <= 8 * U * terms
    return out, done


@pytest.mark.parametrize("by_y", [False, True], ids=["x-pivot", "y-pivot"])
@pytest.mark.parametrize("near_line", [False, True], ids=["uniform", "near-a-line"])
def test_real_completion_is_within_4_ulps_of_exact(near_line, by_y):
    # the factored f_theta^2 - theta^2 = (f_theta - theta)(f_theta + theta)
    # has no cancellation; 2.8 ulps was the worst of 8e4 such draws
    rng = np.random.default_rng([21, near_line, by_y])
    errors, _ = passing_errors(*real_draws(rng, near_line), by_y=by_y)
    assert max(u for _, _, u in errors) <= 4.0


def test_imaginary_completion_away_from_the_circle_is_within_6_ulps_of_exact():
    # 2.7 ulps was the worst of 1.5e4 such draws
    *draws, fi = imaginary_draws(np.random.default_rng(22), False)
    errors, _ = passing_errors(*draws, fi=fi)
    assert max(u for _, _, u in errors) <= 6.0


def test_imaginary_completion_near_the_circle_loses_what_the_cancellation_costs():
    # A known limit: f_theta_y = ((f - theta)(f + theta) + fi^2) / f_theta_x
    # cancels as |f_theta| nears |theta|, and is off by up to 7e8 ulps at a
    # gap of 1e-9 (4.9e9 with the unfactored form).  Its error stays within
    # the rounding of the two terms (1.3 u of their size was measured); the
    # f_eta fields stay within 6 ulps.
    t, e, f, fe, pivot, fi = imaginary_draws(np.random.default_rng(23), True)
    errors, done = passing_errors(t, e, f, fe, pivot, fi=fi)
    for i, name, u in errors:
        if name != "f_theta_y":
            assert u <= 6.0, (i, name)
            continue
        exact = exact_oracle.completion(t[i], e[i], f[i], fe[i], f_theta_x=pivot[i],
                                        f_theta_imag=fi[i])[1].re
        terms = (abs((Fraction(f[i]) - Fraction(t[i])) * (Fraction(f[i]) + Fraction(t[i])))
                 + Fraction(fi[i]) ** 2) / abs(Fraction(pivot[i]))
        assert abs(Fraction(done.f_theta_y[i]) - exact) <= 4 * U * terms, i
    assert max(u for _, name, u in errors if name == "f_theta_y") > 1e6  # the limit is real


def singular_draws(rng, n=600):
    """Draws on, just inside and just outside each singular line and the
    zero pivot, in sectors of independent scales 10^[-6, 6]: each gap is a
    multiple (0, 0.5 or 2) of the line's tolerance, far from its edge."""
    s, r = 10.0 ** rng.uniform(-6.0, 6.0, (2, n))
    t, f = s * rng.uniform(-2.0, 2.0, (2, n))
    e, fe = r * rng.uniform(-2.0, 2.0, (2, n))
    pivot = s * rng.uniform(-2.0, 2.0, n)
    line = rng.integers(0, 6, n)
    k = rng.choice([0.0, 0.5, -0.5, 2.0, -2.0], n)
    theta_tol = 1e-10 * np.maximum(np.abs(t), 1.0)
    eta_tol = 1e-10 * np.maximum(np.abs(e), 1.0)
    f = np.select([line == 0, line == 1], [t + k * theta_tol, -t + k * theta_tol], f)
    fe = np.select([line == 2, line == 3], [e + k * eta_tol, -e + k * eta_tol], fe)
    pivot = np.where(line == 4, k * theta_tol, pivot)
    return t, e, f, fe, pivot


def test_singular_classes_match_exact_arithmetic():
    t, e, f, fe, pivot = singular_draws(np.random.default_rng(24))
    got = classify_singular_batch(t, e, f, fe, pivot)
    want = [exact_oracle.singular_class(*args) for args in zip(t, e, f, fe, pivot)]
    assert [SINGULAR_KINDS[c].value for c in got] == want
    assert len(set(want)) == 6


@pytest.mark.parametrize("args, kind", [
    # f_eta is 0.05 off eta: far from the eta line at the eta sector's scale,
    # once inside a tolerance scaled by theta = 1e12
    ((1e12, 1.0, 2e12, 1.05, 3e12), "Regular"),
    # a relative gap of 1e-11 to the eta line, inside the 1e-10 relative
    # tolerance at eta's own scale; a tolerance of the theta sector's scale
    # would read it Regular
    ((1.0, 1e12, 1.05, 1.00000000001e12, 3.0), "FEtaPlus"),
], ids=["theta-sector-large", "eta-sector-large"])
def test_eta_lines_use_the_eta_sector_tolerance(args, kind):
    assert classify_one(*args).value == kind == exact_oracle.singular_class(*args)

