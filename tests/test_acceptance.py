"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest -v tests/test_acceptance.py` for the per-criterion
pass/fail lines, or `-s` to see the printed metric summaries too.
"""
import json
import subprocess
import sys

import numpy as np

from ncphase.algebra import (
    DeformationParams,
    PhaseSpaceMap,
    antisymmetric_2d,
    antisymmetric_3d,
    bracket_table,
    compose,
    extended_map,
    invert_map,
    map_to_json,
    params_to_json,
    sw_map,
    sw_obstruction,
    symplectic_form,
    verify_deformation,
)
from ncphase.nc2d import complete_2d, maps_2d, residual_2d
from ncphase.nc3d import (CLASSES_3D, complete3d, generate_feasible_3d, pack, residual_3d,
                          residual_scale, solve_3d, unpack)
from ncphase.dynamics import (
    ClosedFormCoeffs,
    FieldConfig,
    commutative_closed_form,
    equivalence_check,
    extract_rotation_frequency,
    nc_closed_form,
    period,
    simulate_matched,
    time_dependent_ftheta,
    approach_two_ftheta,
    uv_momenta,
    velocity_closed_form,
)

CLI = [sys.executable, "-m", "ncphase.cli"]


def _verdict(num, label, ok, detail=""):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def test_criterion_1_bracket_routes_and_inversion():
    rng = np.random.default_rng(101)
    worst_route = 0.0
    worst_inv = 0.0
    n_inv = 0
    for i in range(1000):
        dim = 2 if i % 2 == 0 else 3
        blocks = rng.uniform(-2.0, 2.0, size=(4, dim, dim))
        m = PhaseSpaceMap(dim=dim, A=blocks[0], B=blocks[1], C=blocks[2], D=blocks[3])
        t = bracket_table(m, hbar=1.0)
        M = m.matrix
        full = M @ symplectic_form(dim) @ M.T
        scale = max(1.0, float(np.abs(M).max()) ** 2)
        gap = max(
            np.abs(t.xx - full[:dim, :dim]).max(),
            np.abs(t.pp - full[dim:, dim:]).max(),
            np.abs(t.xp - full[:dim, dim:]).max(),
        ) / scale
        worst_route = max(worst_route, gap)
        if np.linalg.cond(M) < 1e6:
            r = compose(invert_map(m), m)
            worst_inv = max(worst_inv, float(np.abs(r.matrix - np.eye(2 * dim)).max()))
            n_inv += 1
    ok = worst_route <= 1e-13 and worst_inv <= 1e-12 and n_inv > 900
    _verdict(1, "bracket route agreement + inversion",
             ok, f"route gap {worst_route:.3e}, inversion gap {worst_inv:.3e} over {n_inv} maps")


def test_criterion_2_sw_map():
    rng = np.random.default_rng(102)
    worst = 0.0
    for i in range(100):
        if i % 2 == 0:
            theta = antisymmetric_2d(rng.uniform(-3.0, 3.0))
        else:
            theta = antisymmetric_3d(tuple(rng.uniform(-3.0, 3.0, 3)))
        params = DeformationParams(dim=theta.shape[0], theta=theta,
                                   eta=np.zeros_like(theta))
        rep = verify_deformation(sw_map(params), params, tol=1e-12)
        worst = max(worst, rep.max_abs_xx, rep.max_abs_pp, rep.max_abs_xp)
        assert rep.passed
    _verdict(2, "position-only map reproduces the table", worst <= 1e-12,
             f"worst deviation {worst:.3e} over 100 draws")


def test_criterion_3_obstruction_value():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        theta = antisymmetric_2d(rng.uniform(0.2, 3.0))
        eta = antisymmetric_2d(rng.uniform(0.2, 3.0))
        params = DeformationParams(dim=2, theta=theta, eta=eta)
        m = extended_map(params, np.zeros((2, 2)), np.zeros((2, 2)))
        t = bracket_table(m)
        dev = float(np.abs(t.xp - np.eye(2)).max())
        expected = float(np.abs(theta @ eta).max()) / 4.0
        worst = max(worst, abs(dev - expected))
        assert expected == sw_obstruction(params)

    # vanishing product: either factor zero, or nonzero factors whose
    # block supports do not overlap (needs four dimensions)
    zero_devs = []
    for theta, eta in [
        (np.zeros((2, 2)), antisymmetric_2d(1.5)),
        (antisymmetric_2d(1.5), np.zeros((2, 2))),
    ]:
        params = DeformationParams(dim=2, theta=theta, eta=eta)
        m = extended_map(params, np.zeros((2, 2)), np.zeros((2, 2)))
        zero_devs.append(float(np.abs(bracket_table(m).xp - np.eye(2)).max()))
    th4 = np.zeros((4, 4))
    th4[0, 1], th4[1, 0] = 0.3, -0.3
    et4 = np.zeros((4, 4))
    et4[2, 3], et4[3, 2] = 0.9, -0.9
    assert np.abs(th4 @ et4).max() == 0.0 and np.abs(th4).max() > 0 and np.abs(et4).max() > 0
    params4 = DeformationParams(dim=4, theta=th4, eta=et4)
    m4 = extended_map(params4, np.zeros((4, 4)), np.zeros((4, 4)))
    zero_devs.append(float(np.abs(bracket_table(m4).xp - np.eye(4)).max()))

    ok = worst <= 1e-12 and all(d == 0.0 for d in zero_devs)
    _verdict(3, "cross-block deviation equals the obstruction", ok,
             f"value gap {worst:.3e}, vanishing-product deviations {zero_devs}")


def test_criterion_4_closed_form_2d():
    rng = np.random.default_rng(104)
    worst_resid = 0.0
    worst_route = 0.0
    n = 0
    while n < 1000:
        theta, eta = rng.uniform(-2.0, 2.0, 2)
        f_theta, f_eta = rng.uniform(-3.0, 3.0, 2)
        f_theta_x = rng.uniform(-2.0, 2.0)
        guards = (f_theta - theta, f_theta + theta, f_eta - eta, f_eta + eta, f_theta_x)
        if min(abs(g) for g in guards) <= 0.1:
            continue
        n += 1
        p = complete_2d(theta, eta, f_theta, f_eta, f_theta_x)
        scale = max(1.0, max(abs(v) for v in
                             (theta, eta, f_theta, f_eta, p.f_theta_x, p.f_theta_y,
                              p.f_eta_x, p.f_eta_y)) ** 2)
        worst_resid = max(worst_resid, np.abs(residual_2d(p)).max() / scale)
        # the two independent eliminations of the same diagonal entry
        route_a = -((f_eta + eta) / (f_theta + theta)) * p.f_theta_y
        route_b = -(f_theta - theta) * (f_eta + eta) / f_theta_x
        worst_route = max(worst_route, abs(route_a - route_b) / max(1.0, abs(route_a)))

    w = complete_2d(1.0, 2.0, 2.0, 4.0, 3.0)
    exact = (w.f_theta_y, w.f_eta_x, w.f_eta_y) == (1.0, -2.0, -6.0)
    ok = worst_resid <= 1e-12 and worst_route <= 1e-12 and exact
    _verdict(4, "2D completion", ok,
             f"residual {worst_resid:.3e}, route gap {worst_route:.3e}, "
             f"worked instance {'exact' if exact else 'WRONG'}")


def _symmetric(diag, off):
    return np.array([[diag[0], off[0], off[1]], [off[0], diag[1], off[2]],
                     [off[1], off[2], diag[2]]])


def test_criterion_5_3d_system():
    worst = 0.0
    xs, lams = [], []
    for seed in range(1000):
        p = generate_feasible_3d(seed)
        worst = max(worst, np.abs(residual_3d(p)).max() / residual_scale(p))
        # lam = n^T f_eta n, with n spanning ker(f_theta - theta) by its SVD
        F = _symmetric(p.f_theta_diag, p.f_theta_off) - antisymmetric_3d(p.theta)
        n = np.linalg.svd(F)[2][-1]
        xs.append(pack(p))
        lams.append(n @ _symmetric(p.f_eta_diag, p.f_eta_off) @ n)
    feasible_ok = worst <= 1e-12

    # the closed form gives each stored f_eta back from its lam
    xs = np.array(xs)
    out, kind, _, _ = complete3d(xs, np.array(lams))
    repro = float((np.abs(out[:, 6:12] - xs[:, 6:12]).max(1) / np.abs(xs[:, 6:12]).max(1)).max())
    counts = {name: int((kind == i).sum()) for i, name in enumerate(CLASSES_3D)}
    # each completion's residual against max|F| max|G|, a few ulps
    closed_resid = 0.0
    for q in map(unpack, out):
        F = _symmetric(q.f_theta_diag, q.f_theta_off) - antisymmetric_3d(q.theta)
        G = _symmetric(q.f_eta_diag, q.f_eta_off) - antisymmetric_3d(q.eta)
        size = np.abs(F).max() * np.abs(G).max()
        closed_resid = max(closed_resid, np.abs(residual_3d(q)).max() / size)
    closed_ok = repro <= 4e-15 and counts["Regular"] == 1000 and closed_resid <= 8 * 2.0**-52

    rng = np.random.default_rng(105)
    hits = 0
    for trial in range(200):
        p = generate_feasible_3d(2000 + trial)
        x = pack(p)
        x[6:12] += 1e-3 * rng.standard_normal(6)
        res = solve_3d(unpack(x), frozen=["theta", "eta"], tol=1e-10, max_iter=20)
        hits += res.converged and res.residual_max <= 1e-10 and res.iterations <= 20
    converge_ok = hits >= 190

    floor_ok = True
    floors = []
    for seed in (3, 17, 44):
        p = generate_feasible_3d(seed)
        x = pack(p)
        x[:12] = 0.0
        res = solve_3d(unpack(x), frozen=["f_theta", "f_eta", "theta", "eta"])
        obstruction = sw_obstruction(DeformationParams.from_triples_3d(p.theta, p.eta))
        floors.append((res.residual_max, obstruction))
        floor_ok &= (not res.converged) and res.residual_max >= obstruction > 0.0

    ok = feasible_ok and closed_ok and converge_ok and floor_ok
    _verdict(5, "3D generator + closed form + solver", ok,
             f"feasible residual {worst:.3e}, f_eta reproduction {repro:.3e}, "
             f"completion residual {closed_resid:.3e}, "
             f"classes {counts}, reconvergence {hits}/200, "
             f"floor vs obstruction {[(f'{a:.2e}', f'{b:.2e}') for a, b in floors]}")


def test_criterion_6_dynamics_equivalence():
    field = FieldConfig(alpha_x=1.0, alpha_y=2.0, beta_x=1.0, beta_y=2.0)
    cf = ClosedFormCoeffs.for_field(field, x1=0.05, x2=0.05, x3=1.0, y3=0.5)
    traj, match = simulate_matched(field, cf)
    amp = max(1.0, float(np.abs(traj.states).max()))

    dev_comm = 0.0
    dev_nc = 0.0
    for idx in range(0, 4097, 64):
        t = traj.times[idx]
        dev_comm = max(dev_comm, np.abs(
            traj.states[idx] - np.array(commutative_closed_form(cf, field, t))).max())
        dev_nc = max(dev_nc, np.abs(
            traj.nc_states[idx][2:] - np.array(nc_closed_form(cf, field, t))).max())
    a_ok = dev_comm <= 1e-6 * amp and dev_nc <= 1e-6 * amp

    dev_mom = 0.0
    for t in np.linspace(0.0, period(field), 64):
        vx, vy = velocity_closed_form(cf, t)
        pxh, pyh = nc_closed_form(cf, field, t)
        dev_mom = max(dev_mom, abs(pxh - field.m_p * vx), abs(pyh - field.m_p * vy))
    b_ok = dev_mom <= 1e-8

    w = extract_rotation_frequency(traj.times, traj.nc_states[:, 2], traj.nc_states[:, 3])
    expected = abs(match.eta) / (field.m_p * match.hbar)
    field_rate = abs(field.e * field.b_z / (field.c * field.m_p))
    c_ok = (abs(abs(w) - expected) <= 1e-6
            and abs(abs(w) - field_rate) <= 1e-6
            and abs(abs(w) - 2.0 * expected) > 0.5 * expected)

    rep = equivalence_check(field, cf)
    note_ok = rep.passed and len(rep.errata_notes) == 1

    ok = a_ok and b_ok and c_ok and note_ok
    _verdict(6, "dynamics equivalence", ok,
             f"trajectory dev {max(dev_comm, dev_nc):.3e}, momentum identity {dev_mom:.3e}, "
             f"|omega| {abs(w):.9f} vs {expected} (doubled rejected), "
             f"errata notes {len(rep.errata_notes)}")


def test_criterion_7_time_dependent_laws():
    field = FieldConfig(alpha_x=1.0, alpha_y=2.0, beta_x=1.0, beta_y=2.0)
    cf = ClosedFormCoeffs.for_field(field, x1=0.05, x2=0.05, x3=1.0, y3=0.5)
    ts = np.linspace(0.0, period(field), 513)
    u, v = uv_momenta(field, cf, ts)
    assert np.abs(u).min() > 0.0

    f_t, th_t = time_dependent_ftheta(u, c_minus=1.0, c_plus=1.0)
    minus = (f_t - th_t) * u
    plus = (f_t + th_t) * u
    span_minus = np.ptp(minus) / abs(minus[0])
    span_plus = np.ptp(plus) / abs(plus[0])

    g2 = approach_two_ftheta(u, c_minus=2.0) * u
    span_two = np.ptp(g2) / abs(g2[0])

    ok = span_minus <= 1e-10 and span_plus <= 1e-10 and span_two <= 1e-10
    _verdict(7, "time-dependent parameter laws", ok,
             f"relative spans {span_minus:.3e} / {span_plus:.3e} / approach two {span_two:.3e}")


def test_criterion_8_cli_examples_and_determinism(tmp_path):
    params = DeformationParams.isotropic_2d(0.7, 0.0)
    (tmp_path / "m.json").write_text(map_to_json(sw_map(params)))
    (tmp_path / "t.json").write_text(params_to_json(params))
    r1 = subprocess.run(CLI + ["check-map", "--map", str(tmp_path / "m.json"),
                               "--theta", str(tmp_path / "t.json"), "--tol", "1e-10"],
                        capture_output=True, text=True)
    ex1_ok = r1.returncode == 0

    args2 = CLI + ["solve2d", "--theta", "1", "--eta", "2", "--f-theta", "2",
                   "--f-eta", "4", "--f-theta-x", "3", "--json"]
    r2 = subprocess.run(args2, capture_output=True, text=True)
    doc = json.loads(r2.stdout)
    ex2_ok = r2.returncode == 0 and doc["payload"]["f_theta_y"] == 1.0

    scen = tmp_path / "s.json"
    scen.write_text(json.dumps({
        "field": {"alpha_x": 1.0, "alpha_y": 2.0, "beta_x": 1.0, "beta_y": 2.0},
        "coeffs": {"x1": 0.05, "x2": 0.05, "x3": 1.0, "y3": 0.5},
        "params": {"hbar": 1.0},
    }))
    out = tmp_path / "traj.csv"
    r3 = subprocess.run(CLI + ["simulate", "--scenario", str(scen), "--out", str(out),
                               "--steps", "4096"], capture_output=True, text=True)
    rows = out.read_text().strip().split("\n")
    ex3_ok = r3.returncode == 0 and len(rows) == 4097 + 1  # data rows + header

    r2b = subprocess.run(args2, capture_output=True, text=True)
    out2 = tmp_path / "traj2.csv"
    r3b = subprocess.run(CLI + ["simulate", "--scenario", str(scen), "--out", str(out2),
                                "--steps", "4096"], capture_output=True, text=True)
    det_ok = (r2.stdout == r2b.stdout and r3.stdout == r3b.stdout
              and out.read_bytes() == out2.read_bytes())

    ok = ex1_ok and ex2_ok and ex3_ok and det_ok
    _verdict(8, "CLI examples + determinism", ok,
             f"check-map exit {r1.returncode}, solve2d exit {r2.returncode}, "
             f"simulate rows {len(rows) - 1}, byte-identical reruns {det_ok}")
