"""The three workloads: seeded request streams and their output checks.

A workload yields ``Request`` objects from ``round(r)``, a generator that
receives each request's ``Reply`` back through ``send`` (``solve3d``
builds its solve input from the ``gen3d`` output).  Round ``r`` draws its
values from ``(seed, r)``; every round has the same request kinds and
sizes in the same order, so two runs with one seed send identical
requests and two seeds send the same mix with different values.

Every check uses formulas written here from the paper's definitions,
never ``ncphase`` code: the closed-form orbits of the charged particle
and of the free particle on deformed momenta, the product ``B C^T`` of
the map blocks, and the singular-line classification of a 2D grid.  A
check returns a ``Verdict``; its ``units`` count toward ``units_per_s``
only when ``ok`` is true.
"""
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

WORK = ".perfbench_work"

# tolerances of the benchmark's own checks
ORBIT_RTOL = 1e-7        # CSV against the closed-form orbits, relative to the orbit scale
OMEGA_RTOL = 1e-6        # extracted rotation rate against e*b_z/(c*m_p)
BCT_RTOL = 1e-11         # |B C^T| relative to the largest block entry squared
FEASIBLE_RTOL = 1e-11    # generated 3D instance, same scale
SOLVE_TOL = 1e-10        # solve3d's default --tol on max |(F - Theta)(G - H)|


@dataclass
class Verdict:
    ok: bool
    units: float = 0.0
    counts: dict = field(default_factory=dict)
    devs: dict = field(default_factory=dict)
    reason: str = ""


@dataclass
class Request:
    label: str
    argv: list
    check: object                              # callable(Reply) -> Verdict
    inputs: dict = field(default_factory=dict)  # path -> text written before the request
    outputs: list = field(default_factory=list)  # paths the program writes


@dataclass
class Reply:
    exit: object
    wall: float
    error: object
    stdout: bytes
    stderr: bytes
    files: dict
    verdict: Verdict = None


def fail(reason, **kw):
    return Verdict(False, reason=reason, **kw)


def parse_report(text, payload=True):
    """Split a human-readable run report into status, metrics, notes, payload."""
    head, sep, tail = text.partition("\n{")
    rep = {"command": None, "status": None, "metrics": {}, "notes": [], "payload": None}
    for line in head.split("\n"):
        if line.startswith("command: "):
            rep["command"] = line[9:]
        elif line.startswith("status: "):
            rep["status"] = line[8:]
        elif line.startswith("note: "):
            rep["notes"].append(line[6:])
        elif " = " in line:
            k, v = line.split(" = ", 1)
            rep["metrics"][k] = float(v)
    if sep and payload:
        rep["payload"] = json.loads("{" + tail)
    return rep


def expect_exit(reply, code):
    """Reason string if the request raised, exited with another code or wrote to stderr."""
    if reply.error:
        return "traceback: " + reply.error.strip().splitlines()[-1]
    if reply.exit != code:
        return f"exit {reply.exit}, expected {code}"
    if reply.stderr:
        return "unexpected stderr output"
    return ""


def rel(a, b, scale):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


def sign(rng):
    return float(rng.choice((-1.0, 1.0)))


# ---------------------------------------------------------------------------
# trajectory: simulate / equivalence on matchable scenarios


CSV_HEADER = "t,x,y,px,py,xhat,yhat,pxhat,pyhat"
STEPS_PER_PERIOD = 4096  # the CLI's dt when the scenario gives none: one period / 4096


class Trajectory:
    """Alternating ``simulate`` and ``equivalence`` requests, 2^12 to 2^17 steps."""

    name = "trajectory"
    unit = "steps/s"
    # log2 of the step counts of one round, in order; the two commands
    # alternate.  Fixed sizes and order keep the p50 inside the 2^12
    # simulate block, the tail inside the 2^13 equivalence block, and the
    # peak memory at the 2^17 simulate, whatever the seed.
    SIMULATE = (12, 12, 14, 12, 15, 12, 12, 17)
    EQUIVALENCE = (12, 13, 12, 13, 12, 16, 12, 12)

    def __init__(self, seed):
        self.seed = seed

    def warmup(self):
        rng = np.random.default_rng([self.seed, 1 << 20])
        yield self._simulate(rng, 256)
        yield self._equivalence(rng, 256)

    def round(self, r):
        rng = np.random.default_rng([self.seed, r])
        for s, e in zip(self.SIMULATE, self.EQUIVALENCE):
            yield self._simulate(rng, 1 << int(s))
            yield self._equivalence(rng, 1 << int(e))

    def _simulate(self, rng, steps):
        sc, text = scenario(rng, steps)
        scen, out = f"{WORK}/scenario.json", f"{WORK}/traj.csv"
        return Request("simulate", ["simulate", "--scenario", scen, "--out", out, "--steps", str(steps)],
                       lambda reply: check_simulate(sc, steps, out, reply),
                       inputs={scen: text}, outputs=[out])

    def _equivalence(self, rng, steps):
        sc, text = scenario(rng, steps)
        scen = f"{WORK}/scenario.json"
        return Request("equivalence", ["equivalence", "--scenario", scen],
                       lambda reply: check_equivalence(sc, steps, reply), inputs={scen: text})


def scenario(rng, steps):
    """A matchable scenario: proportional gauge rows, b_z != 0, inside the RK4 guard."""
    while True:
        ax, bx = sign(rng) * rng.uniform(0.5, 1.5), sign(rng) * rng.uniform(0.5, 1.5)
        ratio = sign(rng) * rng.uniform(0.5, 2.0)
        fld = {"alpha_x": ax, "alpha_y": ratio * ax, "beta_x": bx, "beta_y": ratio * bx,
               "e": rng.uniform(0.5, 2.0), "c": rng.uniform(0.5, 2.0), "m_p": rng.uniform(0.5, 2.0)}
        fld = {k: float(v) for k, v in fld.items()}
        sc = {
            "field": fld,
            "coeffs": {"x1": sign(rng) * rng.uniform(0.2, 1.0), "x2": sign(rng) * rng.uniform(0.2, 1.0),
                       "x3": rng.uniform(-1.0, 1.0), "y3": rng.uniform(-1.0, 1.0)},
            "params": {"hbar": rng.uniform(0.5, 2.0), "f_theta": rng.uniform(-1.0, 1.0),
                       "theta": rng.uniform(-1.0, 1.0)},
            "dt": None,
            "steps": steps,
        }
        sc["coeffs"] = {k: float(v) for k, v in sc["coeffs"].items()}
        sc["params"] = {k: float(v) for k, v in sc["params"].items()}
        if within_rk4_guard(sc):
            return sc, json.dumps(sc, sort_keys=True)


def orbit_constants(sc):
    f, p = sc["field"], sc["params"]
    k = f["e"] / f["c"]
    b_z = f["alpha_y"] - f["beta_x"]
    gauge = np.array([[f["alpha_x"], f["beta_x"]], [f["alpha_y"], f["beta_y"]]])
    period = 2.0 * math.pi * f["c"] * f["m_p"] / abs(f["e"] * b_z)
    eta = p["hbar"] * k * b_z
    return k, b_z, gauge, period / STEPS_PER_PERIOD, eta


def within_rk4_guard(sc):
    """dt * ||K|| < 0.05 on both branches (the CLI refuses 0.1 and above), |b_z| not small."""
    f, p = sc["field"], sc["params"]
    k, b_z, gauge, dt, eta = orbit_constants(sc)
    if abs(b_z) < 0.25 * np.abs(gauge).max():
        return False
    m = f["m_p"]
    S = np.block([[k * k * gauge.T @ gauge, -k * gauge.T], [-k * gauge, np.eye(2)]]) / m
    J = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    K_nc = np.block([[np.zeros((2, 2)), np.eye(2) / m],
                     [np.zeros((2, 2)), np.array([[0.0, eta], [-eta, 0.0]]) / (p["hbar"] * m)]])
    return dt * max(np.linalg.norm(J @ S, 2), np.linalg.norm(K_nc, 2)) < 0.05


def closed_form(sc, steps):
    """Both branches in closed form, columns as in the CSV (t first)."""
    f, c, p = sc["field"], sc["coeffs"], sc["params"]
    k, b_z, gauge, dt, eta = orbit_constants(sc)
    m, hbar, th, fth = f["m_p"], p["hbar"], p["theta"], p["f_theta"]
    t = np.arange(steps + 1) * dt
    # charged particle: x rotates about (x3, y3) at omega = -e b_z / (c m_p)
    w = -k * b_z / m
    s, co = np.sin(w * t), np.cos(w * t)
    x = c["x3"] + c["x1"] * s + c["x2"] * co
    y = c["y3"] + c["x2"] * s - c["x1"] * co
    vx, vy = w * (c["x1"] * co - c["x2"] * s), w * (c["x2"] * co + c["x1"] * s)
    px = m * vx + k * (gauge[0, 0] * x + gauge[0, 1] * y)
    py = m * vy + k * (gauge[1, 0] * x + gauge[1, 1] * y)
    # matched deformation and the map (xh, ph) = (x + B p, C x + p) at t = 0
    ax, ay, bx, by = gauge[0, 0], gauge[1, 0], gauge[0, 1], gauge[1, 1]
    f_eta = -hbar * k * (ay + bx)
    B = np.array([[-(by / ay) * (fth - th), fth - th], [fth + th, -(ax / bx) * (fth + th)]]) / (2 * hbar)
    C = np.array([[(ax / bx) * (f_eta + eta), f_eta + eta], [f_eta - eta, (by / ay) * (f_eta - eta)]]) / (2 * hbar)
    z0, p0 = np.array([x[0], y[0]]), np.array([px[0], py[0]])
    xh0, ph0 = z0 + B @ p0, C @ z0 + p0
    # free particle under [ph_x, ph_y] = i eta: ph rotates at eta / (hbar m_p)
    om = eta / (hbar * m)
    s, co = np.sin(om * t), np.cos(om * t)
    pxh = ph0[0] * co + ph0[1] * s
    pyh = ph0[1] * co - ph0[0] * s
    xh = xh0[0] + (ph0[0] * s + ph0[1] * (1 - co)) / (m * om)
    yh = xh0[1] + (ph0[1] * s - ph0[0] * (1 - co)) / (m * om)
    return np.stack([t, x, y, px, py, xh, yh, pxh, pyh], axis=1)


def check_simulate(sc, steps, out, reply):
    why = expect_exit(reply, 0)
    rep = parse_report(reply.stdout.decode())
    if why or rep["status"] != "pass":
        return fail(why or f"status {rep['status']}")
    text = (reply.files.get(out) or b"").decode()
    header, _, body = text.partition("\n")
    if header != CSV_HEADER:
        return fail("CSV header")
    got = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    if got.shape != (steps + 1, 9) or rep["metrics"].get("steps") != steps:
        return fail(f"CSV shape {got.shape} for {steps} steps")
    want = closed_form(sc, steps)
    dt = want[1, 0]
    dev_t = rel(got[:, 0], want[:, 0], dt * steps)
    scale = max(1.0, float(np.abs(want[:, 1:]).max()))
    dev = rel(got[:, 1:], want[:, 1:], scale)
    devs = {"trajectory.csv_vs_closed_form": dev, "trajectory.time_column": dev_t}
    if not dev <= ORBIT_RTOL or not dev_t <= 1e-12:
        return fail(f"orbit deviation {dev:.3e}", devs=devs)
    return Verdict(True, units=2 * steps, counts={"steps": 2 * steps}, devs=devs)


def check_equivalence(sc, steps, reply):
    why = expect_exit(reply, 0)
    rep = parse_report(reply.stdout.decode(), payload=False)
    if why or rep["status"] != "pass":
        return fail(why or f"status {rep['status']}")
    f = sc["field"]
    k, b_z, _, _, _ = orbit_constants(sc)
    c = sc["coeffs"]
    rate = abs(k * b_z / f["m_p"])
    amp = f["m_p"] * rate * math.hypot(c["x1"], c["x2"])
    m = rep["metrics"]
    try:
        devs_reported = [m["integrated_nc_vs_closed_form"], m["integrated_commutative_vs_closed_form"],
                         m["closed_form_momentum_vs_velocity"]]
        omega_err = abs(abs(m["omega_extracted"]) - rate) / rate
        omega_c_err = abs(m["omega_commutative"] + k * b_z / f["m_p"]) / rate
    except KeyError as err:
        return fail(f"missing metric {err}")
    devs = {"equivalence.reported_deviation": max(devs_reported) / max(1.0, amp),
            "equivalence.omega_extracted": omega_err}
    if not (devs_reported[0] > 0.0 and devs_reported[1] > 0.0):
        return fail("vacuous pass: integrated deviations are exactly zero", devs=devs)
    if not (omega_err <= OMEGA_RTOL and omega_c_err <= 1e-12 and max(devs_reported) < 1e-6 * max(1.0, amp)):
        return fail(f"equivalence metrics off: omega {omega_err:.3e}", devs=devs)
    return Verdict(True, units=2 * steps, counts={"steps": 2 * steps}, devs=devs)


# ---------------------------------------------------------------------------
# sweep2d: sweep grids over solve2d and match-field


BRANCHES = ("FThetaPlus", "FThetaMinus", "FEtaPlus", "FEtaMinus", "ZeroPivot", "Regular")


class Sweep2D:
    """``sweep --out`` over solve2d grids through every singular line and
    match-field grids with proportional, non-proportional and degenerate gauges."""

    name = "sweep2d"
    unit = "points/s"
    # grid sizes of one round, in order; the two tasks alternate.  Fixed
    # sizes and order keep the p50 inside the 1e3 solve2d block and the
    # tail inside the 1e4 solve2d block, whatever the seed.
    MATCH_FIELD = (1000, 1000, 30000, 1000, 1000, 100000, 1000)
    SOLVE2D = (1000, 10000, 1000, 30000, 1000, 10000, 30000)

    def __init__(self, seed):
        self.seed = seed

    def warmup(self):
        rng = np.random.default_rng([self.seed, 1 << 20])
        yield self._solve2d(rng, 64)
        yield self._match_field(rng, 70)

    def round(self, r):
        rng = np.random.default_rng([self.seed, r])
        for m, s in zip(self.MATCH_FIELD, self.SOLVE2D):
            yield self._match_field(rng, m)
            yield self._solve2d(rng, s)

    def _request(self, cfg, expected, check_row, label):
        conf, out = f"{WORK}/sweep.json", f"{WORK}/rows.json"
        return Request(label, ["sweep", "--config", conf, "--out", out],
                       lambda reply: check_sweep(cfg, expected, check_row, out, reply),
                       inputs={conf: json.dumps(cfg, sort_keys=True)}, outputs=[out])

    def _solve2d(self, rng, size):
        theta, eta = sign(rng) * rng.uniform(0.5, 2.0), sign(rng) * rng.uniform(0.5, 2.0)
        hbar = rng.uniform(0.5, 2.0)
        pivot = "f_theta_x" if rng.random() < 0.5 else "f_theta_y"
        n = max(3, round(size ** (1 / 3)))
        n_pivot = max(2, round(size / (n * n)))

        def axis(specials, count, avoid):
            vals = list(specials)
            while len(vals) < count:
                v = float(rng.uniform(-4.0, 4.0))
                if min(abs(v - a) for a in avoid) > 0.05:
                    vals.append(v)
            return [float(v) for v in rng.permutation(vals)]

        grid = {
            "f_theta": axis([theta, -theta], n, [theta, -theta]),
            "f_eta": axis([eta, -eta], n, [eta, -eta]),
            pivot: [float(v) for v in rng.permutation(
                [0.0] + [sign(rng) * rng.uniform(0.25, 4.0) for _ in range(n_pivot - 1)])],
        }
        base = {"theta": float(theta), "eta": float(eta), "hbar": float(hbar)}

        def expected(point):
            ft, fe, pv = point["f_theta"], point["f_eta"], point[pivot]
            if ft == theta:
                return "FThetaPlus"
            if ft == -theta:
                return "FThetaMinus"
            if fe == eta:
                return "FEtaPlus"
            if fe == -eta:
                return "FEtaMinus"
            if pv == 0.0:
                return "ZeroPivot"
            return "Regular"

        def check_row(point, payload):
            if any(payload[k] != v for k, v in point.items()) or payload["theta"] != base["theta"]:
                return "payload does not echo the grid point"
            return bct_residual(payload)

        return self._request({"task": "solve2d", "base": base, "grid": grid},
                             expected, check_row, "sweep:solve2d")

    def _match_field(self, rng, size):
        # dyadic gauge values keep every product exact, so each point is
        # either exactly proportional or off by at least 1/64
        dyadic = [k / 4 for k in range(-12, 13) if k]
        a = sign(rng) * float(rng.choice([0.5, 1.0, 2.0]))
        b = float(rng.choice(dyadic))
        ay = [0.0] + [float(v) for v in rng.choice(dyadic, size=4, replace=False)]
        by = [b / a * v for v in ay[1:]] + [0.0] + [float(v) for v in rng.choice(dyadic, size=2)]
        n_ft = max(2, round(size / (len(ay) * len(by))))
        grid = {"alpha_y": [float(v) for v in rng.permutation(ay)],
                "beta_y": [float(v) for v in rng.permutation(by)],
                "f_theta": [float(v) for v in rng.uniform(-2.0, 2.0, n_ft)]}
        base = {"alpha_x": a, "beta_x": b, "theta": float(rng.uniform(-1.0, 1.0)),
                "hbar": float(rng.choice([0.5, 1.0, 2.0])), "e": float(rng.choice([0.5, 1.0, 2.0])),
                "c": float(rng.choice([0.5, 1.0, 2.0]))}

        def expected(point):
            if point["alpha_y"] == 0.0:
                return "DegenerateFieldError"
            if point["beta_y"] * a != point["alpha_y"] * b:
                return "NonMatchableError"
            return "Regular"

        def check_row(point, payload):
            k = base["e"] / base["c"]
            b_z = point["alpha_y"] - b
            eta = base["hbar"] * k * b_z
            f_eta = -base["hbar"] * k * (point["alpha_y"] + b)
            p2 = payload["params2d"]
            if p2["f_theta"] != point["f_theta"] or p2["theta"] != base["theta"] or payload["b_z"] != b_z:
                return "payload does not echo the grid point"
            if abs(payload["eta"] - eta) > 1e-12 * abs(eta) or abs(payload["f_eta"] - f_eta) > 1e-12 * abs(f_eta):
                return "eta / f_eta differ from hbar (e/c) b_z and -hbar (e/c)(alpha_y + beta_x)"
            return bct_residual(p2)

        return self._request({"task": "match-field", "base": base, "grid": grid},
                             expected, check_row, "sweep:match-field")


def bct_residual(p):
    """max |B C^T| / (largest block entry)^2 for a real 2D parameter payload."""
    t, e, ft, fe = p["theta"], p["eta"], p["f_theta"], p["f_eta"]
    B = np.array([[p["f_theta_x"], ft - t], [ft + t, p["f_theta_y"]]])
    C = np.array([[p["f_eta_x"], fe + e], [fe - e, p["f_eta_y"]]])
    scale = max(np.abs(B).max(), np.abs(C).max()) ** 2
    return float(np.abs(B @ C.T).max()) / scale


def check_sweep(cfg, expected, check_row, out, reply):
    names = sorted(cfg["grid"])
    points = [dict(zip(names, vals)) for vals in itertools.product(*(cfg["grid"][n] for n in names))]
    want = [expected(pt) for pt in points]
    code = 0 if all(w == "Regular" for w in want) else 1
    why = expect_exit(reply, code)
    rep = parse_report(reply.stdout.decode(), payload=False)
    if why or rep["status"] != ("pass" if code == 0 else "fail"):
        return fail(why or f"status {rep['status']}")
    if rep["metrics"].get("points") != len(points):
        return fail("points metric")
    try:
        rows = json.loads(reply.files.get(out) or b"null")["payload"]["rows"]
    except (TypeError, KeyError, ValueError):
        return fail("unreadable --out file")
    if len(rows) != len(points):
        return fail(f"{len(rows)} rows for {len(points)} points")
    hist = dict.fromkeys(sorted(set(want)), 0)
    passed = [i for i, w in enumerate(want) if w == "Regular"]
    sample = set(passed[:: max(1, len(passed) // 256)])
    worst = 0.0
    for i, (row, pt, w) in enumerate(zip(rows, points, want)):
        if row["point"] != pt:
            return fail(f"row {i} out of grid order")
        if w == "Regular":
            if row["status"] != "pass":
                return fail(f"row {i}: {row['status']} {row['errata_notes']}, expected pass")
            if i in sample:
                res = check_row(pt, row["payload"])
                if isinstance(res, str):
                    return fail(f"row {i}: {res}")
                worst = max(worst, res)
        else:
            notes = row["errata_notes"]
            # "SingularBranch: FEtaPlus" or "NonMatchableError: gauge rows ..."
            head, _, rest = notes[0].partition(": ") if notes else ("", "", "")
            got = rest if head == "SingularBranch" else head
            if row["status"] != "error" or got != w:
                return fail(f"row {i}: {row['status']} {notes}, expected {w}")
        hist[w] += 1
    devs = {"sweep2d.bct_residual": worst}
    if not worst <= BCT_RTOL:
        return fail(f"B C^T residual {worst:.3e}", devs=devs)
    counts = {f"{cfg['task']}.{k}": v for k, v in hist.items()}
    return Verdict(True, units=len(points), counts=counts, devs=devs)


# ---------------------------------------------------------------------------
# solve3d: gen3d, then solve3d on a perturbed copy


UNKNOWNS = ("f_theta_diag", "f_theta_off", "f_eta_diag", "f_eta_off", "theta", "eta")
GROUPS = {"theta": ("theta",), "eta": ("eta",), "f_eta": ("f_eta_diag", "f_eta_off"),
          "f_theta": ("f_theta_diag", "f_theta_off"), "f_eta_diag": ("f_eta_diag",)}
FEASIBLE = ("theta,eta", "f_eta", "")
INFEASIBLE = "f_theta,theta,f_eta_diag"


def blocks_3d(doc):
    """F = f_theta - theta and G = f_eta - eta, so the residual is F @ G."""
    def sym(d, o):
        return np.array([[d[0], o[0], o[1]], [o[0], d[1], o[2]], [o[1], o[2], d[2]]])

    def anti(c):
        return np.array([[0.0, c[0], c[1]], [-c[0], 0.0, c[2]], [-c[1], -c[2], 0.0]])

    return (sym(doc["f_theta_diag"], doc["f_theta_off"]) - anti(doc["theta"]),
            sym(doc["f_eta_diag"], doc["f_eta_off"]) - anti(doc["eta"]))


class Solve3D:
    """gen3d + solve3d pairs; feasible frozen patterns and provably infeasible ones."""

    name = "solve3d"
    unit = "instances/s"
    # one round: every pattern at four noise strata between 1e-4 and 1e-1
    PATTERNS = FEASIBLE + (INFEASIBLE,)
    STRATA = ((-4.0, -3.25), (-3.25, -2.5), (-2.5, -1.75), (-1.75, -1.0))

    def __init__(self, seed):
        self.seed = seed

    def warmup(self):
        rng = np.random.default_rng([self.seed, 1 << 20])
        yield from self._instance(rng, FEASIBLE[0], self.STRATA[0])
        yield from self._instance(rng, INFEASIBLE, self.STRATA[-1])

    def round(self, r):
        rng = np.random.default_rng([self.seed, r])
        for stratum in self.STRATA:
            for pattern in self.PATTERNS:
                yield from self._instance(rng, pattern, stratum)

    def _instance(self, rng, pattern, stratum):
        gen = f"{WORK}/gen3d.json"
        reply = yield Request("gen3d", ["gen3d", "--seed", str(int(rng.integers(1 << 31))), "--out", gen],
                              lambda rep: check_gen3d(gen, rep), outputs=[gen])
        if not reply.verdict.ok:
            return
        doc = json.loads(reply.files[gen])
        frozen = {u for tok in pattern.split(",") if tok for u in GROUPS[tok]}
        while True:
            noise = 10.0 ** rng.uniform(*stratum)
            inp = dict(doc)
            for u in UNKNOWNS:
                if u not in frozen or pattern == INFEASIBLE:
                    inp[u] = [float(v) for v in np.asarray(doc[u]) + noise * rng.normal(size=3)]
            if pattern != INFEASIBLE or infeasibility_margin(inp) > 1e3 * SOLVE_TOL:
                break
        path, out = f"{WORK}/solve_in.json", f"{WORK}/solved.json"
        argv = ["solve3d", "--input", path, "--trace", "--out", out] + (["--frozen", pattern] if pattern else [])
        label = "solve3d:" + ("infeasible" if pattern == INFEASIBLE else pattern or "none")
        yield Request(label, argv, lambda rep: check_solve3d(inp, frozen, pattern == INFEASIBLE, out, rep),
                      inputs={path: json.dumps(inp, sort_keys=True)}, outputs=[out])


def infeasibility_margin(doc):
    """Lower bound on max |F G| over all G with G's diagonal fixed.

    With F frozen, ||F G||_F >= sigma_min(F) ||diag G||, and the max entry
    of nine is at least the Frobenius norm over 3.
    """
    F, G = blocks_3d(doc)
    return np.linalg.svd(F, compute_uv=False)[-1] * np.linalg.norm(np.diag(G)) / 3.0


def residual_3d(doc):
    F, G = blocks_3d(doc)
    x = np.concatenate([np.asarray(doc[u], dtype=float) for u in UNKNOWNS])
    return float(np.abs(F @ G).max()), max(1.0, float(np.abs(x).max())) ** 2


def check_gen3d(out, reply):
    why = expect_exit(reply, 0)
    rep = parse_report(reply.stdout.decode())
    if why or rep["status"] != "pass":
        return fail(why or f"status {rep['status']}")
    try:
        doc = json.loads(reply.files.get(out) or b"null")
        res, scale = residual_3d(doc)
    except (TypeError, KeyError, ValueError):
        return fail("unreadable gen3d output")
    if rep["payload"] != doc:
        return fail("stdout payload differs from the --out file")
    devs = {"solve3d.generated_residual": res / scale}
    if not res <= FEASIBLE_RTOL * scale:
        return fail(f"generated instance residual {res:.3e}", devs=devs)
    return Verdict(True, devs=devs)


def check_solve3d(inp, frozen, infeasible, out, reply):
    converged = reply.exit == 0
    why = expect_exit(reply, 0 if converged else 1)
    rep = parse_report(reply.stdout.decode())
    if why or rep["status"] != ("pass" if converged else "fail"):
        return fail(why or f"status {rep['status']}")
    try:
        doc = json.loads(reply.files.get(out) or b"null")
        res, scale = residual_3d(doc)
        history = [h[1] for h in rep["payload"]["history"]]
    except (TypeError, KeyError, ValueError):
        return fail("unreadable solve3d output")
    if any(doc[u] != inp[u] for u in frozen):
        return fail("a frozen coordinate moved")
    if any(b > a for a, b in zip(history, history[1:])):
        return fail("residual history increases")
    counts = {"iterations": int(rep["metrics"]["iterations"]), "converged": int(converged)}
    if not converged:
        return Verdict(True, units=1, counts=counts)
    devs = {"solve3d.converged_residual": res}
    if infeasible:
        return fail("converged on a provably infeasible frozen pattern", devs=devs)
    if not res <= SOLVE_TOL + 1e-14 * scale:
        return fail(f"converged output has residual {res:.3e}", devs=devs)
    return Verdict(True, units=1, counts=counts, devs=devs)


WORKLOADS = {w.name: w for w in (Trajectory, Sweep2D, Solve3D)}
