"""The batched sweep engine against the per-point path it replaced.

``sweep_oracle.sweep_document`` is the old loop: one ``complete_2d`` /
``field_to_deformation`` call per grid point.  The streamed ``--out``
file and the ``--json`` stdout must both equal its document byte for
byte, across chunk boundaries, singular lines, both pivots, imaginary
pivots, non-finite literals and every error outcome.
"""
import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncphase import cli
from sweep_oracle import sweep_document

NAN, INF = float("nan"), float("inf")


def sweep(text, out=None):
    """(exit code, stdout, --out bytes) of an in-process ``sweep --json``."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "sweep.json"
        config.write_text(text)
        argv = ["sweep", "--config", str(config), "--json"]
        if out:
            argv += ["--out", str(Path(tmp) / "rows.json")]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would reach stderr
            code = cli.run(argv)
        written = (Path(tmp) / "rows.json").read_bytes() if out else None
    return code, buf.getvalue(), written


def assert_matches_oracle(cfg):
    text = json.dumps(cfg)
    want = sweep_document(json.loads(text))
    status = json.loads(want)["status"]
    code, stdout, _ = sweep(text)
    assert stdout == want + "\n"
    assert code == {"pass": 0, "fail": 1}[status]
    code, stdout, written = sweep(text, out=True)
    assert written == (want + "\n").encode()
    summary = json.loads(stdout)
    assert (code, summary["status"], summary["payload"]) == (cli.EXITS[status], status, {})


SOLVE2D_BASE = {"theta": 1.0, "eta": 2.0}
CONFIGS = {
    # every singular line, both signs, and a zero pivot
    "x-pivot": {"task": "solve2d", "base": SOLVE2D_BASE,
                "grid": {"f_theta": [1.0, -1.0, 2.0, 3.0], "f_eta": [2.0, -2.0, 4.0, 5.0],
                         "f_theta_x": [0.0, 3.0, -1.5]}},
    "y-pivot": {"task": "solve2d", "base": dict(SOLVE2D_BASE, f_theta_y=1.0),
                "grid": {"f_theta": [1.0, -1.0, 2.0, 3.0], "f_eta": [2.0, -2.0, 4.0, 5.0]}},
    # imaginary draws from f_theta_x beside real ones from f_theta_y
    "imaginary": {"task": "solve2d",
                  "base": dict(SOLVE2D_BASE, f_theta_x=3.0, f_theta_y=1.5, hbar=0.5),
                  "grid": {"f_theta_imag": [0.0, 0.5, -2.0, 1e-300], "f_theta": [1.0, 2.0, -1.0],
                           "f_eta": [4.0, -2.0, 2.0]}},
    "imaginary-base": {"task": "solve2d", "base": dict(SOLVE2D_BASE, f_theta_imag=0.75,
                                                       f_eta=4.0),
                       "grid": {"f_theta": [0.0, 1.0, 2.0], "f_theta_x": [0.0, 2.0, -3.0]}},
    "pivot-routes": {"task": "solve2d", "base": dict(SOLVE2D_BASE, f_eta=4.0, f_theta_x=3.0),
                     "grid": {"f_theta": [-1.000000001, -1.0000000001, 2.0]}},
    "overflow": {"task": "solve2d",
                 "base": {"theta": 1e150, "eta": 2e160, "f_eta": 4e160},
                 "grid": {"f_theta": [2e150, 2e200], "f_theta_x": [1e141, 3e200, 1.0]}},
    "non-finite": {"task": "solve2d", "base": dict(SOLVE2D_BASE, f_eta=4.0),
                   "grid": {"f_theta": [NAN, 2.0, INF], "f_theta_x": [3.0, -INF],
                            "f_theta_imag": [0.0, NAN, 0.5]}},
    "non-finite-base": {"task": "solve2d",
                        "base": {"theta": 1.0, "eta": NAN, "f_eta": 4.0, "f_theta_y": 1.0},
                        "grid": {"f_theta": [2.0, 3.0]}},
    # integers in base are echoed as integers, as the scalar path did
    "integers": {"task": "solve2d", "base": {"theta": 1, "eta": 2, "f_eta": 4, "f_theta_x": 3},
                 "grid": {"f_theta": [2.0, 1.0, 5.0]}},
    "match-field": {"task": "match-field", "base": {"alpha_x": 1.0, "beta_x": 1.0},
                    "grid": {"alpha_y": [2.0, 0.0, -1.0], "beta_y": [2.0, 3.0, -1.0],
                             "e": [1.0, 2.0, 0.0]}},
    "match-field-zero-gauge": {"task": "match-field",
                               "base": {"alpha_x": 0.0, "alpha_y": 0.0, "beta_x": 0.0,
                                        "beta_y": 0.0, "theta": 0.5},
                               "grid": {"f_theta": [-1.5, 0.0, 0.5, 2.0]}},
    "match-field-division": {"task": "match-field",
                             "base": {"alpha_x": 1.0, "alpha_y": 2.0, "beta_x": 1.0,
                                      "beta_y": 2.0, "e": 1e-200},
                             # c * m_p underflows to zero at (1e-200, 1e-200)
                             "grid": {"c": [0.0, 1.0, 1e-200], "m_p": [0.0, 1.0, 1e-200]}},
    "match-field-non-finite": {"task": "match-field",
                               "base": {"alpha_x": 1.0, "alpha_y": 2.0, "beta_y": 2.0},
                               "grid": {"beta_x": [1.0, NAN], "f_theta": [0.5, INF],
                                        "theta": [NAN, 0.0]}},
    "match-field-integers": {"task": "match-field",
                             "base": {"alpha_x": 1, "alpha_y": 2, "beta_x": 1, "beta_y": 2,
                                      "hbar": 2, "c": 0},
                             "grid": {"e": [1.0, 2.0]}},
    "match-field-integer-gauge": {"task": "match-field",
                                  "base": {"alpha_x": 1, "alpha_y": 4, "beta_x": 2,
                                           "beta_y": 8},
                                  "grid": {"f_theta": [0.0, -1.25], "theta": [0.5, NAN]}},
    "empty-axis": {"task": "solve2d", "base": dict(SOLVE2D_BASE, f_eta=4.0, f_theta_x=3.0),
                   "grid": {"f_theta": []}},
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # from the oracle's numpy
@pytest.mark.parametrize("chunk", [2, 5, cli.SWEEP_CHUNK])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_sweep_matches_the_per_point_path(name, chunk, monkeypatch):
    monkeypatch.setattr(cli, "SWEEP_CHUNK", chunk)
    assert_matches_oracle(CONFIGS[name])


@pytest.mark.parametrize("cfg", [
    {"task": "solve2d", "base": dict(SOLVE2D_BASE, f_eta=4.0),
     "grid": {"f_theta": {"start": -3.0, "stop": 3.0, "num": 2049},
              "f_theta_x": [0.0, 2.5, -0.5, 3.0]}},
    {"task": "match-field", "base": {"alpha_x": 1.0, "beta_x": 2.0, "theta": 0.25},
     "grid": {"alpha_y": [2.0, 0.0, -1.0], "beta_y": [4.0, 1.0, -2.0],
              "f_theta": {"start": -2.0, "stop": 2.0, "num": 1000}}},
], ids=["solve2d", "match-field"])
def test_grid_larger_than_one_chunk(cfg):
    points = 1
    for spec in cfg["grid"].values():
        points *= spec["num"] if isinstance(spec, dict) else len(spec)
    assert points > cli.SWEEP_CHUNK
    assert_matches_oracle(cfg)


def near(lines, extremes=(NAN, INF, 1e200)):
    """Values on, just off and away from the given singular lines."""
    exact = st.sampled_from(lines)
    nudged = st.builds(lambda v, k: v * (1.0 + k * 1e-10) + k * 1e-11, exact,
                       st.sampled_from([-30, -2, -1, 1, 2, 30]))
    free = st.floats(-4.0, 4.0, allow_nan=False)
    return st.one_of(exact, nudged, free, st.sampled_from(extremes))


THETA, ETA = 1.25, -0.5
SOLVE2D_AXES = {
    "f_theta": near([THETA, -THETA, 0.0]),
    "f_eta": near([ETA, -ETA, 0.0]),
    "f_theta_x": near([0.0, 1.0]),
    "f_theta_imag": st.sampled_from([0.0, 0.0, 0.3, -1e-3, NAN]),
    "theta": near([THETA, -THETA]),
}
MATCH_AXES = {
    "alpha_y": st.sampled_from([0.0, 2.0, -1.0, 0.5, 2.0 + 1e-13]),
    "beta_y": st.sampled_from([0.0, 4.0, -2.0, 1.0, 3.0]),
    # no huge f_theta: the per-point path squared it past the float range
    "f_theta": near([0.0, 0.75], extremes=(NAN, INF, -1e6)),
    "e": st.sampled_from([1.0, 0.5, 0.0, -2.0]),
    "hbar": st.sampled_from([1.0, 0.25, 3.0]),
}


@st.composite
def sweep_configs(draw):
    task = draw(st.sampled_from(["solve2d", "match-field"]))
    axes = SOLVE2D_AXES if task == "solve2d" else MATCH_AXES
    names = draw(st.lists(st.sampled_from(sorted(axes)), min_size=1, max_size=3, unique=True))
    grid = {name: draw(st.lists(axes[name], min_size=1, max_size=4)) for name in names}
    if task == "solve2d":
        base = {"theta": THETA, "eta": ETA, "f_theta": 2.0, "f_eta": 1.5, "f_theta_x": 0.75,
                "hbar": draw(st.sampled_from([1.0, 2.0]))}
        if draw(st.booleans()):
            base["f_theta_y"] = draw(near([0.0, -2.0]))
    else:
        base = {"alpha_x": 1.0, "alpha_y": 2.0, "beta_x": 0.5, "beta_y": 1.0,
                "theta": draw(st.sampled_from([0.0, 0.75, -0.25]))}
    return {"task": task, "base": base, "grid": grid}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # from the oracle's numpy
@settings(max_examples=150, deadline=None)
@given(cfg=sweep_configs(), chunk=st.sampled_from([1, 3, cli.SWEEP_CHUNK]))
def test_drawn_grids_match_the_per_point_path(cfg, chunk):
    old = cli.SWEEP_CHUNK
    cli.SWEEP_CHUNK = chunk
    try:
        assert_matches_oracle(cfg)
    finally:
        cli.SWEEP_CHUNK = old
