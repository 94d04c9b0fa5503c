"""The batched sweep engine against the per-point path it replaced.

``sweep_oracle.sweep_report`` is the old loop: one N=1 ``complete_2d`` /
scalar ``field_to_deformation`` call per grid point.  The streamed
``--out`` file, the ``--json`` stdout and the text stdout must all equal
its rendering byte for byte, across chunk and slice boundaries, singular
lines, both pivots, imaginary pivots, non-finite literals and every
error outcome.  A config that is
an input error (a value that is not a number, an empty axis, a grid past
the point cap) never reaches the engine: it is exit 2 with no rows.
"""
import contextlib
import dataclasses
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_oracle
import sweep_oracle
from ncphase import cli
from ncphase.dynamics import FieldConfig, field_to_deformation_batch
from ncphase.nc2d import (Params2D, SingularBranchError, complete_2d, complete_2d_batch,
                          complete_2d_imaginary, params2d_to_doc)
from sweep_oracle import render, sweep_report
from test_cli import strict_loads

NAN, INF = float("nan"), float("inf")


def sweep(text, out=None, warning_filter="error", as_json=True):
    """(exit code, stdout, --out bytes or None) of an in-process
    ``sweep --json``; by default a numpy warning, which would reach stderr, raises."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "sweep.json"
        config.write_text(text)
        argv = ["sweep", "--config", str(config)] + (["--json"] if as_json else [])
        if out:
            argv += ["--out", str(Path(tmp) / "rows.json")]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), warnings.catch_warnings():
            warnings.simplefilter(warning_filter)
            code = cli.run(argv)
        rows = Path(tmp) / "rows.json"
        written = rows.read_bytes() if rows.exists() else None
    return code, buf.getvalue(), written


ROW = ', {"command": '


def assert_same_text(got, want):
    """got == want, failing at the first row that differs, with its index:
    pytest's diff of two multi-megabyte texts runs for minutes."""
    got_head, got_open, got_rows = got.partition('"rows": [')
    want_head, want_open, want_rows = want.partition('"rows": [')
    assert (got_head, got_open) == (want_head, want_open)
    got_rows, want_rows = got_rows.split(ROW), want_rows.split(ROW)
    for i, (a, b) in enumerate(zip(got_rows, want_rows)):
        assert a == b, f"row {i} is the first that differs"
    assert len(got_rows) == len(want_rows), "the documents hold different numbers of rows"


def assert_matches_oracle(cfg):
    text = json.dumps(cfg)
    report = sweep_report(json.loads(text))
    want, status = render(report, True), report["status"]
    code, stdout, _ = sweep(text)
    assert_same_text(stdout, want + "\n")
    assert code == cli.EXITS[status]
    code, stdout, _ = sweep(text, as_json=False)  # the status line comes before the rows
    assert_same_text(stdout, render(report, False) + "\n")
    assert code == cli.EXITS[status]
    code, stdout, written = sweep(text, out=True)
    if status == "error":  # an input error is reported alike with --out, and writes no rows
        assert (code, stdout, written) == (2, want + "\n", None)
        return
    assert_same_text(written.decode(), want + "\n")
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
    # just outside and just inside the FThetaMinus line, where the unfactored
    # f_theta^2 - theta^2 cancels enough for the two pivot routes to disagree
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
    # an input error: exit 2 with no rows, whatever the chunk size
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


def singular_axis(points):
    """``points`` f_theta values for theta = 1: every 7th is 1.0 (FThetaPlus),
    every 11th -1.0 (FThetaMinus), the rest complete."""
    return [1.0 if i % 7 == 3 else -1.0 if i % 11 == 5 else 1.5 + i / points
            for i in range(points)]


SLICE = cli.SWEEP_SLICE
INTEGER_BASE = {"theta": 1, "eta": 2, "f_eta": 4, "f_theta_x": 3, "hbar": 2}
# Rows are rendered and written SWEEP_SLICE rows at a time: each case puts
# slice boundaries inside runs of pass and error rows.  The value is the
# config and the SWEEP_CHUNK it runs with.
WRITER_CASES = {
    "slice-minus-one": ({"task": "solve2d", "base": INTEGER_BASE,
                         "grid": {"f_theta": singular_axis(SLICE - 1)}}, cli.SWEEP_CHUNK),
    "slice": ({"task": "solve2d", "base": INTEGER_BASE,
               "grid": {"f_theta": singular_axis(SLICE)}}, cli.SWEEP_CHUNK),
    "slice-plus-one": ({"task": "solve2d", "base": INTEGER_BASE,
                        "grid": {"f_theta": singular_axis(SLICE + 1)}}, cli.SWEEP_CHUNK),
    # chunks of 2 slices and 3 rows, then a last chunk of 5 rows
    "chunk-not-a-slice-multiple": ({"task": "solve2d", "base": dict(INTEGER_BASE, theta=1.0),
                                    "grid": {"f_theta": singular_axis(4 * SLICE + 11)}},
                                   2 * SLICE + 3),
    # NonMatchableError and DegenerateFieldError rows, each kind one shared exception
    "shared-errors": ({"task": "match-field",
                       "base": {"alpha_x": 1, "beta_x": 2, "theta": 0.25, "hbar": 2},
                       "grid": {"alpha_y": [0.0, 1.0, -2.0], "beta_y": [2.0, 3.0, -4.0],
                                "f_theta": {"start": -2.0, "stop": 2.0, "num": 150}}},
                      cli.SWEEP_CHUNK),
    "imaginary": ({"task": "solve2d", "base": {"theta": 1.0, "eta": 2.0, "f_eta": 4.0,
                                               "f_theta_x": 3.0, "f_theta_y": 1.5},
                   "grid": {"f_theta_imag": [0.0, 0.5, -2.0, 1e-300],
                            "f_theta": singular_axis(300)}}, cli.SWEEP_CHUNK),
    "non-finite": ({"task": "solve2d", "base": dict(SOLVE2D_BASE, f_eta=4.0, f_theta_y=1.5),
                    # real draws complete from f_theta_y, so a NaN f_theta_x is
                    # a null in the points of pass rows
                    "grid": {"f_theta": [NAN, 2.0, INF, 2.5, -INF] * 205,
                             "f_theta_x": [1.0, NAN]}}, cli.SWEEP_CHUNK),
    # omega_commutative and omega_nc overflow: null metrics in pass rows
    "null-metrics": ({"task": "match-field",
                      "base": {"alpha_x": 1e150, "alpha_y": 2e150, "beta_x": 1e150,
                               "beta_y": 2e150},
                      "grid": {"m_p": [1e-300, 1.0], "hbar": [1e-10, 1.0],
                               "f_theta": {"start": -1.0, "stop": 1.0, "num": 300}}},
                     cli.SWEEP_CHUNK),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # from the oracle's numpy
@pytest.mark.parametrize("name", sorted(WRITER_CASES))
def test_streamed_rows_match_the_per_point_path(name, monkeypatch):
    cfg, chunk = WRITER_CASES[name]
    monkeypatch.setattr(cli, "SWEEP_CHUNK", chunk)
    assert_matches_oracle(cfg)


# The renderer writes each distinct value once: a point column once per
# chunk, every other column once per slice, keyed on the float's bits.  The
# value is the config and the SWEEP_CHUNK and SWEEP_SLICE it runs with.
RENDER_CASES = {
    # -0.0 and 0.0 in one column of one slice, in the point and the payload
    "signed-zeros": ({"task": "match-field",
                      "base": {"alpha_x": 1.0, "alpha_y": 2.0, "beta_x": 1.0, "beta_y": 2.0},
                      "grid": {"f_theta": [0.0, -0.0, 1.5, -0.0, 0.0], "theta": [-0.0, 0.0]}},
                     cli.SWEEP_CHUNK, SLICE),
    "signed-zeros-solve2d": ({"task": "solve2d", "base": dict(SOLVE2D_BASE, f_theta_x=3.0),
                              "grid": {"f_eta": [-0.0, 0.0, 4.0], "f_theta": [2.0, -0.0, 0.0]}},
                             cli.SWEEP_CHUNK, SLICE),
    # real draws complete from f_theta_y: a NaN or infinite f_theta_x
    # point reads null in pass rows
    "null-points": ({"task": "solve2d", "base": dict(SOLVE2D_BASE, f_eta=4.0, f_theta_y=1.5),
                     "grid": {"f_theta": [2.0, 3.0], "f_theta_x": [NAN, INF, -INF, 1.0, NAN]}},
                    cli.SWEEP_CHUNK, SLICE),
    # the last axis is longer than a chunk: its values recur in later chunks
    "axis-across-chunks": ({"task": "solve2d", "base": dict(SOLVE2D_BASE, f_eta=4.0),
                            "grid": {"f_theta": [2.0, 3.0],
                                     "f_theta_x": [3.0, -1.5, 3.0, 0.5, -0.0, 0.0, 2.0]}},
                           5, SLICE),
    # chunks of 4 rows in slices of 2: a chunk of only singular rows, one of
    # only pass rows, one with an error slice beside a pass slice, then a
    # slice with both; integer base values
    "error-slice-beside-pass-slice": ({"task": "solve2d", "base": INTEGER_BASE,
                                       "grid": {"f_theta": [1.0, -1.0, 1.0, -1.0, 2.0, 2.5, 3.0,
                                                            3.5, 1.0, -1.0, 2.0, 3.0, 1.0,
                                                            4.0]}},
                                      4, 2),
    # constant base values (int, float, -0.0) folded into the row template
    "constant-solve2d": ({"task": "solve2d",
                          "base": {"theta": -0.0, "eta": 2, "f_eta": 4.0, "f_theta_x": 3,
                                   "hbar": 0.5},
                          "grid": {"f_theta": [2.0, -0.0, 0.0, 1.5], "f_eta": [4.0, -2.0]}},
                         cli.SWEEP_CHUNK, SLICE),
    "constant-match-field": ({"task": "match-field",
                              "base": {"alpha_x": 1, "alpha_y": 2, "beta_x": 1.0, "theta": -0.0,
                                       "hbar": 2, "e": 1, "m_p": 0.5},
                              "grid": {"beta_y": [2.0, 3.0], "f_theta": [-0.0, 0.5, 0.0]}},
                             cli.SWEEP_CHUNK, SLICE),
    "all-error-match-field": ({"task": "match-field",
                               "base": {"alpha_x": 1, "beta_x": 2, "beta_y": 4},
                               "grid": {"alpha_y": [0.0, 2.0], "f_theta": [0.5, -0.5, 1.0]}},
                              3, SLICE),
    # singular kinds beside per-draw non-finite messages, and pass rows
    "mixed-notes": ({"task": "solve2d", "base": {"theta": 1, "eta": 2.0, "f_theta_x": 3},
                     "grid": {"f_theta": [1.0, NAN, -1.0, 2.0, INF, -1.0000000001],
                              "f_eta": [4.0, 2.0, NAN]}},
                    cli.SWEEP_CHUNK, SLICE),
    "mixed-notes-match-field": ({"task": "match-field",
                                 "base": {"alpha_x": 1.0, "beta_x": 1.0},
                                 "grid": {"alpha_y": [2.0, 0.0, NAN], "beta_y": [2.0, 3.0],
                                          "c": [0.0, 1.0]}},
                                cli.SWEEP_CHUNK, 5),
    "imaginary-integers": ({"task": "solve2d",
                            "base": {"theta": 1, "eta": 2, "f_eta": 4, "f_theta_x": 3,
                                     "f_theta_y": 1.5},
                            "grid": {"f_theta": [2.0, 1.0, -0.0], "f_theta_imag": [0.0, 0.5]}},
                           4, 3),
}


@pytest.mark.parametrize("name", sorted(RENDER_CASES))
def test_rendered_rows_match_the_per_point_path(name, monkeypatch):
    cfg, chunk, rows = RENDER_CASES[name]
    monkeypatch.setattr(cli, "SWEEP_CHUNK", chunk)
    monkeypatch.setattr(cli, "SWEEP_SLICE", rows)
    assert_matches_oracle(cfg)


def test_error_rows_can_share_one_exception():
    # the case "shared-errors" and the singular lines above rely on this
    done = complete_2d_batch(1.0, 2.0, [1.0, 1.0, 2.0, -1.0, 1.0], 4.0, 3.0)
    errors = [done.error(i) for i in range(5)]
    assert [e is None for e in errors] == [False, False, True, False, False]
    assert errors[0] is errors[1] is errors[4] and errors[3] is not errors[0]


# The engines' result contract: each column an (N,) array, or the one
# scalar every draw holds when its input was a scalar; each draw's first
# failing stage in an int8 array, -1 where it passed.

def oracle_completion(theta, eta, f_theta, f_eta, f_theta_x=None, hbar=1.0, f_theta_y=None,
                      f_theta_imag=0.0):
    """The Params2D of one draw by the scalar (N=1) call, or the exception
    it raised; the completed fields of a real pass are checked against
    exact arithmetic, to 4 ulps.  (An imaginary draw's bound depends on how
    near |f_theta| is to |theta|; tests/test_nc2d.py measures those.)"""
    try:
        if f_theta_imag:
            p = complete_2d_imaginary(theta, eta, complex(f_theta, f_theta_imag), f_eta,
                                      f_theta_x, hbar)
        elif f_theta_y is not None:
            p = complete_2d(theta, eta, f_theta, f_eta, hbar=hbar, f_theta_y=f_theta_y)
        else:
            p = complete_2d(theta, eta, f_theta, f_eta, f_theta_x, hbar)
    except Exception as err:  # every error outcome is compared, type and message
        return err
    if f_theta_imag:
        return p
    exact = exact_oracle.completion(theta, eta, f_theta, f_eta, f_theta_x=f_theta_x,
                                    f_theta_y=f_theta_y)
    for name, value in zip(("f_theta_x", "f_theta_y", "f_eta_x", "f_eta_y"), exact):
        assert exact_oracle.ulps(getattr(p, name), value) <= 4.0, name
    return p


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    for name in (f.name for f in dataclasses.fields(Params2D)):
        a, b = getattr(got, name), getattr(want, name)
        assert (type(a), repr(a)) == (type(b), repr(b)), name


def draw(inputs, i):
    return {k: v if np.ndim(v) == 0 else v[i].item() for k, v in inputs.items()}


COMPLETION_DRAWS = {
    # FThetaPlus, FThetaMinus, non-finite f_theta, ZeroPivot and passes;
    # integer and -0.0 scalars
    "x-pivot": {"theta": 1, "eta": 2.0, "f_eta": -0.0, "hbar": 2,
                "f_theta": np.array([2.0, 1.0, NAN, -1.0, 3.0, 2.5]),
                "f_theta_x": np.array([3.0, 3.0, 3.0, 3.0, 0.0, -1.5])},
    "y-pivot": {"theta": -0.0, "eta": 2, "f_eta": np.array([4.0, 2.0, -2.0, INF, 5.0]),
                "f_theta": 1.5, "f_theta_y": 3},
    # imaginary draws beside real ones: mixed-type columns
    "imaginary": {"theta": 1.0, "eta": 2.0, "f_eta": 4.0, "f_theta": 2, "f_theta_x": 3,
                  "f_theta_y": 1.5, "f_theta_imag": np.array([0.0, 0.5, -2.0, NAN, 0.0])},
}


@pytest.mark.parametrize("name", sorted(COMPLETION_DRAWS))
def test_completion_columns_match_the_scalar_path(name):
    inputs = COMPLETION_DRAWS[name]
    done = complete_2d_batch(**inputs)
    n = done.stage.size
    assert done.stage.dtype == np.int8 and done.stage.shape == (n,)
    for i in range(n):
        want = oracle_completion(**draw(inputs, i))
        assert (done.stage[i] >= 0) == isinstance(want, Exception)
        assert_same_outcome(done.error(i) or done.params(i), want)
    for column in done[:-2]:  # an array of the draws, or one scalar
        assert np.ndim(column) == 0 or column.shape == (n,)


def test_scalar_inputs_give_scalar_columns():
    f_theta = np.array([2.0, 1.0, 3.0, -1.0, NAN])
    done = complete_2d_batch(1, 2.0, f_theta, -0.0, 3, 2)
    assert (done.theta, done.hbar) == (1.0, 2.0) and type(done.theta) is float
    assert repr(done.f_eta) == "-0.0"
    assert done.f_theta_x == 3 and type(done.f_theta_x) is int  # the caller's own scalar
    assert done.imaginary_mode is False
    for column in (done.f_theta, done.f_theta_y, done.f_eta_x, done.f_eta_y, done.residual_max):
        assert column.dtype == float and column.shape == (5,)
    stage = done.stage.tolist()
    assert stage[0] == stage[2] == -1 and len({stage[1], stage[3], stage[4]}) == 3
    # a singular class is one exception its draws share; a non-finite
    # input builds each draw's own message
    assert isinstance(done.failures[stage[1]], SingularBranchError)
    assert done.error(1) is done.failures[stage[1]]
    assert str(done.error(4)) == "f_theta must be finite, got nan"


def test_match_columns_match_the_scalar_path():
    alpha_y = np.array([2.0, 0.0, 2.0, 2.0, NAN])
    beta_y = np.array([2.0, 2.0, 3.0, 2.0, 2.0])
    inputs = {"alpha_x": 1, "alpha_y": alpha_y, "beta_x": 1.0, "beta_y": beta_y, "e": 2,
              "f_theta": np.array([0.5, 0.5, 0.5, -0.0, 0.5]), "hbar": 2, "theta": -0.0}
    match = field_to_deformation_batch(**inputs)
    assert match.stage.tolist()[0] == match.stage.tolist()[3] == -1
    assert (match.params2d.theta, match.params2d.hbar) == (-0.0, 2.0)
    assert repr(match.params2d.theta) == "-0.0" and match.params2d.imaginary_mode is False
    for column in (match.eta, match.f_eta, match.kx, match.ky, match.params2d.f_theta):
        assert column.dtype == float and column.shape == (5,)
    for i in range(5):
        d = draw(inputs, i)
        try:
            field = FieldConfig(d["alpha_x"], d["alpha_y"], d["beta_x"], d["beta_y"], e=d["e"])
            want = sweep_oracle.field_to_deformation(field, d["f_theta"], d["hbar"], d["theta"])
        except Exception as err:  # every error outcome is compared, type and message
            want = err
        got = match.error(i)
        if isinstance(want, Exception):
            assert (type(got), str(got)) == (type(want), str(want))
        else:
            payload = want[0]
            assert got is None
            assert [match.eta[i], match.kx[i], match.ky[i]] == [
                payload["eta"], payload["kx"], payload["ky"]]
            assert params2d_to_doc(match.params2d.params(i)) == payload["params2d"]


def test_stdout_is_written_a_slice_at_a_time(tmp_path, monkeypatch):
    # no write holds more than one slice of rows, whatever the sink
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"task": "solve2d", "base": INTEGER_BASE,
                                  "grid": {"f_theta": singular_axis(3 * SLICE)}}))
    writes = []

    class Sink(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

    for as_json in (["--json"], []):
        writes.clear()
        monkeypatch.setattr(sys, "stdout", Sink())
        assert cli.run(["sweep", "--config", str(config)] + as_json) == 1
        assert len(writes) >= 3 + 2 and max(writes) < sum(writes) / 2.5


def test_non_finite_payload_in_a_pass_row_is_an_error(monkeypatch):
    # the writer never writes NaN or Infinity: such a row ends the sweep with exit 2
    task = cli._TASKS["solve2d"]

    def broken(cols):
        done, columns = task.batch(cols)
        columns["f_eta_x"] = np.full(len(columns["f_eta_x"]), NAN)
        return done, columns

    monkeypatch.setitem(cli._TASKS, "solve2d", task._replace(batch=broken))
    cfg = {"task": "solve2d", "base": dict(SOLVE2D_BASE, f_eta=4.0, f_theta_x=3.0),
           "grid": {"f_theta": [2.0, 3.0]}}
    code, stdout, _ = sweep(json.dumps(cfg), out=True)
    assert code == 2
    assert strict_loads(stdout)["errata_notes"][0].startswith(
        "ValueError: Out of range float values are not JSON compliant")


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


RUNNABLE_BASE = dict(SOLVE2D_BASE, f_eta=4.0, f_theta_x=3.0)


def assert_input_error(grid, note):
    """The config is exit 2 with ``note``, and no --out file is written."""
    text = json.dumps({"task": "solve2d", "base": RUNNABLE_BASE, "grid": grid})
    for out in (False, True):
        code, stdout, written = sweep(text, out=out)
        assert (code, written) == (2, None), stdout
        doc = strict_loads(stdout)
        assert doc["status"] == "error"
        assert note in doc["errata_notes"][0]


@pytest.mark.parametrize("grid", [{"f_theta": []},
                                  {"f_theta": {"start": 1.0, "stop": 2.0, "num": 0}},
                                  {"f_theta": [2.0, 3.0], "f_eta": []}],
                         ids=["empty-list", "num-0", "second-axis"])
def test_empty_axis_is_an_input_error(grid):
    assert_input_error(grid, "has no points")


@pytest.mark.parametrize("grid, note", [
    ({"f_theta": ["2.5", True]}, "'f_theta' is not a number: '2.5'"),
    ({"f_theta": [2.0, True]}, "'f_theta' is not a number: True"),
    ({"f_theta": [10**400]}, "'f_theta' is not a number: 1000"),
    ({"f_theta": [2.0, None]}, "'f_theta' is not a number: None"),
    ({"f_theta": [[2.0]]}, "'f_theta' is not a number: [2.0]"),
    ({"f_theta": {"start": "1", "stop": 2.0, "num": 3}}, "'f_theta' is not a number: '1'"),
    ({"f_theta": {"start": 1.0, "stop": -10**400, "num": 3}}, "'f_theta' is not a number: -1000"),
    ({"f_theta": {"start": 1.0, "stop": 2.0, "num": 2.5}}, "num is not a whole number: 2.5"),
    ({"f_theta": {"start": 1.0, "stop": 2.0, "num": float("inf")}}, "not a whole number: inf"),
    ({"f_theta": {"start": 1.0, "stop": 2.0, "num": True}}, "not a whole number: True"),
    ({"f_theta": {"start": 1.0, "stop": 2.0, "num": -2}}, "has no points"),
    ({"f_theta": 2.0}, "neither a list nor a start/stop/num spec: 2.0"),
], ids=["string-and-bool", "bool", "int-beyond-float", "null", "nested-list", "string-start",
        "int-beyond-float-stop", "fractional-num", "infinite-num", "bool-num", "negative-num",
        "scalar-axis"])
def test_grid_values_are_checked_like_base_values(grid, note):
    assert_input_error(grid, note)


@pytest.mark.parametrize("cfg", [[], "sweep", 2.0, None])
def test_config_that_is_not_an_object_is_an_input_error(cfg):
    code, stdout, written = sweep(json.dumps(cfg), out=True)
    assert (code, written) == (2, None)
    assert strict_loads(stdout)["errata_notes"] == ["a sweep config is a JSON object"]


@pytest.mark.parametrize("field, value", [("grid", [1]), ("grid", "ab"), ("grid", 2.0),
                                          ("base", [1]), ("base", None)])
def test_grid_or_base_that_is_not_an_object_is_an_input_error(field, value):
    # "grid": [1] was an IndexError traceback (exit 1); "base": [1] read
    # "TypeError: cannot convert dictionary update sequence element #0 ..."
    cfg = {"task": "solve2d", "base": RUNNABLE_BASE, "grid": {"f_theta": [2.0]}, field: value}
    for out in (False, True):
        code, stdout, written = sweep(json.dumps(cfg), out=out)
        assert (code, written) == (2, None)
        assert strict_loads(stdout)["errata_notes"] == [
            f"sweep {field} is not a JSON object: {value!r}"]


@pytest.mark.parametrize("cfg, name", [
    ({"task": "solve2d", "base": dict(RUNNABLE_BASE, f_theta=2.0), "grid": {"f_thta": [1.0, 5.0]}},
     "f_thta"),
    ({"task": "solve2d", "base": dict(RUNNABLE_BASE, hbr=2.0), "grid": {"f_theta": [2.0, 3.0]}},
     "hbr"),
    ({"task": "match-field", "base": {"alpha_x": 1.0, "alpha_y": 2.0, "beta_x": 1.0,
                                      "beta_y": 2.0},
      "grid": {"f_eta": [1.0, 5.0, 7.0]}}, "f_eta"),
], ids=["grid-axis", "base-key", "match-field-axis"])
def test_parameter_the_task_does_not_read_is_an_input_error(cfg, name):
    # such an axis ran every point alike and the document held one row per
    # chunk, not per point; a misspelt base key left its parameter at the default
    for out in (False, True):
        code, stdout, written = sweep(json.dumps(cfg), out=out)
        assert (code, written) == (2, None)
        assert strict_loads(stdout)["errata_notes"] == [
            f"sweep task {cfg['task']} has no parameter {name!r}"]


def test_point_cap_is_checked_before_any_axis_is_built(monkeypatch):
    # an over-cap grid must not allocate its axes: linspace is never called
    def linspace(*args, **kwargs):
        raise AssertionError(f"linspace called for an over-cap grid: {args}")

    monkeypatch.setattr(cli.np, "linspace", linspace)
    for grid in ({"f_theta": {"start": 0.0, "stop": 1.0, "num": 3 * 10**6}},
                 {"f_eta": {"start": 0.0, "stop": 1.0, "num": 10},
                  "f_theta": {"start": 0.0, "stop": 1.0, "num": 10**17}},
                 {"f_theta": {"start": 0.0, "stop": 1.0, "num": 1e300}}):
        assert_input_error(grid, "exceeds the 1e6 cap")


# Values a hand-written config may hold: numbers of every kind, and the
# JSON values that are not numbers.
NUMBERS = st.one_of(st.floats(-4.0, 4.0), st.floats(), st.integers(-10, 10),
                    st.sampled_from([1e300, -1e300, 10**300]))
NOT_NUMBERS = st.one_of(st.integers(2**1024, 2**1100), st.integers(-2**1100, -2**1024),
                        st.text(max_size=3), st.booleans(), st.none(),
                        st.lists(st.floats(-4.0, 4.0), max_size=2),
                        st.lists(st.lists(st.none(), max_size=1), max_size=1))
VALUES = st.one_of(NUMBERS, NOT_NUMBERS)
NUMS = st.one_of(st.integers(-2, 4), st.sampled_from([2.0, 2.5, 0.0, -1.0, float("nan"),
                                                     float("inf"), 1e300, 10**400, 3 * 10**6]),
                 NOT_NUMBERS)
PARAMETERS = {"solve2d": ["theta", "eta", "f_theta", "f_eta", "f_theta_x", "f_theta_y",
                          "f_theta_imag", "hbar"],
              "match-field": ["alpha_x", "alpha_y", "beta_x", "beta_y", "e", "c", "m_p",
                              "f_theta", "theta", "hbar"]}
REQUIRED = {"solve2d": 5, "match-field": 4}  # the leading names of PARAMETERS
AXES = st.one_of(
    st.lists(NUMBERS, min_size=1, max_size=3),
    st.fixed_dictionaries({"start": NUMBERS, "stop": NUMBERS, "num": st.integers(1, 4)}),
    st.lists(VALUES, max_size=3),
    st.fixed_dictionaries({"start": VALUES, "stop": VALUES, "num": NUMS}),
    VALUES,
)


# a base or grid that is not an object: a list once read an IndexError traceback
NOT_OBJECTS = st.one_of(VALUES, st.lists(st.integers(0, 3), min_size=1, max_size=3),
                        st.text(min_size=1, max_size=3))


@st.composite
def hand_written_configs(draw):
    # every required parameter in base, then a few drawn from any value;
    # now and then a base or grid that is not an object
    task = draw(st.sampled_from(sorted(PARAMETERS)))
    names = PARAMETERS[task]
    base = {name: draw(NUMBERS) for name in names[:REQUIRED[task]]}
    base.update(draw(st.dictionaries(st.sampled_from(names), VALUES, max_size=2)))
    axes = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    grid = {name: draw(AXES) for name in axes}
    shape = draw(st.sampled_from(["objects"] * 8 + ["base", "grid"]))
    if shape == "base":
        base = draw(NOT_OBJECTS)
    elif shape == "grid":
        grid = draw(NOT_OBJECTS)
    return {"task": task, "base": base, "grid": grid}


def is_number(v):
    return type(v) is float or (type(v) is int and abs(v) <= sys.float_info.max)


def is_input_error(cfg):
    """A base or grid that is not an object, a base or grid value that is
    not a number, an axis without points, or more points than the cap."""
    if not (isinstance(cfg["base"], dict) and isinstance(cfg["grid"], dict)):
        return True
    if not all(is_number(v) for v in cfg["base"].values()):
        return True
    points = 1
    for spec in cfg["grid"].values():
        if isinstance(spec, dict):
            num = spec["num"]
            whole = is_number(num) and math.isfinite(num) and num == int(num)
            if not (whole and num >= 1 and is_number(spec["start"]) and is_number(spec["stop"])):
                return True
            points *= int(num)
        elif not isinstance(spec, list) or not spec or not all(map(is_number, spec)):
            return True
        else:
            points *= len(spec)
    return points > cli.SWEEP_MAX_POINTS


@settings(max_examples=300, deadline=None)
@given(cfg=hand_written_configs(), out=st.booleans())
def test_hand_written_sweep_configs_never_escape(cfg, out):
    # whatever the config holds: an exit code of the contract, strict JSON
    # on stdout, and exit 2 for exactly the configs that are input errors
    code, stdout, _ = sweep(json.dumps(cfg), out=out, warning_filter="ignore")
    assert code in (0, 1, 2)
    doc = strict_loads(stdout)
    assert doc["command"] == "sweep"
    assert (code == 2) == is_input_error(cfg), doc["errata_notes"]
