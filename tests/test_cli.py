"""End-to-end CLI runs through subprocess: exit codes, schemas, determinism."""
import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

from csv_oracle import trajectory_csv
from ncphase import cli, nc2d
from ncphase.algebra import DeformationParams, map_to_json, params_to_json, sw_map
from ncphase.dynamics import (CSV_CHUNK, STATIC_FIELD_NOTE, ClosedFormCoeffs, FieldConfig, period,
                              simulate_matched)

CLI = [sys.executable, "-m", "ncphase.cli"]


def run_cli(*args, cwd=None, timeout=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, cwd=cwd,
                          timeout=timeout)


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def strict_loads(text):
    """json.loads that refuses the NaN / Infinity / -Infinity extensions."""
    return json.loads(text, parse_constant=_reject_constant)


@pytest.fixture
def sw_fixture(tmp_path):
    params = DeformationParams.isotropic_2d(0.7, 0.0)
    m = sw_map(params)
    map_path = tmp_path / "m.json"
    par_path = tmp_path / "t.json"
    map_path.write_text(map_to_json(m))
    par_path.write_text(params_to_json(params))
    return map_path, par_path


@pytest.fixture
def scenario(tmp_path):
    doc = {
        "field": {"alpha_x": 1.0, "alpha_y": 2.0, "beta_x": 1.0, "beta_y": 2.0},
        "coeffs": {"x1": 0.05, "x2": 0.05, "x3": 1.0, "y3": 0.5},
        "params": {"hbar": 1.0},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    return path


def test_check_map_pass(sw_fixture):
    map_path, par_path = sw_fixture
    r = run_cli("check-map", "--map", str(map_path), "--theta", str(par_path),
                "--tol", "1e-10")
    assert r.returncode == 0
    assert "status: pass" in r.stdout


def test_check_map_fail_exit_code(sw_fixture, tmp_path):
    map_path, _ = sw_fixture
    wrong = tmp_path / "wrong.json"
    wrong.write_text(params_to_json(DeformationParams.isotropic_2d(1.5, 0.0)))
    r = run_cli("check-map", "--map", str(map_path), "--theta", str(wrong))
    assert r.returncode == 1


@pytest.mark.parametrize("theta", [4e-40, 1.0, 3e5])
def test_check_map_fails_a_sign_flipped_target_at_any_scale(theta, tmp_path):
    # at theta = 4e-40 (the paper's bound) an absolute --tol 1e-10 would pass
    # the deviation 8e-40; it is twice its entry's scale |B_01| + |B_10|
    built = DeformationParams.isotropic_2d(theta, 0.0)
    (tmp_path / "m.json").write_text(map_to_json(sw_map(built)))
    for target, code in ((theta, 0), (-theta, 1)):
        params = DeformationParams.isotropic_2d(target, 0.0)
        (tmp_path / "t.json").write_text(params_to_json(params))
        r = run_cli("check-map", "--map", str(tmp_path / "m.json"),
                    "--theta", str(tmp_path / "t.json"), "--json")
        assert r.returncode == code, r.stdout
        doc = strict_loads(r.stdout)
        assert doc["status"] == ("pass", "fail")[code]
        assert doc["metrics"]["max_abs_xx"] == (0.0 if code == 0 else 2 * theta)


@pytest.mark.parametrize("index, key, value", [
    (0, "A", [[float("nan"), 0.0], [0.0, 1.0]]),
    (0, "hbar", float("nan")),
    # antisymmetric, so only a finiteness check rejects it
    (1, "eta", [[0.0, float("inf")], [-float("inf"), 0.0]]),
], ids=["map-A-nan", "map-hbar-nan", "params-eta-inf"])
def test_check_map_non_finite_input_is_an_error(index, key, value, sw_fixture):
    path = sw_fixture[index]
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    r = run_cli("check-map", "--map", str(sw_fixture[0]), "--theta", str(sw_fixture[1]), "--json")
    assert r.returncode == 2, r.stdout
    doc = strict_loads(r.stdout)
    assert doc["status"] == "error"
    assert ("must be finite" if key != "hbar" else "hbar mismatch") in doc["errata_notes"][0]


@pytest.mark.parametrize("index", [0, 1], ids=["map", "theta"])
@pytest.mark.parametrize("dim, shown", [("1e400", "inf"), ("2.9", "2.9"), ('"2"', "'2'")])
def test_check_map_dim_is_a_whole_number(dim, shown, index, sw_fixture, capsys):
    # 1e400 was an OverflowError traceback (exit 1); 2.9 and "2" were read as 2
    path = sw_fixture[index]
    path.write_text(path.read_text().replace('"dim": 2', f'"dim": {dim}'))
    argv = ["check-map", "--map", str(sw_fixture[0]), "--theta", str(sw_fixture[1]), "--json"]
    assert cli.run(argv) == 2
    doc = strict_loads(capsys.readouterr().out)
    assert doc["errata_notes"] == [f"ValueError: dim must be a whole number, got {shown}"]
    path.write_text(path.read_text().replace(f'"dim": {dim}', '"dim": 2.0'))
    assert cli.run(argv) == 0


def test_check_map_missing_file_exit_code(tmp_path):
    r = run_cli("check-map", "--map", str(tmp_path / "nope.json"),
                "--theta", str(tmp_path / "nope2.json"))
    assert r.returncode == 2


def test_solve2d_worked_instance():
    r = run_cli("solve2d", "--theta", "1", "--eta", "2", "--f-theta", "2",
                "--f-eta", "4", "--f-theta-x", "3", "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["payload"]["f_theta_y"] == 1.0
    assert doc["payload"]["f_eta_x"] == -2.0
    assert doc["payload"]["f_eta_y"] == -6.0


def test_solve2d_human_output_carries_json():
    r = run_cli("solve2d", "--theta", "1", "--eta", "2", "--f-theta", "2",
                "--f-eta", "4", "--f-theta-x", "3")
    assert r.returncode == 0
    payload = json.loads(r.stdout.strip().split("\n")[-1])
    assert payload["f_theta_y"] == 1.0


def test_solve2d_singular_exit_code():
    r = run_cli("solve2d", "--theta", "1", "--eta", "2", "--f-theta", "1",
                "--f-eta", "4", "--f-theta-x", "3")
    assert r.returncode == 2
    assert "FThetaPlus" in r.stdout


@pytest.mark.parametrize("pivots", [[], ["--f-theta-x", "3", "--f-theta-y", "7"]],
                         ids=["neither", "both"])
def test_solve2d_takes_exactly_one_pivot(pivots, capsys):
    # with both, the given f_theta_x was dropped and the y pivot's completion reported
    code, out = run_in_process(["solve2d", "--theta", "1", "--eta", "2", "--f-theta", "2",
                                "--f-eta", "4", *pivots, "--json"], capsys)
    assert code == 2
    assert strict_loads(out)["errata_notes"] == [
        "ValueError: exactly one of f_theta_x, f_theta_y must be given"]


def _subparsers():
    return next(action.choices for action in cli._PARSER._actions
                if isinstance(action, argparse._SubParsersAction))


FLOAT_FLAGS = [(command, action) for command, parser in _subparsers().items()
               for action in parser._actions if action.type is float]


@pytest.mark.parametrize("command, action", FLOAT_FLAGS,
                         ids=[f"{c}{a.option_strings[0]}" for c, a in FLOAT_FLAGS])
def test_float_flags_take_negative_numbers_in_exponent_form(command, action):
    # space-separated, a value in the form repr writes was a usage error
    argv = [command]
    for other in _subparsers()[command]._actions:
        if other.required and other is not action:
            argv += [other.option_strings[0], "1"]
    for value in ["-2e+0", "-1e-05", "-.5E3", "-7"]:
        ns = cli._PARSER.parse_args(argv + [action.option_strings[0], value])
        assert getattr(ns, action.dest) == float(value)
    with pytest.raises(SystemExit) as exc:  # still an option name, so a usage error
        cli._PARSER.parse_args(argv + [action.option_strings[0], "-inf"])
    assert exc.value.code == 2


def test_unknown_flag_is_an_error():
    r = run_cli("solve2d", "--theta", "1", "--no-such-flag", "2")
    assert r.returncode == 2


def test_gen3d_solve3d_pipeline(tmp_path):
    p3 = tmp_path / "p3.json"
    r = run_cli("gen3d", "--seed", "42", "--out", str(p3), "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["metrics"]["residual_max"] <= 1e-12

    # perturb the stored instance, then ask the solver to repair it
    stored = json.loads(p3.read_text())
    stored["f_eta_diag"] = [v + 1e-3 for v in stored["f_eta_diag"]]
    p3.write_text(json.dumps(stored))
    out = tmp_path / "solved.json"
    r = run_cli("solve3d", "--input", str(p3), "--frozen", "theta,eta",
                "--out", str(out), "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["metrics"]["residual_max"] <= 1e-10
    assert out.exists()


@pytest.mark.parametrize("key, value, shown", [
    ("theta", "123", "value 'theta' is not a number: '123'"),
    ("theta", [0.1, True, 0.2], "value 'theta' is not a number: True"),
    ("eta", [0.1, "1.5", 0.2], "value 'eta' is not a number: '1.5'"),
    ("f_eta_off", [0.1, None, 0.2], "value 'f_eta_off' is not a number: None"),
    ("hbar", "0.5", "value 'hbar' is not a number: '0.5'"),
    ("hbar", True, "value 'hbar' is not a number: True"),
    ("hbr", 0.5, "has no key 'hbr'"),
], ids=["theta-string", "theta-bool", "eta-string", "null", "hbar-string", "hbar-bool",
        "misspelt-key"])
def test_solve3d_input_holds_numbers_and_known_keys(key, value, shown, tmp_path, capsys):
    # "123" ran as theta = (1, 2, 3), true and "1.5" as numbers, and a
    # misspelt hbr as hbar = 1, each with exit 0
    p3 = tmp_path / "p3.json"
    assert cli.run(["gen3d", "--seed", "42", "--out", str(p3)]) == 0
    solved = tmp_path / "solved.json"
    assert cli.run(["solve3d", "--input", str(p3), "--out", str(solved)]) == 0
    assert cli.run(["solve3d", "--input", str(solved)]) == 0  # --out files load too
    capsys.readouterr()
    p3.write_text(json.dumps(dict(json.loads(p3.read_text()), **{key: value})))
    assert cli.run(["solve3d", "--input", str(p3), "--json"]) == 2
    doc = strict_loads(capsys.readouterr().out)
    assert doc["errata_notes"] == [f"ValueError: 3D parameter file {shown}"]


@pytest.mark.parametrize("index, key, value, shown", [
    (0, "B", [["-0.5", 0.0], [0.35, 0.0]], "map file value 'B' is not a number: '-0.5'"),
    (0, "hbar", True, "map file value 'hbar' is not a number: True"),
    (0, "extra", 1.0, "map file has no key 'extra'"),
    (1, "hbar", True, "deformation file value 'hbar' is not a number: True"),
    (1, "theta", [[0.0, "0.7"], [-0.7, 0.0]],
     "deformation file value 'theta' is not a number: '0.7'"),
    (1, "hbr", 1.0, "deformation file has no key 'hbr'"),
], ids=["map-string-entry", "map-hbar-bool", "map-extra-key", "params-hbar-bool",
        "params-string-entry", "params-misspelt-key"])
def test_check_map_files_hold_numbers_and_known_keys(index, key, value, shown, sw_fixture,
                                                     capsys):
    path = sw_fixture[index]
    path.write_text(json.dumps(dict(json.loads(path.read_text()), **{key: value})))
    argv = ["check-map", "--map", str(sw_fixture[0]), "--theta", str(sw_fixture[1]), "--json"]
    assert cli.run(argv) == 2
    assert strict_loads(capsys.readouterr().out)["errata_notes"] == [f"ValueError: {shown}"]


def test_match_field_payload_and_note():
    r = run_cli("match-field", "--alpha-x", "1", "--alpha-y", "2",
                "--beta-x", "1", "--beta-y", "2", "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["payload"]["eta"] == 1.0
    assert doc["payload"]["f_eta"] == -3.0
    assert len(doc["errata_notes"]) == 1
    assert "pairing" in doc["errata_notes"][0]


def test_match_field_nonmatchable_exit_code():
    r = run_cli("match-field", "--alpha-x", "1", "--alpha-y", "2",
                "--beta-x", "1", "--beta-y", "3")
    assert r.returncode == 2


def test_simulate_row_count(scenario, tmp_path):
    out = tmp_path / "traj.csv"
    r = run_cli("simulate", "--scenario", str(scenario), "--out", str(out),
                "--steps", "4096")
    assert r.returncode == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,x,y,px,py,xhat,yhat,pxhat,pyhat"
    assert len(lines) == 4098  # header + 4097 data rows, t=0 included


def test_simulate_deterministic(scenario, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = run_cli("simulate", "--scenario", str(scenario), "--out", str(out1),
                 "--steps", "512", "--json")
    r2 = run_cli("simulate", "--scenario", str(scenario), "--out", str(out2),
                 "--steps", "512", "--json")
    assert r1.stdout == r2.stdout
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_default_dt_is_period_over_4096(scenario, tmp_path):
    # a null dt is T/4096 whatever the step count, so 512 steps cover T/8
    r = run_cli("simulate", "--scenario", str(scenario), "--out", str(tmp_path / "traj.csv"),
                "--steps", "512", "--json")
    assert r.returncode == 0, r.stdout
    field = FieldConfig(**json.loads(scenario.read_text())["field"])
    metrics = strict_loads(r.stdout)["metrics"]
    assert metrics["steps"] == 512
    assert metrics["dt"] == period(field) / 4096


@pytest.mark.parametrize("steps", [1, CSV_CHUNK - 1, CSV_CHUNK + 1])
def test_simulate_csv_matches_the_per_value_oracle(steps, scenario, tmp_path):
    # the chunked writer against the per-value one it replaced, on the
    # trajectory simulate_matched integrates for the same scenario
    out = tmp_path / "traj.csv"
    r = run_cli("simulate", "--scenario", str(scenario), "--out", str(out),
                "--steps", str(steps))
    assert r.returncode == 0, r.stdout
    doc = json.loads(scenario.read_text())
    field = FieldConfig(**doc["field"])
    coeffs = ClosedFormCoeffs.for_field(field, **doc["coeffs"])
    traj, _ = simulate_matched(field, coeffs, hbar=doc["params"]["hbar"], steps=steps)
    assert out.read_text() == trajectory_csv(traj)


@pytest.mark.parametrize("dt", ["nan", "0", "-0.01", "inf"])
def test_simulate_step_must_be_positive_and_finite(dt, scenario, tmp_path):
    # --dt nan used to pass and write rows of nan; 0 and -0.01 failed only
    # through the trajectory's increasing-times check
    out = tmp_path / "traj.csv"
    r = run_cli("simulate", "--scenario", str(scenario), "--out", str(out), "--dt", dt, "--json")
    assert r.returncode == 2, r.stdout
    doc = strict_loads(r.stdout)
    assert doc["errata_notes"] == [f"ValueError: dt must be positive and finite, got {float(dt)!r}"]
    assert not out.exists()


def test_equivalence_nan_step_is_an_input_error(scenario, tmp_path):
    # a scenario "dt": NaN used to end as a tolerance failure (exit 1)
    # with null deviations
    nan_dt = tmp_path / "nan_dt.json"
    nan_dt.write_text(json.dumps(dict(json.loads(scenario.read_text()), dt=float("nan"))))
    r = run_cli("equivalence", "--scenario", str(nan_dt), "--json")
    assert r.returncode == 2, r.stdout
    assert strict_loads(r.stdout)["errata_notes"] == [
        "ValueError: dt must be positive and finite, got nan"]


@pytest.mark.parametrize("command", ["simulate", "equivalence"])
@pytest.mark.parametrize("field, value, note", [
    ("coeffs", [1, 2], "scenario coeffs is not a JSON object: [1, 2]"),
    ("params", [1], "scenario params is not a JSON object: [1]"),
    ("steps", 1e400, "steps must be a whole number, got inf"),
    ("steps", 12.7, "steps must be a whole number, got 12.7"),
    ("steps", True, "steps must be a whole number, got True"),
    ("steps", "12", "steps must be a whole number, got '12'"),
    ("dt", True, "scenario dt is neither a number nor null: True"),
    ("stepz", 2, "scenario has no key 'stepz'"),
    ("params", {"hbarr": 2}, "scenario params has no key 'hbarr'"),
    ("coeffs", {"x_1": 0.5}, "scenario coeffs has no key 'x_1'"),
], ids=["coeffs-list", "params-list", "steps-overflow", "steps-fraction", "steps-bool",
        "steps-string", "dt-bool", "misspelt-steps", "misspelt-hbar", "misspelt-x1"])
def test_scenario_fields_have_their_types(command, field, value, note, scenario, tmp_path,
                                          capsys):
    # a list for coeffs or params was an AttributeError traceback, steps
    # 1e400 an OverflowError one; 12.7 ran 12 steps, true 1 and "12" 12; a
    # misspelt key ran with the defaults
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(json.loads(scenario.read_text()), **{field: value})))
    out = tmp_path / "traj.csv"
    argv = [command, "--scenario", str(bad), "--json"]
    code = cli.run(argv + (["--out", str(out)] if command == "simulate" else []))
    assert code == 2
    assert strict_loads(capsys.readouterr().out)["errata_notes"] == [f"ValueError: {note}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "equivalence"])
@pytest.mark.parametrize("section, key", [("coeffs", "x1"), ("params", "hbar"), ("field", "e")])
@pytest.mark.parametrize("value", [True, 10**400], ids=["bool", "int-beyond-float"])
def test_scenario_values_are_json_numbers(command, section, key, value, scenario, tmp_path,
                                          capsys):
    # true ran as 1.0 and passed; an integer beyond the float range was an
    # OverflowError traceback with exit 1
    doc = json.loads(scenario.read_text())
    doc[section][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "traj.csv"
    argv = [command, "--scenario", str(bad), "--json"]
    code = cli.run(argv + (["--out", str(out)] if command == "simulate" else []))
    assert code == 2
    assert strict_loads(capsys.readouterr().out)["errata_notes"] == [
        f"ValueError: scenario {section} value {key!r} is not a number: {value!r}"]
    assert not out.exists()


def test_equivalence_at_zero_field_says_its_pass_is_vacuous(scenario, tmp_path, capsys):
    doc = json.loads(scenario.read_text())
    doc["field"] = {"alpha_x": 1.0, "alpha_y": 1.0, "beta_x": 1.0, "beta_y": 1.0}  # b_z = 0
    static = tmp_path / "static.json"
    static.write_text(json.dumps(doc))
    assert cli.run(["equivalence", "--scenario", str(static), "--json"]) == 0
    report = strict_loads(capsys.readouterr().out)
    assert report["errata_notes"] == [STATIC_FIELD_NOTE]
    assert cli.run(["equivalence", "--scenario", str(scenario), "--json"]) == 0
    assert STATIC_FIELD_NOTE not in strict_loads(capsys.readouterr().out)["errata_notes"]


def test_overflowing_input_number_is_an_input_error(sw_fixture, tmp_path):
    # an integer beyond the float range reaching float(): an OverflowError
    # traceback with exit 1 in a check-map map file and a solve3d input file
    huge = "1" + "0" * 400
    map_path = sw_fixture[0]
    map_path.write_text(map_path.read_text().replace('"hbar": 1.0', f'"hbar": {huge}'))
    doc = json.loads(run_cli("gen3d", "--seed", "1", "--json").stdout)["payload"]
    p3 = tmp_path / "p3.json"
    p3.write_text(json.dumps(doc).replace('"hbar": 1.0', f'"hbar": {huge}'))
    for argv in (["check-map", "--map", str(map_path), "--theta", str(sw_fixture[1])],
                 ["solve3d", "--input", str(p3)]):
        r = run_cli(*argv, "--json")
        assert r.returncode == 2, (r.stdout, r.stderr)
        assert "Traceback" not in r.stderr
        assert strict_loads(r.stdout)["errata_notes"] == [
            "OverflowError: int too large to convert to float"]


def test_integral_float_steps_stay_a_count(scenario, tmp_path, capsys):
    # JSON does not tell 12 from 12.0: a float with no fraction is a count
    doc = tmp_path / "float_steps.json"
    doc.write_text(json.dumps(dict(json.loads(scenario.read_text()), steps=12.0)))
    code = cli.run(["simulate", "--scenario", str(doc), "--out", str(tmp_path / "t.csv"),
                    "--json"])
    assert code == 0
    assert strict_loads(capsys.readouterr().out)["metrics"]["steps"] == 12


@pytest.mark.parametrize("command", ["simulate", "equivalence"])
def test_zero_steps_is_an_input_error(command, scenario, tmp_path):
    # only a missing count selects the default; 0 from the scenario or the
    # flag must not silently run 4096 steps
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(dict(json.loads(scenario.read_text()), steps=0)))
    out = ["--out", str(tmp_path / "traj.csv")] if command == "simulate" else []
    cases = [("--scenario", str(zero))]
    if command == "simulate":
        cases.append(("--scenario", str(scenario), "--steps", "0"))
    for case in cases:
        r = run_cli(command, *case, *out)
        assert r.returncode == 2, r.stdout
        assert "steps must be at least 1" in r.stdout


@pytest.mark.parametrize("value, code", [("nan", 2), ("inf", 2), (1e300, 1)])
def test_solve3d_non_finite_or_overflowing_input_terminates(value, code, tmp_path):
    # non-finite input is rejected; a finite input whose residual overflows
    # ends as a non-converged result instead of cycling the damping ladder
    doc = json.loads(run_cli("gen3d", "--seed", "1", "--json").stdout)["payload"]
    doc["theta"][0] = float(value)
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(doc))
    r = run_cli("solve3d", "--input", str(path), "--json", timeout=60)
    assert r.returncode == code, r.stdout
    assert "Traceback" not in r.stderr
    doc = strict_loads(r.stdout)
    assert doc["status"] == ("error" if code == 2 else "fail")
    if code == 1:  # the overflow is reported as null, with the solver's note
        assert doc["metrics"]["residual_norm"] is None
        assert "overflows" in doc["errata_notes"][0]


@pytest.mark.parametrize("theta, f_theta_x", [
    ("nan", "3"), ("inf", "3"), ("-inf", "3"), ("1", "nan"),
    ("1e200", "3e200"),  # finite, but the completion overflows
])
def test_solve2d_non_finite_or_overflowing_input_is_an_error(theta, f_theta_x):
    r = run_cli("solve2d", f"--theta={theta}", "--eta", "3e200", "--f-theta", "2e200",
                "--f-eta", "4e200", "--f-theta-x", f_theta_x, "--json")
    assert r.returncode == 2, r.stdout
    assert "Traceback" not in r.stderr
    doc = strict_loads(r.stdout)
    assert doc["status"] == "error"
    assert "ValueError" in doc["errata_notes"][0]


@pytest.mark.parametrize("flag", ["--alpha-x", "--beta-y", "--e", "--theta", "--hbar"])
def test_match_field_non_finite_input_is_an_error(flag):
    args = {"--alpha-x": "1", "--alpha-y": "2", "--beta-x": "1", "--beta-y": "2"}
    args[flag] = "nan"
    r = run_cli("match-field", *[tok for kv in args.items() for tok in kv], "--json")
    assert r.returncode == 2, r.stdout
    doc = strict_loads(r.stdout)
    assert doc["status"] == "error"
    assert "must be finite" in doc["errata_notes"][0]


MATCH_ARGS = ["match-field", "--alpha-x", "1", "--alpha-y", "2", "--beta-x", "1", "--beta-y", "2"]


NEAR_F_THETA_MINUS = ["solve2d", "--theta", "1", "--eta", "2", "--f-theta", "-1.000000001",
                      "--f-eta", "4", "--f-theta-x", "3"]
# one of 20,000 draws from [-5, 5]
UNIFORM_DRAW = ["solve2d", "--theta", "1.510777468947813", "--eta", "-3.3907194650053354",
                "--f-theta", "-1.5108143615827005", "--f-eta", "-3.0470269247281214",
                "--f-theta-x", "-4.003096038678864"]


@pytest.mark.parametrize("argv, f_theta_y", [
    # just outside the FThetaMinus tolerance; the correctly rounded value
    (NEAR_F_THETA_MINUS, "6.666667221602474e-10"),
    (UNIFORM_DRAW, "-2.784706714644898e-05"),
], ids=["near-f-theta-minus", "uniform-draw"])
def test_solve2d_just_off_a_singular_line_passes(argv, f_theta_y):
    # unfactored, f_theta^2 - theta^2 cancels here enough for the two pivot
    # routes to disagree
    r = run_cli(*argv, "--json")
    assert r.returncode == 0, r.stdout
    assert f'"f_theta_y": {f_theta_y}' in r.stdout
    assert strict_loads(r.stdout)["status"] == "pass"


@pytest.mark.parametrize("tolerance, argv, note", [
    ("ROUTE_AGREEMENT_RTOL", NEAR_F_THETA_MINUS,
     "RuntimeError: pivot routes disagree by 8.882e-16"),
    ("RESIDUAL_TOL", UNIFORM_DRAW,
     "RuntimeError: completion residual 1.743e-15 exceeds tolerance"),
], ids=["pivot-routes", "residual"])
def test_solve2d_failed_check_is_an_error_report(tolerance, argv, note, monkeypatch, capsys):
    # no known input fails these checks; a zero tolerance makes the last-bit
    # gap of these draws fail them
    monkeypatch.setattr(nc2d, tolerance, 0.0)
    assert cli.run(argv + ["--json"]) == 2
    doc = strict_loads(capsys.readouterr().out)
    assert (doc["status"], doc["errata_notes"]) == ("error", [note])


@pytest.mark.parametrize("argv", [
    MATCH_ARGS + ["--c", "0"],
    MATCH_ARGS + ["--m-p", "0"],
    ["simulate", "--scenario", "{zero_e}", "--out", "{out}"],
    ["equivalence", "--scenario", "{zero_e}"],
], ids=["c-0", "m_p-0", "simulate-e-0", "equivalence-e-0"])
def test_runtime_and_zero_division_errors_are_error_reports(argv, scenario, tmp_path):
    zero_e = tmp_path / "zero_e.json"
    doc = json.loads(scenario.read_text())
    doc["field"]["e"] = 0.0
    zero_e.write_text(json.dumps(doc))
    paths = {"zero_e": zero_e, "out": tmp_path / "traj.csv"}
    r = run_cli(*[tok.format(**paths) for tok in argv], "--json")
    assert r.returncode == 2, (r.stdout, r.stderr)
    assert "Traceback" not in r.stderr
    doc = strict_loads(r.stdout)
    assert doc["status"] == "error"
    assert doc["errata_notes"][0].startswith(("RuntimeError", "ZeroDivisionError"))


SOLVE2D_ARGS = ["solve2d", "--theta", "1", "--eta", "2", "--f-theta", "2", "--f-eta", "4",
                "--f-theta-x", "3"]


def test_text_reports_hold_python_numbers(scenario, tmp_path, capsys):
    # the engines return numpy columns; a numpy scalar reaching a text
    # report would print as np.float64(...) or np.True_ through repr
    for argv in (SOLVE2D_ARGS, SOLVE2D_ARGS + ["--f-theta-imag", "0.5"],
                 SOLVE2D_ARGS[:-2] + ["--f-theta-y", "1.5"], MATCH_ARGS,
                 ["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "t.csv")],
                 ["equivalence", "--scenario", str(scenario)]):
        assert cli.run(argv) == 0
        text = capsys.readouterr().out
        assert "np." not in text, text


@pytest.mark.parametrize("argv", [
    SOLVE2D_ARGS + ["--hbar", "0"],
    SOLVE2D_ARGS + ["--hbar", "-1"],
    SOLVE2D_ARGS + ["--hbar", "-1", "--f-theta-imag", "0.5"],
    MATCH_ARGS + ["--hbar", "0"],
    MATCH_ARGS + ["--hbar", "-1"],
], ids=["solve2d-0", "solve2d-negative", "solve2d-imaginary", "match-field-0",
        "match-field-negative"])
def test_nonpositive_hbar_is_an_input_error(argv):
    # as DeformationParams requires; a negative hbar used to pass, and flip eta
    r = run_cli(*argv, "--json")
    assert r.returncode == 2, r.stdout
    doc = strict_loads(r.stdout)
    assert doc["status"] == "error"
    assert doc["errata_notes"] == ["ValueError: hbar must be positive and finite"]


def test_nonpositive_hbar_is_an_error_row(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "task": "match-field",
        "base": {"alpha_x": 1.0, "alpha_y": 2.0, "beta_x": 1.0, "beta_y": 2.0},
        "grid": {"hbar": [-1.0, 0.0, 1.0]},
    }))
    r = run_cli("sweep", "--config", str(cfg), "--json")
    assert r.returncode == 1, r.stdout
    rows = strict_loads(r.stdout)["payload"]["rows"]
    assert [row["status"] for row in rows] == ["error", "error", "pass"]
    assert rows[0]["errata_notes"] == ["ValueError: hbar must be positive and finite"]


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["check-map", "solve3d", "equivalence"])
def test_bad_tolerance_is_a_usage_error(command, value, sw_fixture, scenario, tmp_path):
    # a tolerance nothing can meet used to read as a tolerance failure (exit 1)
    p3 = tmp_path / "p3.json"
    gen = run_cli("gen3d", "--seed", "1", "--json")
    p3.write_text(json.dumps(json.loads(gen.stdout)["payload"]))
    argv = {"check-map": ["--map", str(sw_fixture[0]), "--theta", str(sw_fixture[1])],
            "solve3d": ["--input", str(p3)],
            "equivalence": ["--scenario", str(scenario)]}[command]
    r = run_cli(command, *argv, f"--tol={value}")
    assert r.returncode == 2, r.stdout
    assert r.stdout == ""
    assert "argument --tol: must be finite and non-negative" in r.stderr


def test_gen3d_rejects_non_finite_hbar():
    r = run_cli("gen3d", "--seed", "1", "--hbar", "nan", "--json")
    assert r.returncode == 2
    assert json.loads(r.stdout)["status"] == "error"


@pytest.mark.parametrize("hbar", ["0", "-2"])
def test_nonpositive_hbar_is_a_3d_input_error(hbar, tmp_path):
    # gen3d and solve3d used to accept hbar <= 0 and report it in the payload
    r = run_cli("gen3d", "--seed", "1", "--hbar", hbar, "--json")
    assert r.returncode == 2, r.stdout
    assert strict_loads(r.stdout)["errata_notes"] == ["ValueError: hbar must be positive and finite"]
    doc = strict_loads(run_cli("gen3d", "--seed", "1", "--json").stdout)["payload"]
    doc["hbar"] = float(hbar)
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(doc))
    r = run_cli("solve3d", "--input", str(path), "--json")
    assert r.returncode == 2, r.stdout
    assert strict_loads(r.stdout)["errata_notes"] == ["ValueError: hbar must be positive and finite"]


@pytest.mark.parametrize("value", ["0", "-3"])
def test_equivalence_samples_is_a_positive_count(value, scenario, capsys):
    # 0 and -3 reached numpy, whose reduction and linspace messages were the note
    with pytest.raises(SystemExit) as exit:
        cli.run(["equivalence", "--scenario", str(scenario), f"--samples={value}"])
    out = capsys.readouterr()
    assert (exit.value.code, out.out) == (2, "")
    assert f"argument --samples: must be a positive count, got '{value}'" in out.err


@pytest.mark.parametrize("value, message", [
    ("-3", "argument --max-iter: must be a non-negative count, got '-3'"),
    ("2.5", "argument --max-iter: invalid count value: '2.5'"),
])
def test_solve3d_max_iter_is_a_count(value, message, tmp_path):
    # a negative limit used to run no iteration and report iterations = -3
    # as a tolerance failure
    doc = strict_loads(run_cli("gen3d", "--seed", "1", "--json").stdout)["payload"]
    doc["theta"][0] += 0.1
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(doc))
    r = run_cli("solve3d", "--input", str(path), "--max-iter", value)
    assert r.returncode == 2
    assert r.stdout == ""
    assert message in r.stderr
    r = run_cli("solve3d", "--input", str(path), "--max-iter", "0", "--json")
    assert r.returncode == 1
    assert strict_loads(r.stdout)["metrics"]["iterations"] == 0


def test_gen3d_deterministic_by_seed(tmp_path):
    r1 = run_cli("gen3d", "--seed", "5", "--json")
    r2 = run_cli("gen3d", "--seed", "5", "--json")
    r3 = run_cli("gen3d", "--seed", "6", "--json")
    assert r1.stdout == r2.stdout
    assert r1.stdout != r3.stdout


def test_equivalence_pass(scenario):
    r = run_cli("equivalence", "--scenario", str(scenario))
    assert r.returncode == 0
    assert "status: pass" in r.stdout


def test_equivalence_detects_mismatch(scenario):
    r = run_cli("equivalence", "--scenario", str(scenario), "--eta-scale", "1.5")
    assert r.returncode == 1


def run_in_process(argv, capsys):
    """(exit code, stdout) of ``cli.run(argv)``; an argparse rejection is its exit code."""
    try:
        code = cli.run(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


SOLVE2D_POINT = {"theta": 1.0, "eta": 2.0, "f_theta": 2.0, "f_eta": 4.0}
MATCH_POINT = {"alpha_x": 1.0, "alpha_y": 2.0, "beta_x": 1.0, "beta_y": 2.0}


@pytest.mark.parametrize("task, point", [
    ("solve2d", dict(SOLVE2D_POINT, f_theta_x=3.0)),
    ("solve2d", dict(SOLVE2D_POINT, f_theta_y=1.0)),
    ("solve2d", dict(SOLVE2D_POINT, f_theta_x=3.0, f_theta_imag=0.5)),
    ("solve2d", dict(SOLVE2D_POINT, f_theta_x=3.0, hbar=2.0)),
    ("match-field", MATCH_POINT),
    ("match-field", dict(MATCH_POINT, e=2.0)),
    ("match-field", dict(MATCH_POINT, c=0.5)),
    ("match-field", dict(MATCH_POINT, m_p=3.0)),
    ("match-field", dict(MATCH_POINT, f_theta=0.25)),
    ("match-field", dict(MATCH_POINT, theta=-0.5)),
    ("match-field", dict(MATCH_POINT, hbar=2.0)),
], ids=lambda v: v if isinstance(v, str) else "-".join(list(v)[4:]) or "defaults")
def test_sweep_single_point_matches_direct_run(task, point, tmp_path, capsys):
    # each optional parameter omitted and given: a default that differs
    # between a flag and the sweep shows as a different row
    flags = [f"--{name.replace('_', '-')}={value!r}" for name, value in point.items()]
    code, out = run_in_process([task, *flags, "--json"], capsys)
    assert code == 0, out
    direct = strict_loads(out)
    axis = next(iter(point))  # the grid varies one required parameter over one value
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"task": task, "grid": {axis: [point[axis]]},
                               "base": {k: v for k, v in point.items() if k != axis}}))
    code, out = run_in_process(["sweep", "--config", str(cfg), "--json"], capsys)
    assert code == 0, out
    (row,) = strict_loads(out)["payload"]["rows"]
    assert row.pop("point") == {axis: point[axis]}
    assert row == direct


def test_sweep_singular_row_continues(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "task": "solve2d",
        "base": {"theta": 1.0, "eta": 2.0, "f_eta": 4.0, "f_theta_x": 3.0},
        "grid": {"f_theta": [1.0, 2.0, 3.0]},
    }))
    r = run_cli("sweep", "--config", str(cfg), "--json")
    assert r.returncode == 1  # one row failed, the sweep still completed
    rows = json.loads(r.stdout)["payload"]["rows"]
    assert [row["status"] for row in rows] == ["error", "pass", "pass"]
    assert "SingularBranch" in rows[0]["errata_notes"][0]
    assert rows[0]["point"] == {"f_theta": 1.0}


def test_sweep_non_finite_literals_become_error_rows(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text('{"task": "solve2d", '
                   '"base": {"theta": 1.0, "eta": 2.0, "f_eta": 4.0, "f_theta_x": 3.0}, '
                   '"grid": {"f_theta": [NaN, 2.0, Infinity]}}')
    out = tmp_path / "rows.json"
    r = run_cli("sweep", "--config", str(cfg), "--out", str(out), "--json")
    assert r.returncode == 1, r.stdout  # the sweep completed with error rows
    assert strict_loads(r.stdout)["payload"] == {}
    rows = strict_loads(out.read_text())["payload"]["rows"]
    assert [row["status"] for row in rows] == ["error", "pass", "error"]
    assert "must be finite" in rows[0]["errata_notes"][0]
    assert [row["point"] for row in rows] == [{"f_theta": None}, {"f_theta": 2.0},
                                              {"f_theta": None}]


SWEEPS = {
    "solve2d": {  # crosses FThetaPlus and FEtaMinus
        "task": "solve2d",
        "base": {"theta": 1.0, "eta": 2.0, "f_theta_x": 3.0},
        "grid": {"f_theta": [1.0, 2.0, 3.0], "f_eta": [4.0, -2.0]},
    },
    "match-field": {  # proportional, non-proportional and degenerate gauges
        "task": "match-field",
        "base": {"alpha_x": 1.0, "beta_x": 1.0},
        "grid": {"alpha_y": [2.0, 0.0], "beta_y": [2.0, 3.0], "e": [1.0, 2.0]},
    },
}


@pytest.mark.parametrize("task", sorted(SWEEPS))
def test_sweep_out_file_is_the_stdout_document(task, tmp_path):
    # --out moves the rows document to the file byte for byte; stdout keeps
    # the summary and the exit code
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(SWEEPS[task]))
    out = tmp_path / "rows.json"
    full = run_cli("sweep", "--config", str(cfg), "--json")
    summary = run_cli("sweep", "--config", str(cfg), "--out", str(out), "--json")
    assert out.read_bytes() == full.stdout.encode()
    assert summary.returncode == full.returncode == 1
    doc, head = strict_loads(full.stdout), strict_loads(summary.stdout)
    assert head["payload"] == {}
    assert len(doc["payload"]["rows"]) == doc["metrics"]["points"] > 4
    for key in ("command", "status", "metrics", "errata_notes"):
        assert head[key] == doc[key]


def test_sweep_rows_follow_the_grid_in_lexicographic_order(tmp_path):
    # axes are taken in sorted name order, each in its listed value order,
    # and the last axis varies fastest
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "task": "solve2d",
        "base": {"theta": 1.0, "eta": 2.0},
        "grid": {"f_theta_x": [3.0, 5.0], "f_theta": [3.0, 2.0, 4.0], "f_eta": [5.0, 4.0]},
    }))
    r = run_cli("sweep", "--config", str(cfg), "--json")
    assert r.returncode == 0, r.stdout
    rows = strict_loads(r.stdout)["payload"]["rows"]
    expected = [
        (5.0, 3.0, 3.0), (5.0, 3.0, 5.0), (5.0, 2.0, 3.0), (5.0, 2.0, 5.0),
        (5.0, 4.0, 3.0), (5.0, 4.0, 5.0), (4.0, 3.0, 3.0), (4.0, 3.0, 5.0),
        (4.0, 2.0, 3.0), (4.0, 2.0, 5.0), (4.0, 4.0, 3.0), (4.0, 4.0, 5.0),
    ]
    assert [row["point"] for row in rows] == [
        {"f_eta": fe, "f_theta": ft, "f_theta_x": fx} for fe, ft, fx in expected]
    assert all((row["payload"]["f_eta"], row["payload"]["f_theta"], row["payload"]["f_theta_x"])
               == pt for row, pt in zip(rows, expected))


def test_sweep_eta_linearity(tmp_path):
    # charge sweep over a matched gauge: the momentum deformation and the
    # extracted rotation rate both scale linearly
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "task": "match-field",
        "base": {"alpha_x": 1.0, "alpha_y": 2.0, "beta_x": 1.0, "beta_y": 2.0},
        "grid": {"e": [0.5, 1.0, 1.5, 2.0]},
    }))
    r = run_cli("sweep", "--config", str(cfg), "--json")
    assert r.returncode == 0
    rows = json.loads(r.stdout)["payload"]["rows"]
    etas = np.array([row["metrics"]["eta"] for row in rows])
    omegas = np.array([abs(row["metrics"]["omega_nc"]) for row in rows])
    assert np.allclose(etas, [0.5, 1.0, 1.5, 2.0], atol=1e-15)
    assert np.allclose(omegas, np.abs(etas), atol=1e-15)


def test_sweep_rejects_oversized_grid(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "task": "solve2d",
        "base": {},
        "grid": {"a": {"start": 0, "stop": 1, "num": 2000},
                 "b": {"start": 0, "stop": 1, "num": 2000}},
    }))
    r = run_cli("sweep", "--config", str(cfg))
    assert r.returncode == 2
    assert "1e6" in r.stdout


@pytest.mark.parametrize("cfg, note", [
    ({"task": "solve2d", "base": {"theta": 1.0}, "grid": {"eta": [1.0, 2.0]}},
     "needs 'f_theta'"),
    ({"task": "solve2d", "base": {"theta": 1.0, "eta": 2.0, "f_theta": 2.0, "f_eta": 4.0},
      "grid": {"f_theta_imag": [0.0, 0.5]}}, "needs 'f_theta_x'"),
    ({"task": "solve2d", "base": {"theta": 1.0, "eta": 2.0, "f_theta": 2.0, "f_eta": 4.0,
                                  "f_theta_y": 1.0, "f_theta_imag": 0.5},
      "grid": {"theta": [1.0]}}, "needs 'f_theta_x'"),
    ({"task": "match-field", "base": {"alpha_x": 1.0, "alpha_y": 2.0},
      "grid": {"beta_x": [1.0]}}, "needs 'beta_y'"),
    ({"task": "solve2d", "base": {"theta": "1", "eta": 2.0, "f_eta": 4.0, "f_theta_x": 3.0},
      "grid": {"f_theta": [2.0]}}, "'theta' is not a number"),
    ({"task": "match-field", "base": {"alpha_x": 1.0, "alpha_y": 2.0, "beta_y": 2.0,
                                      "hbar": None},
      "grid": {"beta_x": [1.0]}}, "'hbar' is not a number"),
    ({"task": "match-field", "base": {"alpha_x": 1.0, "alpha_y": 2.0, "beta_y": 2.0,
                                      "e": True},
      "grid": {"beta_x": [1.0]}}, "'e' is not a number"),
], ids=["missing", "imaginary-needs-x", "imaginary-base-needs-x", "match-field-missing",
        "string", "null", "bool"])
def test_sweep_config_is_validated_before_the_grid_runs(cfg, note, tmp_path):
    # a malformed config is an input error, not one error row per point
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "rows.json"
    r = run_cli("sweep", "--config", str(path), "--out", str(out), "--json")
    assert r.returncode == 2, r.stdout
    doc = strict_loads(r.stdout)
    assert doc["status"] == "error"
    assert note in doc["errata_notes"][0]
    assert not out.exists()


def test_closed_stdout_ends_without_a_traceback(tmp_path):
    # `ncphase sweep ... --json | head -c 300`: the reader leaves early
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "task": "solve2d", "base": {"theta": 1.0, "eta": 2.0, "f_eta": 4.0, "f_theta_x": 3.0},
        "grid": {"f_theta": {"start": 2.0, "stop": 3.0, "num": 2000}},
    }))
    proc = subprocess.Popen(CLI + ["sweep", "--config", str(cfg), "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(300)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_CLOSED_STDOUT == 141
    assert head.startswith(b'{"command": "sweep"')
    assert "Traceback" not in err and "Exception ignored" not in err, err


@pytest.mark.parametrize("as_json", [["--json"], []], ids=["json", "text"])
def test_closed_stdout_during_a_streamed_sweep(as_json, tmp_path):
    # rows now stream to stdout a slice at a time: the reader leaves while
    # later chunks are still to be written
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "task": "solve2d", "base": {"theta": 1.0, "eta": 2.0, "f_eta": 4.0, "f_theta_x": 3.0},
        "grid": {"f_theta": {"start": 2.0, "stop": 3.0, "num": 2 * cli.SWEEP_CHUNK + 1}},
    }))
    proc = subprocess.Popen(CLI + ["sweep", "--config", str(cfg)] + as_json,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(300)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_CLOSED_STDOUT
    assert head.startswith(b'{"command": "sweep"' if as_json else b"command: sweep\nstatus: pass")
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_sweep_rejects_too_many_axes(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "task": "solve2d", "base": {},
        "grid": {"a": [1], "b": [1], "c": [1], "d": [1]},
    }))
    r = run_cli("sweep", "--config", str(cfg))
    assert r.returncode == 2


def test_out_files_are_the_payload_without_history(tmp_path):
    # one dict per result: --out is its dump, taken before --trace adds history
    gen = tmp_path / "gen.json"
    r = run_cli("gen3d", "--seed", "7", "--out", str(gen), "--json")
    assert r.returncode == 0
    payload = strict_loads(r.stdout)["payload"]
    assert gen.read_text() == json.dumps(payload, sort_keys=True) + "\n"

    doc = json.loads(gen.read_text())
    doc["f_eta_diag"] = [v + 1e-3 for v in doc["f_eta_diag"]]
    gen.write_text(json.dumps(doc))
    solved = tmp_path / "solved.json"
    r = run_cli("solve3d", "--input", str(gen), "--frozen", "theta,eta", "--trace",
                "--out", str(solved), "--json")
    assert r.returncode == 0, r.stdout
    payload = strict_loads(r.stdout)["payload"]
    assert len(payload.pop("history")) >= 2
    text = solved.read_text()
    assert text == json.dumps(payload, sort_keys=True) + "\n"
    assert "history" not in json.loads(text)


def test_parser_reuse_leaks_no_state(tmp_path, capsys):
    # run() parses with one module-level parser; a request must not see
    # anything an earlier request in the same interpreter left behind
    p3 = tmp_path / "p3.json"
    p3.write_text(json.dumps(json.loads(run_cli("gen3d", "--seed", "3", "--json").stdout)["payload"]))
    requests = [
        ["gen3d", "--seed", "3", "--json"],
        ["solve3d", "--input", str(p3)],
        ["solve2d", "--theta", "1", "--no-such-flag", "2"],
        ["solve2d", "--theta", "1", "--eta", "2", "--f-theta", "2", "--f-eta", "4",
         "--f-theta-x", "3", "--json"],
        ["match-field", "--alpha-x", "1", "--alpha-y", "2", "--beta-x", "1", "--beta-y", "2"],
        ["gen3d", "--seed", "4"],  # the first gen3d's --json must not stick
    ]
    for argv in requests:
        expected = run_cli(*argv)
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse rejects argv
            code = exc.code
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == (
            expected.stdout, expected.stderr, expected.returncode), argv


@pytest.mark.parametrize("as_json", [True, False])
def test_non_finite_payload_becomes_an_error_report(as_json, monkeypatch, capsys):
    # a payload that is not strict JSON is an exit-2 error report, not a traceback
    monkeypatch.setitem(cli._HANDLERS, "gen3d",
                        lambda args: cli._report("gen3d", "pass", payload={"x": float("nan")}))
    code = cli.run(["gen3d", "--seed", "1"] + (["--json"] if as_json else []))
    out = capsys.readouterr().out
    assert code == 2
    assert "status: error" in out or strict_loads(out)["status"] == "error"
    assert "ValueError" in out
