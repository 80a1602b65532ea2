import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quditmaps import cli
from quditmaps.channels import QuantumState, apply as apply_map, state_to_json
from quditmaps.dynamics import OptimalENM, map_at


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_classify_e4(capsys):
    code, out = run(capsys, ["classify", "--d", "3", "--alpha", "1",
                             "--beta", "-0.3333333333", "--budget", "200"])
    payload = json.loads(out)
    assert code == 0
    assert payload["closed_form"]["eb"] is True
    assert payload["oracle"]["eb"] is True
    assert payload["agreement"] is True
    assert set(payload["margins"]) == {"positive", "cp", "eb"}


def test_classify_reduction(capsys):
    code, out = run(capsys, ["classify", "--d", "3", "--alpha", "1.5",
                             "--beta", "0", "--budget", "200"])
    payload = json.loads(out)
    assert code == 0
    assert payload["closed_form"]["positive"] is True
    assert payload["closed_form"]["cp"] is False


def test_classify_negative_alpha(capsys):
    code, out = run(capsys, ["classify", "--d", "3", "--alpha", "-0.1",
                             "--beta", "0", "--budget", "200"])
    payload = json.loads(out)
    assert code == 0
    assert payload["closed_form"]["positive"] is False
    assert payload["oracle"]["positive"] is False


def test_area_values(capsys):
    code, out = run(capsys, ["area", "--d", "3"])
    payload = json.loads(out)
    assert code == 0
    assert payload["P"] == pytest.approx(1.875)
    assert payload["CP"] == pytest.approx(1.125)
    assert payload["EB"] == pytest.approx(0.4375)
    assert payload["shoelace"]["EB"] == pytest.approx(0.4375)


def test_region_eb_csv(capsys):
    code, out = run(capsys, ["region", "--d", "3", "--which", "eb"])
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0] == "alpha,beta"
    assert len(lines) == 5


def test_region_d2_eb_is_well_defined(capsys):
    code, out = run(capsys, ["region", "--d", "2", "--which", "eb",
                             "--format", "json"])
    payload = json.loads(out)
    assert code == 0
    assert len(payload["vertices"]) == 4


def test_trajectory_enm(capsys):
    code, out = run(capsys, ["trajectory", "--d", "3", "--schedule", "enm",
                             "--t-max", "5", "--steps", "100"])
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0] == "t,alpha,beta,positive,cp,eb,min_choi_eig"
    assert len(lines) == 102  # header + 101 rows
    for row in lines[1:]:
        val = float(row.split(",")[-1])
        assert -1e-10 <= val <= 1e-8


def test_crossings(capsys):
    code, out = run(capsys, ["crossings", "--d", "3", "--kappa", "1",
                             "--nu", "-1.5"])
    payload = json.loads(out)
    assert code == 0
    assert 0 < payload["t_P"] < payload["t_CP"] < payload["t_EB"]


def test_spectrum_saturation(capsys):
    code, out = run(capsys, ["spectrum", "--d", "2", "--kappa", "1",
                             "--nu", "0", "--class", "kpos", "--budget", "500"])
    payload = json.loads(out)
    assert code == 0
    assert payload["bound_saturated"] is True
    tests = payload["class_tests"]
    assert tests["positive"]["closed_form"] is True
    assert tests["schwarz"]["closed_form"] is True
    assert tests["cp"]["closed_form"] is True
    assert tests["schwarz"]["witness"] >= 0.0
    assert tests["positive"]["budget"] == 500


def test_spectrum_honours_explicit_zero_budget(capsys):
    code, out = run(capsys, ["spectrum", "--d", "3", "--kappa", "1",
                             "--nu", "-0.5", "--budget", "0"])
    tests = json.loads(out)["class_tests"]
    assert code == 0
    assert tests["positive"]["budget"] == 0
    assert tests["schwarz"]["budget"] == 0


def test_verify_suite_linalg(capsys):
    code, out = run(capsys, ["verify", "--suite", "linalg"])
    assert code == 0
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_apply_roundtrip(tmp_path, capsys):
    rho = np.array([[0.75, 0.1], [0.1, 0.25]], dtype=complex)
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(state_to_json(QuantumState(2, rho))))
    code, out = run(capsys, ["apply", "--state", str(state_path),
                             "--schedule", "enm", "--t", "0.7"])
    payload = json.loads(out)
    assert code == 0
    expected = apply_map(map_at(OptimalENM(2), 0.7), QuantumState(2, rho)).rho
    got = np.array([a + 1j * b for a, b in payload["rho"]]).reshape(2, 2)
    assert np.allclose(got, expected, atol=1e-10)


def test_deterministic_output(capsys):
    _, out1 = run(capsys, ["classify", "--d", "4", "--alpha", "0.9",
                           "--beta", "-0.2", "--budget", "500", "--seed", "7"])
    _, out2 = run(capsys, ["classify", "--d", "4", "--alpha", "0.9",
                           "--beta", "-0.2", "--budget", "500", "--seed", "7"])
    assert out1 == out2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "poly.csv"
    code, _ = run(capsys, ["region", "--d", "3", "--which", "p",
                           "--output", str(target)])
    assert code == 0
    assert target.read_text().startswith("alpha,beta")


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 11, "sample_budget": 100}))
    code, out = run(capsys, ["--config", str(cfg), "classify", "--d", "2",
                             "--alpha", "0.5", "--beta", "0.1"])
    assert code == 0
    assert json.loads(out)["agreement"] is True


def test_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_SEED, "123")
    code, out = run(capsys, ["classify", "--d", "2", "--alpha", "0.5",
                             "--beta", "0.1", "--budget", "100"])
    assert code == 0


def test_usage_errors(capsys):
    assert cli.main(["classify", "--d", "3"]) == 2          # missing alpha/beta
    capsys.readouterr()
    assert cli.main(["region", "--d", "3", "--which", "xx"]) == 2
    capsys.readouterr()
    assert cli.main(["nonsense"]) == 2
    capsys.readouterr()
    assert cli.main(["classify", "--d", "1", "--alpha", "0", "--beta", "0"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def _single_error_line(capsys):
    err = capsys.readouterr().err
    lines = err.strip().split("\n")
    return len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("text", ["{bad", "[1, 2]"])
def test_bad_config_file_is_a_usage_error(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert cli.main(["--config", str(cfg), "area", "--d", "3"]) == 2
    assert _single_error_line(capsys)


@pytest.mark.parametrize("text", ["{bad", "[1, 2]"])
def test_bad_state_file_is_a_usage_error(tmp_path, capsys, text):
    state = tmp_path / "state.json"
    state.write_text(text)
    assert cli.main(["apply", "--state", str(state), "--schedule", "enm",
                     "--t", "0.5"]) == 2
    assert _single_error_line(capsys)


@pytest.mark.parametrize("state", [{"d": 2}, {"d": 2, "rho": "abc"}])
def test_malformed_state_object_is_a_usage_error(tmp_path, capsys, state):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    assert cli.main(["apply", "--state", str(path), "--schedule", "enm",
                     "--t", "0.5"]) == 2
    assert _single_error_line(capsys)


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    assert cli.main(["area", "--d", "3", "--output", str(tmp_path)]) == 2
    assert _single_error_line(capsys)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_spectrum_zero_budget_is_strict_json(capsys):
    code, out = run(capsys, ["spectrum", "--d", "3", "--kappa", "1",
                             "--nu", "-0.5", "--budget", "0"])
    payload = json.loads(out, parse_constant=_reject_constant)
    assert code == 0
    assert payload["class_tests"]["schwarz"]["sampled"] is None


def test_negative_steps_is_a_usage_error(capsys):
    assert cli.main(["trajectory", "--d", "3", "--schedule", "const",
                     "--t-max", "1", "--steps", "-2"]) == 2
    assert _single_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["classify", "--d", "3", "--alpha", "0.5", "--beta", "0", "--budget", "-3"],
    ["spectrum", "--d", "3", "--kappa", "1", "--nu", "-0.5", "--budget", "-5"],
    ["verify", "--suite", "linalg", "--budget", "-1"],
])
def test_negative_budget_is_a_usage_error(capsys, argv):
    assert cli.main(argv) == 2
    assert _single_error_line(capsys)


def test_negative_config_budget_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sample_budget": -4}))
    assert cli.main(["--config", str(cfg), "spectrum", "--d", "3", "--kappa", "1",
                     "--nu", "-0.5"]) == 2
    assert _single_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["region", "--d", "3", "--which", "p", "--seed", "1"],
    ["area", "--d", "3", "--budget", "10"],
    ["trajectory", "--d", "3", "--schedule", "enm", "--t-max", "1", "--steps", "2",
     "--tolerance", "1e-6"],
    ["crossings", "--d", "3", "--kappa", "1", "--nu", "0", "--seed", "1"],
    ["spectrum", "--d", "3", "--kappa", "1", "--nu", "0", "--tolerance", "1e-6"],
])
def test_options_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    assert cli.main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"sample_budget": "abc"}, {"seed": "x"}, {"tolerance": "x"}, {"seed": -1},
    {"sample_budget": 2.5}, {"output_path": ["out.json"]},
])
def test_config_value_of_wrong_type_is_a_usage_error(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["--config", str(cfg), "classify", "--d", "3", "--alpha", "0.2",
                     "--beta", "0.1"]) == 2
    assert _single_error_line(capsys)


@pytest.mark.parametrize("value", ["abc", "-3"])
def test_bad_env_seed_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv(cli.ENV_SEED, value)
    assert cli.main(["classify", "--d", "3", "--alpha", "0.2", "--beta", "0.1",
                     "--budget", "10"]) == 2
    assert _single_error_line(capsys)


def test_negative_exponent_values_parse(capsys):
    code, out = run(capsys, ["classify", "--d", "3", "--alpha", "0.2",
                             "--beta", "-2.9e-05", "--budget", "20"])
    assert code == 0
    assert json.loads(out)["beta"] == -2.9e-05
    argv = ["trajectory", "--d", "3", "--schedule", "const", "--t-max", "1",
            "--steps", "2"]
    code, spaced = run(capsys, argv + ["--nu", "-1e-3"])
    assert code == 0
    assert run(capsys, argv + ["--nu=-1e-3"]) == (0, spaced)
    assert spaced != run(capsys, argv + ["--nu=1e-3"])[1]


def test_failed_write_leaves_the_target_unchanged(tmp_path, capsys, monkeypatch):
    target = tmp_path / "area.json"
    target.write_text("old")
    fdopen = os.fdopen

    def fdopen_then_fail(fd, *args, **kwargs):
        fh = fdopen(fd, *args, **kwargs)
        write = fh.write

        def half_then_fail(text):
            write(text[:len(text) // 2])
            fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

        fh.write = half_then_fail
        return fh

    monkeypatch.setattr(os, "fdopen", fdopen_then_fail)
    assert cli.main(["area", "--d", "3", "--output", str(target)]) == 2
    assert _single_error_line(capsys)
    assert target.read_text() == "old"
    assert os.listdir(tmp_path) == ["area.json"]


@pytest.mark.parametrize("where", ["directory", "missing"])
def test_unwritable_output_leaves_no_temp_file(tmp_path, capsys, where):
    output = tmp_path / "out"
    if where == "directory":
        output.mkdir()
    else:
        output = output / "area.json"
    assert cli.main(["area", "--d", "3", "--output", str(output)]) == 2
    assert _single_error_line(capsys)
    assert os.listdir(tmp_path) == (["out"] if where == "directory" else [])


@pytest.mark.filterwarnings("error")  # a numpy warning before the error line fails too
@pytest.mark.parametrize("argv", [
    ["spectrum", "--d", "3", "--kappa=nan", "--nu=0"],
    ["spectrum", "--d", "3", "--kappa=inf", "--nu=0"],
    ["spectrum", "--d", "3", "--kappa=1", "--nu=inf"],
    ["crossings", "--d", "3", "--kappa=nan", "--nu=0"],
    ["crossings", "--d", "3", "--kappa=inf", "--nu=0"],
    ["crossings", "--d", "3", "--kappa=1", "--nu=nan"],
    ["apply", "--state", "{state}", "--schedule", "weyl", "--t=nan"],
    ["apply", "--state", "{state}", "--schedule", "enm", "--t=inf"],
    ["apply", "--state", "{state}", "--schedule", "const", "--kappa=inf", "--t", "0.5"],
    ["trajectory", "--d", "3", "--schedule", "enm", "--t-max=inf", "--steps", "4"],
    ["trajectory", "--d", "3", "--schedule", "const", "--t-max=nan", "--steps", "4"],
])
def test_non_finite_values_are_usage_errors(tmp_path, capsys, argv):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(state_to_json(QuantumState(2, np.eye(2) / 2))))
    assert cli.main([a.replace("{state}", str(state)) for a in argv]) == 2
    assert _single_error_line(capsys)


def test_reused_parser_gives_the_same_output_as_a_fresh_process(tmp_path, capsys,
                                                                monkeypatch):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 7, "sample_budget": 30}))
    argvs = [
        ["classify", "--d", "3"],  # usage error: no --alpha/--beta
        ["--help"],
        ["--config", str(config), "classify", "--d", "3", "--alpha", "0.4",
         "--beta", "-0.1"],
        ["classify", "--d", "4", "--alpha", "0.9", "--beta", "-0.2", "--budget", "40"],
        ["trajectory", "--d", "3", "--schedule", "sdiv", "--t-max", "2", "--steps", "5"],
        ["spectrum", "--d", "3", "--kappa", "1", "--nu", "-0.5", "--budget", "40"],
    ]
    # help text wraps at the terminal width
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
           "COLUMNS": "80"}
    env.pop(cli.ENV_SEED, None)
    procs = [subprocess.Popen([sys.executable, "-m", "quditmaps.cli", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
             for argv in argvs]
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv(cli.ENV_SEED, raising=False)

    def once(argv):
        code = cli.main(argv)
        return code, capsys.readouterr().out

    forward = [once(argv) for argv in argvs]
    backward = [once(argv) for argv in reversed(argvs)][::-1]
    assert forward == backward
    assert [code for code, _ in forward] == [2, 0, 0, 0, 0, 0]
    fresh = []
    for p in procs:
        out, _ = p.communicate(timeout=120)
        fresh.append((p.returncode, out))
    assert fresh == forward
    assert cli.build_parser() is not cli.build_parser()
