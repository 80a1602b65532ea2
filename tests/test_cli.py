import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quditmaps import cli, dynamics, generators
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


def test_deterministic_output(capsys, monkeypatch):
    _, out1 = run(capsys, ["classify", "--d", "4", "--alpha", "0.9",
                           "--beta", "-0.2", "--budget", "500", "--seed", "7"])
    _, out2 = run(capsys, ["classify", "--d", "4", "--alpha", "0.9",
                           "--beta", "-0.2", "--budget", "500", "--seed", "7"])
    assert out1 == out2

    # the Schwarz oracle's seeded slot: fresh, hit, and holding another d's parts
    spectrum = ["spectrum", "--d", "16", "--kappa", "1", "--nu", "-0.85",
                "--seed", "7", "--budget", "1000"]
    generators._sample_parts.clear()
    _, fresh = run(capsys, spectrum)
    orig = cli.is_dissipative
    with monkeypatch.context() as m:
        # the second of two back-to-back calls reads the parts the first kept
        m.setattr(cli, "is_dissipative", lambda *args: (orig(*args), orig(*args))[1])
        _, hit = run(capsys, spectrum)
    run(capsys, ["spectrum", "--d", "5", "--kappa", "1", "--nu", "-0.85",
                 "--seed", "7", "--budget", "1000"])
    _, after = run(capsys, spectrum)
    assert json.loads(fresh)["class_tests"]["schwarz"]["decided_by"] is not None
    assert fresh == hit == after


# capsys is read after every call, so one instance serves all examples
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["spectrum", "classify"]), d=st.integers(2, 16),
       other=st.integers(2, 16), seed=st.integers(0, 2**31 - 1),
       budget=st.integers(0, 300), x=st.floats(-1.0, 1.5), y=st.floats(-1.0, 1.5))
def test_seeded_output_does_not_depend_on_the_sample_slot(capsys, command, d, other, seed,
                                                         budget, x, y):
    def argv(dim):
        point = (["--kappa", "1", f"--nu={x!r}"] if command == "spectrum"
                 else [f"--alpha={x!r}", f"--beta={y!r}"])
        return [command, "--d", str(dim), *point, "--seed", str(seed),
                "--budget", str(budget)]

    generators._sample_parts.clear()
    _, fresh = run(capsys, argv(d))
    with pytest.MonkeyPatch.context() as m:
        # the second of two back-to-back calls of each oracle reads the slot
        for name in ("is_conditionally_positive", "is_dissipative"):
            orig = getattr(cli, name)
            m.setattr(cli, name, lambda *args, _orig=orig: (_orig(*args), _orig(*args))[1])
        _, hit = run(capsys, argv(d))
    run(capsys, argv(other if other != d else d % 15 + 2))
    _, after = run(capsys, argv(d))
    assert fresh
    assert fresh == hit == after


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


def _single_error_line_in(err):
    lines = err.strip().split("\n")
    return len(lines) == 1 and lines[0].startswith("error:")


def _single_error_line(capsys):
    return _single_error_line_in(capsys.readouterr().err)


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


@pytest.mark.parametrize("state", [{"d": 2}, {"d": 2, "rho": "abc"},
                                   {"d": -2, "rho": [[1, 0], [0, 0], [0, 0], [1, 0]]}])
def test_malformed_state_object_is_a_usage_error(tmp_path, capsys, state):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    assert cli.main(["apply", "--state", str(path), "--schedule", "enm",
                     "--t", "0.5"]) == 2
    assert _single_error_line(capsys)


@pytest.mark.parametrize("d", [2.5, True, "2", None])
def test_state_dimension_that_is_not_an_integer_is_a_usage_error(tmp_path, capsys, d):
    # 2.5 was truncated to 2 and true read as 1
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"d": d, "rho": [[1, 0], [0, 0], [0, 0], [0, 0]]}))
    assert cli.main(["apply", "--state", str(path), "--schedule", "enm",
                     "--t", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: dimension d must be an integer, got {d!r}\n"


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


def test_budget_beyond_numpy_index_range_is_a_usage_error(capsys):
    # rejected before anything is drawn; numpy could not shape the samples
    assert cli.main(["classify", "--d", "3", "--alpha", "0.1", "--beta", "0.1",
                     "--budget", "99999999999999999999"]) == 2
    assert _single_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["classify", "--d", "2", "--alpha", "0.5", "--beta", "0"],
    ["classify", "--d", "3", "--alpha", "0.5", "--beta", "0"],
    ["spectrum", "--d", "2", "--kappa", "1", "--nu", "-0.5"],
    ["spectrum", "--d", "3", "--kappa", "1", "--nu", "-0.5"],
    ["verify", "--suite", "generators"],
])
def test_budget_too_large_to_allocate_is_a_usage_error(capsys, argv):
    # at d <= 3 every array a budget of 10**15 asks for exceeds a 2**47-byte
    # address space, so numpy refuses it before touching memory; verify
    # raises it instead of recording a failed check
    assert cli.main(argv + ["--budget", str(10**15)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error: out of memory: ")


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


def test_negative_tolerance_is_a_usage_error(tmp_path, capsys):
    # a negative tolerance would flag a point whose margins are all +0.167
    # as outside P and CP, and report a false disagreement; zero is valid
    argv = ["classify", "--d", "3", "--alpha=0.5", "--beta=0.1"]
    assert cli.main(argv + ["--tolerance=-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _single_error_line_in(captured.err)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerance": -0.5}))
    assert cli.main(["--config", str(cfg)] + argv) == 2
    assert _single_error_line(capsys)
    for zero in ("--tolerance=0", "--tolerance=-0.0"):
        code, out = run(capsys, argv + [zero])
        assert code == 0 and json.loads(out)["agreement"] is True


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
    # finite rates whose products overflow
    ["spectrum", "--d", "3", "--kappa", "1", "--nu", "1e308"],
    ["spectrum", "--d", "16", "--kappa", "1e308", "--nu", "1"],
    ["crossings", "--d", "3", "--kappa", "1e308", "--nu", "-0.5"],
])
def test_non_finite_values_are_usage_errors(tmp_path, capsys, argv):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(state_to_json(QuantumState(2, np.eye(2) / 2))))
    assert cli.main([a.replace("{state}", str(state)) for a in argv]) == 2
    assert _single_error_line(capsys)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    # a growing trajectory overflows alpha(t) and beta(t)
    ["trajectory", "--d", "3", "--schedule", "const", "--kappa=-2", "--nu=0.2",
     "--t-max=400", "--steps", "4"],
    ["trajectory", "--d", "3", "--schedule", "const", "--kappa=1", "--nu=-5",
     "--t-max=400", "--steps", "4"],
    ["apply", "--state", "{state}", "--schedule", "const", "--kappa=-800", "--t=1"],
    # finite coordinates whose map overflows
    ["classify", "--d", "3", "--alpha=-1e308", "--beta=-1e308"],
    ["classify", "--d", "3", "--alpha=1e308", "--beta=1e308"],
    ["classify", "--d", "3", "--alpha=1.7e308", "--beta=0"],
])
def test_coordinates_that_overflow_are_usage_errors(tmp_path, capsys, argv):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(state_to_json(QuantumState(2, np.eye(2) / 2))))
    assert cli.main([a.replace("{state}", str(state)) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _single_error_line_in(captured.err)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, where", [
    (["trajectory", "--d", "3", "--schedule", "const", "--kappa=-2", "--nu=0.2",
      "--t-max=400", "--steps", "4"], "at t = 200.0 with (kappa, nu) = (-2.0, 0.2)"),
    (["apply", "--state", "{state}", "--schedule", "const", "--kappa=-800", "--nu=0.5",
      "--t=1"], "at t = 1.0 with (kappa, nu) = (-800.0, 0.5)"),
])
def test_an_overflowing_trajectory_names_its_schedule_time_and_rates(tmp_path, capsys,
                                                                     argv, where):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(state_to_json(QuantumState(2, np.eye(2) / 2))))
    assert cli.main([a.replace("{state}", str(state)) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _single_error_line_in(captured.err)
    assert f"the ConstantNu trajectory overflows {where}: " in captured.err


@pytest.mark.filterwarnings("error")
def test_weyl_mixture_at_a_huge_time_is_its_limit_without_a_warning(tmp_path, capsys):
    state = tmp_path / "state.json"
    rho = np.array([[0.7, 0.2], [0.2, 0.3]])
    state.write_text(json.dumps(state_to_json(QuantumState(2, rho))))
    assert cli.main(["apply", "--state", str(state), "--schedule", "weyl", "--t=1e308"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    limit = dynamics.asymptotic_map(dynamics.WeylMixture(2))(rho)
    assert np.abs(np.array(json.loads(captured.out)["rho"]).reshape(2, 2, 2)
                  @ [1.0, 1j] - limit).max() <= 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
def test_state_file_with_a_non_finite_entry_is_a_usage_error(tmp_path, capsys, text):
    state = tmp_path / "state.json"
    state.write_text(f'{{"d": 2, "rho": [[{text}, 0], [0, 0], [0, 0], [0.5, 0]]}}')
    assert cli.main(["apply", "--state", str(state), "--schedule", "enm", "--t", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _single_error_line_in(captured.err)


# capsys is read after every call, so one instance serves all examples
@pytest.mark.filterwarnings("error")
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(d=st.integers(2, 3),
       alpha=st.floats(allow_nan=False, allow_infinity=False),
       beta=st.floats(allow_nan=False, allow_infinity=False))
@example(d=3, alpha=1.7e308, beta=0.0)
@example(d=2, alpha=-1e308, beta=1e308)
@example(d=3, alpha=7e305, beta=-7e305)
@example(d=2, alpha=1e154, beta=-1e154)
def test_classify_at_any_finite_coordinates_exits_cleanly(capsys, d, alpha, beta):
    code = cli.main(["classify", "--d", str(d), f"--alpha={alpha!r}", f"--beta={beta!r}",
                     "--budget", "8"])
    captured = capsys.readouterr()
    assert code in (0, 2)
    if code == 0:
        assert captured.err == ""
        json.loads(captured.out)
    else:
        assert captured.out == ""
        assert _single_error_line_in(captured.err)


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


NUMPY_ONLY_COMMANDS = [
    ["classify", "--d", "3", "--alpha", "0.5", "--beta", "0.1", "--budget", "200"],
    *(["spectrum", "--d", "3", "--kappa", "1", "--nu", "-0.5", "--class", c,
       "--budget", "200"] for c in ("positive", "schwarz", "kpos")),
    ["area", "--d", "3"],
    ["region", "--d", "3", "--which", "cp"],
    *(["trajectory", "--d", "3", "--schedule", s, "--t-max", "2", "--steps", "4"]
      for s in dynamics.SCHEDULES),
    ["crossings", "--d", "3", "--kappa", "1", "--nu", "-0.5"],
    ["apply", "--state", "{state}", "--schedule", "weyl", "--t", "0.5"],
    ["verify", "--suite", "generators"],
]

# Runs the CLI commands of argv[1] in one process; prints their exit codes and
# the scipy modules loaded at import and after the commands, then whatever
# ``epilogue`` appends to ``loaded``.
_COMMANDS_IN_ONE_PROCESS = (
    "import contextlib, io, json, sys\n"
    "{prelude}"
    "import quditmaps, quditmaps.cli, quditmaps.verify\n"
    "def scipy_modules():\n"
    "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
    "loaded = [scipy_modules()]\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    codes = [quditmaps.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
    "loaded.append(scipy_modules())\n"
    "{epilogue}"
    "print(json.dumps([codes, loaded]))\n")


def _run_commands(tmp_path, commands, prelude="", epilogue=""):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    state = tmp_path / "state.json"
    state.write_text(json.dumps(state_to_json(QuantumState(2, np.eye(2) / 2))))
    code = _COMMANDS_IN_ONE_PROCESS.format(prelude=prelude, epilogue=epilogue)
    argvs = json.dumps(commands).replace("{state}", str(state))
    proc = subprocess.run([sys.executable, "-c", code, argvs], capture_output=True,
                          text=True, env=env, check=True)
    return json.loads(proc.stdout)


def test_import_and_the_numpy_commands_load_no_scipy(tmp_path):
    # positive control: the tracer-only ``dynamics.expm`` still imports
    # scipy.linalg lazily, so the check can see a load
    codes, (at_import, after_commands, after_expm) = _run_commands(
        tmp_path, NUMPY_ONLY_COMMANDS,
        epilogue=("quditmaps.dynamics.expm([[0.0]])\n"
                  "loaded.append(scipy_modules())\n"))
    assert codes == [0] * len(NUMPY_ONLY_COMMANDS)
    assert at_import == []
    assert after_commands == []
    assert "scipy.linalg" in after_expm


_BLOCK_SCIPY = (
    "class NoScipy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.split('.')[0] == 'scipy':\n"
    "            raise ImportError(name + ' is blocked')\n"
    "sys.meta_path.insert(0, NoScipy())\n")


def test_every_command_runs_with_scipy_blocked(tmp_path):
    commands = NUMPY_ONLY_COMMANDS + [["verify", "--suite", "all"]]
    codes, loaded = _run_commands(
        tmp_path, commands, prelude=_BLOCK_SCIPY,
        epilogue=("try:\n    import scipy\n"  # the block holds
                  "except ImportError:\n    loaded.append('blocked')\n"))
    assert codes == [0] * len(commands)
    assert loaded == [[], [], "blocked"]


# Runs one snippet in a fresh process, then ``np.unique`` as the positive
# control; prints whether numpy.ma was loaded after each.
_NUMPY_MA_PROBE = (
    "import contextlib, io, json, sys\n"
    "import numpy as np\n"
    "import quditmaps.cli\n"
    "from quditmaps import dynamics\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    {snippet}\n"
    "loaded = ['numpy.ma' in sys.modules]\n"
    "np.unique([2, 1])\n"
    "loaded.append('numpy.ma' in sys.modules)\n"
    "print(json.dumps(loaded))\n")


@pytest.mark.parametrize("snippet", [
    "quditmaps.cli.main(['trajectory', '--d', '4', '--schedule', 'weyl',"
    " '--t-max', '1', '--steps', '3'])",
    "dynamics.extract_time_local_generator("
    "lambda t: dynamics.map_at(dynamics.OptimalENM(4), t), 0.2)",
])
def test_a_weyl_trajectory_and_an_extraction_leave_numpy_ma_unimported(snippet):
    # numpy.ma costs 9-20 ms of a fresh process; np.union1d and np.unique import it
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _NUMPY_MA_PROBE.format(snippet=snippet)],
                          capture_output=True, text=True, env=env, check=True)
    assert json.loads(proc.stdout) == [False, True]
