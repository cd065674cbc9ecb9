"""Tests for the command-line reproduction suite."""

import json
import os

import numpy as np
import pytest

from ballspec import BallspecError
from ballspec.basis import UsageError
from ballspec.cli import (
    DEFAULTS,
    EXAMPLES,
    RUNNERS,
    ErrorReport,
    build_parser,
    config_from_args,
    emit_report,
    main,
)
from ballspec.jacobi import ParameterError, QuadratureError
from ballspec.semisep import ContourError, SizeMismatchError, SolveError


def run_cli(tmp_path, *argv):
    return main(["--out", str(tmp_path)] + list(argv))


def test_defaults_match_standard_configurations():
    for ex in ("ex1", "ex2", "ex3", "ex4", "ex5"):
        assert DEFAULTS[ex][:3] == (6, 5, 6)
    assert DEFAULTS["ball3d"][:3] == (5, 3, 6)


def test_parser_round_trip():
    args = build_parser().parse_args(
        ["--example", "ex5", "--N", "4", "--format", "json", "--seed", "9"])
    config = config_from_args(args)
    assert config.example == "ex5"
    assert config.N == 4
    assert config.K == 5  # default fills in
    assert config.format == "json"
    assert config.seed == 9


def test_ex5_runs_clean_and_writes_report(tmp_path):
    assert run_cli(tmp_path, "--example", "ex5") == 0
    assert (tmp_path / "ex5_report.csv").exists()


def test_ex2_writes_asymmetry_table(tmp_path):
    assert run_cli(tmp_path, "--example", "ex2") == 0
    lines = (tmp_path / "ex2_asymmetry.csv").read_text().strip().splitlines()
    assert lines[0] == "m,n,closed_form,quadrature"
    assert len(lines) == 1 + 11 * 11


def test_ex1_and_ex3_and_ex4_pass(tmp_path):
    for ex in ("ex1", "ex3", "ex4"):
        assert run_cli(tmp_path, "--example", ex) == 0


def test_ball3d_passes(tmp_path):
    assert run_cli(tmp_path, "--example", "ball3d") == 0


def test_pde_demo_passes_and_writes_trajectory(tmp_path):
    assert run_cli(tmp_path, "--example", "pde-demo") == 0
    lines = (tmp_path / "pde_trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "t,norm,bound"


def test_failing_threshold_gives_nonzero_exit(tmp_path, capsys):
    # an absurd truncation cannot reach the ex5 plateau
    code = run_cli(tmp_path, "--example", "ex5", "--N", "0", "--K", "1")
    assert code == 1
    out = capsys.readouterr().out
    assert "FAILED check" in out


def test_json_format(tmp_path):
    assert run_cli(tmp_path, "--example", "ex5", "--format", "json") == 0
    payload = json.loads((tmp_path / "ex5_report.json").read_text())
    assert payload["e_inf"] < 1e-8
    assert len(payload["coeff_decay"]) == 77


def test_deterministic_artifacts(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert main(["--example", "ex5", "--out", str(out)]) == 0
    assert (out1 / "ex5_report.csv").read_bytes() == (out2 / "ex5_report.csv").read_bytes()


def test_emit_report_empty_is_header_only(tmp_path):
    report = ErrorReport(e_inf=0.0, e_2=0.0, grid_M=6, coeff_decay=[])
    path = tmp_path / "empty.csv"
    emit_report(report, "csv", str(path))
    assert path.read_text().strip() == "q,abs_coeff"


def test_quad_pad_env_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("BALLSPEC_QUAD_PAD", "16")
    assert run_cli(tmp_path, "--example", "ex5") == 0


def test_usage_error_exits_2_with_one_line_message(tmp_path, capsys):
    code = run_cli(tmp_path, "--example", "ex3", "--N", "-1")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "truncations must be nonnegative" in err


def test_parameter_error_exits_2(tmp_path, capsys):
    # alpha = 1 is outside the r-weighted family (needs alpha > 1)
    assert run_cli(tmp_path, "--example", "ex1", "--alpha", "1.0") == 2
    assert "alpha > 1" in capsys.readouterr().err


def test_pde_demo_with_chebyshev_oracle_rule(tmp_path):
    # alpha = beta = 1/2 needs the Gauss-Jacobi rule of (-1/2, -1/2)
    assert run_cli(tmp_path, "--example", "pde-demo", "--alpha", "0.5", "--beta", "0.5") == 0


def test_overflowing_alpha_exits_2_with_one_line_message(tmp_path, capsys):
    # Gamma(2 alpha + 2) leaves the double range between alpha = 84 and 85
    assert run_cli(tmp_path, "--example", "pde-demo", "--alpha", "85", "--beta", "85") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "alpha = 85" in err


@pytest.mark.parametrize("error, parent", [
    (ParameterError, ValueError),
    (UsageError, ValueError),
    (SizeMismatchError, ValueError),
    (SolveError, RuntimeError),
    (ContourError, RuntimeError),
    (QuadratureError, FloatingPointError),
])
def test_every_error_shares_one_base_and_keeps_its_parent(error, parent):
    assert issubclass(error, BallspecError) and issubclass(error, parent)


@pytest.mark.parametrize("error", [SolveError("shift 1 is singular"), ContourError("no convergence")])
def test_solver_errors_exit_2_with_one_line_message(tmp_path, capsys, monkeypatch, error):
    def runner(config):
        raise error
    monkeypatch.setitem(RUNNERS, "ex5", runner)
    assert run_cli(tmp_path, "--example", "ex5") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(error) in err


def test_split_example_verifies_its_split_once(tmp_path, monkeypatch):
    import ballspec.split as split
    calls = []
    verify_pos = split.verify_pos
    monkeypatch.setattr(split, "verify_pos", lambda pair: calls.append(1) or verify_pos(pair))
    assert run_cli(tmp_path, "--example", "ex5") == 0
    assert len(calls) == 1
