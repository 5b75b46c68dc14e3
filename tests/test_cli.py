import json
from types import SimpleNamespace

import numpy as np

from ctrlgap import ControlTrajectory, builtin_instance, cli

GAP = ["gap", "--system", "double_integrator", "--nodes", "200", "--bound", "1"]

GAP_SUMMARY_KEYS = {"N", "a", "command", "converged", "gap_norm", "iterations",
                    "label", "solver", "switch_times", "terminal_error",
                    "wall_time_seconds"}

MIN_ENERGY_SUMMARY_KEYS = {"N", "a", "affine_residual", "command", "converged",
                           "energy", "gap_norm", "iterations", "label", "norm",
                           "terminal_error", "wall_time_seconds"}


def test_gap_converges_and_writes_summary(tmp_path):
    assert cli.run(GAP + ["--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == GAP_SUMMARY_KEYS
    assert summary["converged"] is True
    assert (tmp_path / "trajectory.csv").is_file()
    assert (tmp_path / "states.csv").is_file()


def test_bound_from_config_is_recorded(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "double_integrator", "bound": 1.0}))
    from_flag, from_config = tmp_path / "flag", tmp_path / "config"
    assert cli.run(GAP + ["--out", str(from_flag)]) == 0
    assert cli.run(["gap", "--config", str(cfg), "--nodes", "200",
                    "--out", str(from_config)]) == 0
    flag = json.loads((from_flag / "summary.json").read_text())
    summary = json.loads((from_config / "summary.json").read_text())
    assert set(summary) == GAP_SUMMARY_KEYS
    assert summary["a"] == 1.0
    assert summary["gap_norm"] == flag["gap_norm"]


def test_feasible_min_energy_near_critical(tmp_path):
    # machine_tool at N=1000 has a_c = 1774.8132 (LP); 1776.6 is 1e-3 above
    argv = ["min-energy", "--system", "machine_tool", "--nodes", "1000",
            "--bound", "1776.6", "--out", str(tmp_path)]
    assert cli.run(argv) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == MIN_ENERGY_SUMMARY_KEYS
    assert summary["converged"] is True
    assert summary["a"] == 1776.6
    xf = builtin_instance("machine_tool").boundary.xf
    assert summary["terminal_error"] <= 1e-6 * (1 + np.linalg.norm(xf))


def test_gap_out_of_iterations_exits_2(tmp_path):
    assert cli.run(GAP + ["--max-iter", "3", "--out", str(tmp_path)]) == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["iterations"] == 3


def test_infeasible_min_energy_exits_1(tmp_path, capsys):
    argv = ["min-energy", "--system", "double_integrator", "--nodes", "200",
            "--bound", "1", "--out", str(tmp_path)]
    assert cli.run(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_instance_source_exits_1(tmp_path, capsys):
    assert cli.run(["gap", "--nodes", "200", "--bound", "1", "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_critical_stops_when_a_probe_improves_neither_end(tmp_path, capsys, monkeypatch):
    # every gap solve returns its starting point, the zero control, whose
    # certified ends are the first bracket itself
    def stuck_solve_gap(aff, bounds, opts):
        zero = ControlTrajectory.zeros(aff.grid, aff.m)
        return SimpleNamespace(uA=zero, uB=zero, v=zero, gap_norm=1.0,
                               iterations=0, converged=True)

    monkeypatch.setattr("ctrlgap.critical.solve_gap", stuck_solve_gap)
    argv = ["critical", "--system", "double_integrator", "--nodes", "200",
            "--out", str(tmp_path)]
    assert cli.run(argv) == 2
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["evaluations"] == 1


def test_critical_with_zero_control_reaching_the_endpoint_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "double_integrator", "x0": [0, 0], "xf": [0, 0]}))
    argv = ["critical", "--config", str(cfg), "--nodes", "200", "--out", str(tmp_path)]
    assert cli.run(argv) == 1
    assert "error:" in capsys.readouterr().err
