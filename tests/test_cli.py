import csv
import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

from ctrlgap import ControlTrajectory, Grid, builtin_instance, cli

GAP = ["gap", "--system", "double_integrator", "--nodes", "200", "--bound", "1"]

GAP_SUMMARY_KEYS = {"N", "a", "command", "converged", "gap_norm", "iterations",
                    "label", "solver", "stage_seconds", "switch_times",
                    "terminal_error", "wall_time_seconds"}

MIN_ENERGY_SUMMARY_KEYS = {"N", "a", "affine_residual", "command", "converged",
                           "energy", "gap_norm", "iterations", "label", "norm",
                           "stage_seconds", "terminal_error", "wall_time_seconds"}


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


def reference_csv(header, rows):
    """The text a csv.writer writes for ``%.17g``-formatted rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["%.17g" % x for x in row])
    return buf.getvalue()


def awkward_columns(N, m):
    """Values that stress the text format: signed zero, a subnormal, +-1e300."""
    rng = np.random.default_rng(7)
    cols = rng.normal(0, 1, (3, N, m)) * 10.0 ** rng.integers(-300, 300, (3, N, m))
    cols[0, :4, 0] = [-0.0, 5e-324, 1e300, -1e300]
    return cols


def test_csv_text_matches_csv_writer_and_reads_back_bit_for_bit(tmp_path):
    N, m = cli.CSV_BLOCK_ROWS + 45, 2
    grid = Grid(N=N, t0=0.0, tf=1.0)
    uA, uB, v = awkward_columns(N, m)
    path = tmp_path / "trajectory.csv"
    cli._write_trajectory(path, grid, uA, uB, v)
    header = (["t"] + [f"uA_{i + 1}" for i in range(m)]
              + [f"uB_{i + 1}" for i in range(m)] + [f"v_{i + 1}" for i in range(m)])
    rows = np.column_stack([grid.left_nodes, uA, uB, v])
    assert path.read_text() == reference_csv(header, rows)

    back_grid, blocks = cli.read_trajectory(path)
    assert back_grid.N == N
    for name, values in (("uA", uA), ("uB", uB), ("v", v)):
        np.testing.assert_array_equal(blocks[name].view(np.int64), values.view(np.int64))

    states = awkward_columns(N + 1, 3)[1]
    cli._write_states(tmp_path / "states.csv", grid, states)
    assert (tmp_path / "states.csv").read_text() == reference_csv(
        ["t", "x_1", "x_2", "x_3"], np.column_stack([grid.nodes, states]))


@pytest.mark.parametrize("text", [
    None,  # no file
    "",
    "0,1,1,0\n0.5,1,1,0\n",  # missing header
    "t,uA_1,uB_1,v_1\n0,1,1,0\n",  # one row
    "t,x_1\n0,1\n0.5,1\n",  # no uA/uB/v columns
    "t,uA_1,uB_1,v_1\n0,1,1,0\n0.5,1,oops,0\n",  # malformed number
    "t,uA_1,uB_1,v_1\n0,1,1,0\n0.5,1,1\n",  # short row
])
def test_bad_trajectory_file_exits_1(tmp_path, capsys, text):
    traj = tmp_path / "trajectory.csv"
    if text is not None:
        traj.write_text(text)
    assert cli.run(["analyze", "--traj", str(traj), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    GAP,
    ["critical", "--system", "double_integrator", "--nodes", "200"],
    ["min-energy", "--system", "machine_tool", "--nodes", "1000", "--bound", "1776.6"],
])
def test_stage_seconds_recorded(tmp_path, argv):
    assert cli.run(argv + ["--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    stages = summary["stage_seconds"]
    assert set(stages) == {"transcribe", "solve", "simulate", "write"}
    assert all(t >= 0.0 for t in stages.values())
    assert summary["wall_time_seconds"] == stages["solve"]
