import csv
import io
import json
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest

from ctrlgap import (BUILTIN_NAMES, ControlTrajectory, Grid, ProjectionStats,
                     SolveOptions, build_affine, builtin_instance, cli, figures)
from ctrlgap.critical import _certified_ends
from ctrlgap.oracle import MAX_COORDS

GAP = ["gap", "--system", "double_integrator", "--nodes", "200", "--bound", "1"]

GAP_SUMMARY_KEYS = {"N", "a", "command", "converged", "finish", "gap_lower",
                    "gap_norm", "iterations", "label", "solver", "stage_seconds",
                    "switch_times", "terminal_error", "wall_time_seconds"}

MIN_ENERGY_SUMMARY_KEYS = {"N", "a", "affine_residual", "command", "converged",
                           "energy", "gap_norm", "iterations", "label", "norm",
                           "stage_seconds", "terminal_error", "wall_time_seconds"}

CRITICAL_SUMMARY_KEYS = {"N", "a_c", "affine_residual", "bracket_hi", "bracket_lo",
                         "command", "converged", "evaluations", "iterations", "label",
                         "stage_seconds", "switch_times", "terminal_error",
                         "wall_time_seconds"}


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


@pytest.mark.parametrize("flag,value,message", [
    ("--max-iter", "0", "max_iter must be at least 1"),
    ("--tol", "0", "tol must be positive"),
    ("--tol", "-1", "tol must be positive")], ids=["max_iter_0", "tol_0", "tol_negative"])
def test_min_energy_rejects_a_nonpositive_tol_or_max_iter(tmp_path, capsys, flag, value,
                                                          message):
    argv = ["min-energy", "--system", "machine_tool", "--nodes", "1000",
            "--bound", "1800", flag, value, "--out", str(tmp_path)]
    assert cli.run(argv) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_gap_out_of_iterations_exits_2(tmp_path):
    assert cli.run(GAP + ["--max-iter", "3", "--out", str(tmp_path)]) == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["iterations"] == 3


def test_default_gap_on_machine_tool_is_certified(tmp_path):
    argv = ["gap", "--system", "machine_tool", "--nodes", "2000", "--bound", "1770",
            "--out", str(tmp_path)]
    assert cli.run(argv) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["solver"] == "newton"
    assert summary["gap_norm"] - summary["gap_lower"] <= 1e-8 * summary["gap_norm"]
    # certified reference (perfbench/references.json)
    assert summary["gap_norm"] == pytest.approx(0.8187751293169336, rel=1e-10)


@pytest.mark.parametrize("solver", ["newton", "fast"])
def test_gap_summary_reports_the_certificate_for_every_solver(tmp_path, solver):
    # both spellings of --solver run the one certified solver
    assert cli.run(GAP + ["--solver", solver, "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == GAP_SUMMARY_KEYS
    assert summary["solver"] == "newton"
    assert 0.0 < summary["gap_lower"] <= summary["gap_norm"] * (1 + 1e-12)
    assert summary["gap_norm"] - summary["gap_lower"] <= 1e-8 * summary["gap_norm"]


# Timings, which differ from run to run.
TIMING_KEYS = {"stage_seconds", "wall_time_seconds"}


@pytest.mark.parametrize("nodes,gap_norm", [(1_000, 0.8340362106898944),
                                            (10_000, 0.8496992057977855)])
def test_legacy_fast_spelling_writes_the_default_runs_files(tmp_path, nodes, gap_norm):
    argv = ["gap", "--system", "machine_tool", "--nodes", str(nodes), "--bound", "1770"]
    assert cli.run(argv + ["--out", str(tmp_path / "default")]) == 0
    assert cli.run(argv + ["--solver", "fast", "--out", str(tmp_path / "fast")]) == 0
    for name in ("trajectory.csv", "states.csv"):
        assert (tmp_path / "fast" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()
    default, fast = (json.loads((tmp_path / run / "summary.json").read_text())
                     for run in ("default", "fast"))
    for key in TIMING_KEYS:
        del default[key], fast[key]
    assert fast == default
    assert fast["solver"] == "newton"
    assert not {"restarts", "full_steps"} & set(fast)
    # certified reference (perfbench/references.json)
    assert abs(fast["gap_norm"] - gap_norm) <= 1e-10 * gap_norm


def test_gap_budget_defaults_to_the_library_cap_and_a_cut_exits_2(tmp_path):
    assert cli._build_parser().parse_args(GAP).max_iter == SolveOptions().max_iter == 1_000
    # machine_tool needs 47 Newton steps here; one step is a cut short of a certificate
    argv = ["gap", "--system", "machine_tool", "--nodes", "1000", "--bound", "1770",
            "--max-iter", "1", "--out", str(tmp_path)]
    assert cli.run(argv) == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["iterations"] == 1
    assert summary["gap_norm"] - summary["gap_lower"] > 1e-8 * summary["gap_norm"]


def test_gap_summary_reports_the_coarse_solve_from_the_size_floor_up(tmp_path):
    argv = ["gap", "--system", "double_integrator", "--nodes", "16384", "--bound", "1"]
    assert cli.run(argv + ["--out", str(tmp_path / "free")]) == 0
    summary = json.loads((tmp_path / "free" / "summary.json").read_text())
    assert set(summary) == GAP_SUMMARY_KEYS | {"coarse_iterations"}
    assert summary["coarse_iterations"] > 0
    # --max-iter and iterations count the Newton steps on the fine grid alone
    capped = argv + ["--max-iter", str(summary["iterations"]), "--out", str(tmp_path / "cap")]
    assert cli.run(capped) == 0
    assert json.loads((tmp_path / "cap" / "summary.json").read_text())["converged"] is True


def test_parser_built_once_keeps_no_arguments_between_runs(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    assert cli.run(["gap", "--system", "double_integrator", "--nodes", "x"]) == 1
    assert "--nodes" in capsys.readouterr().err
    assert cli.run(GAP + ["--svg", "--out", str(tmp_path / "svg")]) == 0
    assert (tmp_path / "svg" / "figure.svg").is_file()
    assert cli.run(GAP + ["--out", str(tmp_path / "plain")]) == 0
    assert not (tmp_path / "plain" / "figure.svg").exists()
    assert cli._build_parser().parse_args(GAP).svg is False


def test_critical_writes_the_minimum_energy_control_at_the_upper_end(tmp_path):
    argv = ["critical", "--system", "double_integrator", "--nodes", "200",
            "--out", str(tmp_path)]
    assert cli.run(argv) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == CRITICAL_SUMMARY_KEYS
    assert summary["converged"] is True
    assert summary["a_c"] == summary["bracket_hi"]
    xf = builtin_instance("double_integrator").boundary.xf
    assert summary["terminal_error"] <= 1e-6 * (1 + np.linalg.norm(xf))
    _, blocks = cli.read_trajectory(tmp_path / "trajectory.csv")
    np.testing.assert_array_equal(blocks["uA"], blocks["uB"])
    assert not np.any(blocks["v"])
    assert np.max(np.abs(blocks["uB"])) <= summary["a_c"]


@pytest.mark.parametrize("tol_a", ["1e-10", "inf"])
def test_critical_tol_a_below_the_rounding_floor_exits_1(tmp_path, capsys, tol_a):
    # an infinite tol_a would accept the bracket of the zero control
    argv = ["critical", "--system", "double_integrator", "--nodes", "1000",
            "--tol-a", tol_a, "--out", str(tmp_path)]
    assert cli.run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "tol_a" in err
    assert not (tmp_path / "summary.json").exists()


def test_infeasible_min_energy_exits_1(tmp_path, capsys):
    argv = ["min-energy", "--system", "double_integrator", "--nodes", "200",
            "--bound", "1", "--out", str(tmp_path)]
    assert cli.run(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_instance_source_exits_1(tmp_path, capsys):
    assert cli.run(["gap", "--nodes", "200", "--bound", "1", "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--system", "double_integrator", "--nodes", "1"],
    ["--system", "double_integrator", "--nodes", "many"],
    ["--system", "double_integrator", "--config", "cfg.json", "--nodes", "200"],
], ids=["one_node", "not_an_integer", "two_sources"])
@pytest.mark.parametrize("command", ["gap", "critical", "ctrb", "min-energy"])
def test_bad_instance_flags_exit_1(tmp_path, capsys, command, flags):
    bound = ["--bound", "1"] if command in ("gap", "min-energy") else []
    assert cli.run([command, *flags, *bound, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: argument --")
    assert not (tmp_path / "summary.json").exists()


CTRB_SUMMARY_KEYS = {"N", "column_ranks", "command", "conditioning", "controllable",
                     "converged", "gramian_conditioning", "gramian_rank", "label", "rank",
                     "required", "wall_time_seconds"}


def test_ctrb_prints_one_row_per_test_and_writes_its_summary(tmp_path, capsys):
    argv = ["ctrb", "--system", "machine_tool", "--nodes", "200", "--out", str(tmp_path)]
    assert cli.run(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split("  ")[0].rstrip() for row in rows] == \
        ["kalman (full B)", "kalman (column 1)", "gramian (grid)"]
    assert all("rank 7/7" in row and row.endswith("  controllable") for row in rows)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == CTRB_SUMMARY_KEYS
    assert summary["rank"] == summary["required"] == summary["gramian_rank"] == 7
    assert summary["column_ranks"] == [7]
    assert summary["controllable"] is True and summary["N"] == 200


def test_analyze_of_a_gap_trajectory_reproduces_its_switch_times(tmp_path, capsys):
    gap_dir, analyze_dir = tmp_path / "gap", tmp_path / "analyze"
    argv = ["gap", "--system", "machine_tool", "--nodes", "1000", "--bound", "1770",
            "--out", str(gap_dir)]
    assert cli.run(argv) == 0
    gap = json.loads((gap_dir / "summary.json").read_text())
    traj = str(gap_dir / "trajectory.csv")
    assert cli.run(["analyze", "--traj", traj, "--signal", "uB",
                    "--out", str(analyze_dir)]) == 0
    summary = json.loads((analyze_dir / "summary.json").read_text())
    assert len(gap["switch_times"]) >= 2
    assert summary["switch_times"] == gap["switch_times"]
    assert (summary["command"], summary["label"], summary["N"]) == ("analyze", traj, 1000)
    assert f"channel 1: {len(gap['switch_times'])} switchings" in capsys.readouterr().out


def test_systems_lists_every_builtin(capsys):
    assert cli.run(["systems"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == list(BUILTIN_NAMES)
    assert lines[-1].startswith("machine_tool: n=7 m=1 horizon=[0, 0.0522]")


def stuck_solve_gap(aff, bounds):
    """A gap solve that returns its starting point, the zero control, whose
    certified ends are the first bracket itself."""
    zero = ControlTrajectory.zeros(aff.grid, aff.m)
    return SimpleNamespace(uA=zero, uB=zero, v=zero, gap_norm=1.0,
                           iterations=0, converged=True)


def test_critical_stops_when_a_probe_improves_neither_end(tmp_path, capsys, monkeypatch):
    # the gap solves are stuck and the minimum-energy step ends neither
    # converged nor certified infeasible: the search stops after one round
    def unconverged_min_energy(aff, bounds):
        zero = ControlTrajectory.zeros(aff.grid, aff.m)
        return zero, ProjectionStats(aff.residual(zero.flat), 1, False)

    monkeypatch.setattr("ctrlgap.critical.solve_gap", stuck_solve_gap)
    monkeypatch.setattr("ctrlgap.critical.dykstra_min_energy", unconverged_min_energy)
    argv = ["critical", "--system", "double_integrator", "--nodes", "200",
            "--out", str(tmp_path)]
    assert cli.run(argv) == 2
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["converged"] is False
    # no minimum-energy step converged, so hi is still the zero control's
    inst = builtin_instance("double_integrator")
    aff = build_affine(inst.system, inst.system.grid(200), inst.boundary)
    assert summary["bracket_hi"] == _certified_ends(aff, np.zeros(200))[1]


def test_critical_minimum_energy_certificates_alone_close_the_bracket(tmp_path, monkeypatch):
    # with every gap solve stuck at the zero control, each minimum-energy
    # step either raises lo by the multiplier or the ray that certifies it
    # infeasible, or converges and sets hi
    monkeypatch.setattr("ctrlgap.critical.solve_gap", stuck_solve_gap)
    argv = ["critical", "--system", "double_integrator", "--nodes", "200",
            "--out", str(tmp_path)]
    assert cli.run(argv) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    lo, hi = summary["bracket_lo"], summary["bracket_hi"]
    assert summary["converged"] is True
    assert hi - lo <= 1e-8 * (1.0 + hi)
    inst = builtin_instance("double_integrator")
    aff = build_affine(inst.system, inst.system.grid(200), inst.boundary)
    zero_lo, zero_hi = _certified_ends(aff, np.zeros(200))
    assert zero_lo < lo and hi < zero_hi
    assert summary["iterations"] == 0 and summary["evaluations"] >= 1


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
    "t,uA_1,uB_1,v_1\n0,1,1,1\n0.5,1,1,1\n0.6,-1,-1,-1\n0.61,-1,-1,-1\n",  # uneven times
    "t,uA_1,uB_1,v_1\n0,1,1,0\n0.25,1,1,0\nnan,1,1,0\n0.75,1,1,0\n",  # non-finite time
])
def test_bad_trajectory_file_exits_1(tmp_path, capsys, text):
    traj = tmp_path / "trajectory.csv"
    if text is not None:
        traj.write_text(text)
    assert cli.run(["analyze", "--traj", str(traj), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag,message", [
    ("--tau", "tau must be nonnegative"),
    ("--min-len", "min_len must be nonnegative")])
def test_analyze_rejects_a_negative_tau_or_min_len(tmp_path, capsys, flag, message):
    assert cli.run(GAP + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for value in ("-1", "nan", "inf"):
        argv = ["analyze", "--traj", str(tmp_path / "trajectory.csv"), flag, value,
                "--out", str(tmp_path / "analyze")]
        assert cli.run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: {message}" in err
        assert not (tmp_path / "analyze" / "summary.json").exists()


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


SVG_NS = "http://www.w3.org/2000/svg"

MIN_ENERGY = ["min-energy", "--system", "machine_tool", "--nodes", "300", "--bound", "1900"]


@pytest.mark.parametrize("argv,tol", [
    (GAP + ["--solver", "fast"], "nan"),
    (MIN_ENERGY, "nan"),
    (GAP, "inf"),
    (MIN_ENERGY, "inf"),
], ids=["gap_fast", "min_energy", "gap_inf", "min_energy_inf"])
def test_nan_tol_exits_1(tmp_path, capsys, argv, tol):
    # an infinite tol would pass any certificate or residual test at once
    assert cli.run(argv + ["--tol", tol, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: tol must be positive")
    assert not (tmp_path / "summary.json").exists()


TWO_INPUT_CONFIG = {"system": {"A": [[0, 1], [0, 0]], "B": [[1, 0], [0, 1]]},
                    "t0": 0, "tf": 1, "x0": [0, 1], "xf": [0, 0], "bound": 0.5,
                    "label": "a<b & c"}


@pytest.mark.parametrize("argv,channels", [
    (["gap", "--system", "machine_tool", "--nodes", "300", "--bound", "1770"], 1),
    (["critical", "--system", "double_integrator", "--nodes", "300"], 1),
    (["min-energy", "--system", "damped_oscillator", "--nodes", "300", "--bound", "1"], 1),
    (["gap", "--config", "two_input.json", "--nodes", "300"], 2),
], ids=["gap", "critical", "min_energy", "gap_two_inputs"])
def test_svg_figure_has_one_polyline_per_series_and_channel(tmp_path, argv, channels):
    (tmp_path / "two_input.json").write_text(json.dumps(TWO_INPUT_CONFIG))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert cli.run(argv + ["--svg", "--out", str(tmp_path)]) == 0
    root = ET.parse(tmp_path / "figure.svg").getroot()
    assert root.tag == f"{{{SVG_NS}}}svg"
    lines = root.findall(f"{{{SVG_NS}}}polyline")
    # uA, uB and v in every channel's panel, 300 <= MAX_POINTS points each
    assert [line.get("stroke") for line in lines] == \
        [color for _, color in figures.SERIES_STYLE] * channels
    assert all(len(line.get("points").split()) == 300 for line in lines)
    if "--config" in argv:
        # the label reaches the title through XML escaping
        title = root.find(f"{{{SVG_NS}}}text").text
        assert title == f"{TWO_INPUT_CONFIG['label']}: gap solve, N=300"


@pytest.mark.parametrize("argv", [
    ["ctrb", "--system", "double_integrator", "--nodes", "200"],
    ["analyze", "--traj", "trajectory.csv"],
], ids=["ctrb", "analyze"])
def test_svg_is_rejected_where_nothing_is_plotted(tmp_path, capsys, argv):
    assert cli.run(argv + ["--svg", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: unrecognized arguments: --svg")
    assert not (tmp_path / "summary.json").exists()


def test_oracle_agrees_with_the_gap_solve(tmp_path):
    argv = ["gap", "--system", "double_integrator", "--nodes", "6", "--bound", "1",
            "--oracle", "--out", str(tmp_path)]
    assert cli.run(argv) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["oracle_objective"] > 0.0
    assert summary["oracle_objective_diff"] <= 1e-12


def test_oracle_beyond_its_size_limit_exits_1(tmp_path, capsys):
    argv = ["gap", "--system", "double_integrator", "--nodes", "9", "--bound", "1",
            "--oracle", "--out", str(tmp_path)]
    assert cli.run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"at most {MAX_COORDS} control coordinates" in err
    assert MAX_COORDS == 8
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("system,bound", [
    ("double_integrator", 3.0), ("damped_oscillator", 1.0), ("machine_tool", 1900.0)])
@pytest.mark.parametrize("command", ["gap", "min-energy", "critical"])
def test_written_csv_files_are_percent_17g_of_their_values(tmp_path, command, system, bound):
    argv = [command, "--system", system, "--nodes", "300", "--out", str(tmp_path)]
    if command != "critical":
        argv += ["--bound", f"{bound / 2 if command == 'gap' else bound:g}"]
    assert cli.run(argv) == 0
    for name in ("trajectory.csv", "states.csv"):
        text = (tmp_path / name).read_text()
        header = text.split("\n", 1)[0].split(",")
        rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
        assert text == reference_csv(header, rows)
