import csv
import io
import itertools
import json
import os
import warnings
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest

from ctrlgap import (BUILTIN_NAMES, ControlTrajectory, Grid, build_affine,
                     builtin_instance, cli, csvtext, discretize, figures, gapsolve, project)
from ctrlgap.project import ROUNDING
from ctrlgap.oracle import MAX_COORDS

GAP = ["gap", "--system", "double_integrator", "--nodes", "200", "--bound", "1"]

GAP_SUMMARY_KEYS = {"N", "a", "command", "converged", "finish", "gap_lower",
                    "gap_norm", "iterations", "label", "stage_seconds", "stop",
                    "switch_times", "terminal_error", "wall_time_seconds"}

MIN_ENERGY_SUMMARY_KEYS = {"N", "a", "affine_residual", "command", "converged",
                           "energy", "gap_norm", "iterations", "label", "norm",
                           "stage_seconds", "terminal_error", "wall_time_seconds"}

CRITICAL_SUMMARY_KEYS = {"N", "a_c", "affine_residual", "bracket_hi", "bracket_lo",
                         "command", "converged", "iterations", "label",
                         "stage_seconds", "switch_times", "terminal_error",
                         "wall_time_seconds"}


def test_gap_converges_and_writes_summary(tmp_path):
    assert cli.run(GAP + ["--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == GAP_SUMMARY_KEYS
    assert summary["converged"] is True
    assert (tmp_path / "trajectory.csv").is_file()
    assert (tmp_path / "run.npz").is_file()
    assert not (tmp_path / "states.csv").exists()


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
    assert summary["gap_norm"] - summary["gap_lower"] <= 1e-8 * summary["gap_norm"]
    # certified reference (perfbench/references.json)
    assert summary["gap_norm"] == pytest.approx(0.8187751293169336, rel=1e-10)


@pytest.mark.parametrize("solver", ["newton", "fast"])
def test_gap_summary_reports_the_certificate_for_every_solver(tmp_path, solver):
    # both spellings of --solver run the one certified solver
    assert cli.run(GAP + ["--solver", solver, "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == GAP_SUMMARY_KEYS
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
    assert ((tmp_path / "fast" / "trajectory.csv").read_bytes()
            == (tmp_path / "default" / "trajectory.csv").read_bytes())
    # by its arrays: a zip entry's bytes carry the time it was written
    with (np.load(tmp_path / "fast" / "run.npz", allow_pickle=False) as fast,
          np.load(tmp_path / "default" / "run.npz", allow_pickle=False) as default):
        assert fast.files == default.files == ["t", "x"]
        for name in fast.files:
            np.testing.assert_array_equal(fast[name].view(np.int64),
                                          default[name].view(np.int64))
    default, fast = (json.loads((tmp_path / run / "summary.json").read_text())
                     for run in ("default", "fast"))
    for key in TIMING_KEYS:
        del default[key], fast[key]
    assert fast == default
    assert not {"restarts", "full_steps"} & set(fast)
    # certified reference (perfbench/references.json)
    assert abs(fast["gap_norm"] - gap_norm) <= 1e-10 * gap_norm


@pytest.mark.parametrize("argv, default", [
    (GAP, 1_000), (["min-energy", "--system", "double_integrator", "--bound", "1"], 200)],
    ids=["gap", "min_energy"])
def test_help_and_parse_read_the_library_default_budget(capsys, argv, default):
    # each budget is written once, as the library's constant, which is also
    # the solver's default
    assert default == {"gap": gapsolve.MAX_ITER, "min-energy": project.NEWTON_MAX_ITER}[argv[0]]
    with pytest.raises(SystemExit) as exit_info:
        cli.run([argv[0], "--help"])
    assert exit_info.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"exits 2 (default {default})" in help_text
    assert cli._build_parser().parse_args(argv).max_iter == default
    solver = {"gap": cli.solve_gap, "min-energy": cli.dykstra_min_energy}[argv[0]]
    assert solver.__defaults__[-1] == default


def test_gap_budget_defaults_to_the_library_cap_and_a_cut_exits_2(tmp_path):
    assert cli._build_parser().parse_args(GAP).max_iter == gapsolve.MAX_ITER == 1_000
    # machine_tool takes 13 pivots and 3 descent steps here; one pivot is a
    # cut short of a certificate
    argv = ["gap", "--system", "machine_tool", "--nodes", "1000", "--bound", "1770",
            "--max-iter", "1", "--out", str(tmp_path)]
    assert cli.run(argv) == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["stop"] == "max_iter"
    assert summary["finish"] == "cut"
    assert summary["iterations"] == 1
    assert summary["gap_norm"] - summary["gap_lower"] > 1e-8 * summary["gap_norm"]


def test_gap_summary_reports_the_stop(tmp_path):
    argv = ["gap", "--system", "double_integrator", "--nodes", "16384", "--bound", "1"]
    assert cli.run(argv + ["--out", str(tmp_path / "free")]) == 0
    summary = json.loads((tmp_path / "free" / "summary.json").read_text())
    assert (summary["stop"], summary["finish"]) == ("certified", "exact")
    # --max-iter and iterations count the pivots on the blocks as well
    capped = argv + ["--max-iter", str(summary["iterations"]), "--out", str(tmp_path / "cap")]
    assert cli.run(capped) == 0
    assert json.loads((tmp_path / "cap" / "summary.json").read_text())["converged"] is True
    # an exact answer whose certificate rounding keeps from --tol exits 2
    # (ROADMAP item 5)
    near = ["gap", "--system", "machine_tool", "--nodes", "1000", "--bound", "1774.81",
            "--tol", "1e-9", "--out", str(tmp_path / "near")]
    assert cli.run(near) == 2
    summary = json.loads((tmp_path / "near" / "summary.json").read_text())
    assert (summary["stop"], summary["finish"]) == ("rounding", "exact")


def test_parser_built_once_keeps_no_arguments_between_runs(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    assert cli.run(["gap", "--system", "double_integrator", "--nodes", "x"]) == 1
    assert "--nodes" in capsys.readouterr().err
    assert cli.run(GAP + ["--svg", "--out", str(tmp_path / "svg")]) == 0
    assert (tmp_path / "svg" / "figure.svg").is_file()
    assert cli.run(GAP + ["--out", str(tmp_path / "plain")]) == 0
    assert not (tmp_path / "plain" / "figure.svg").exists()
    assert cli._build_parser().parse_args(GAP).svg is False


def test_critical_writes_the_vertex_control_at_the_upper_end(tmp_path):
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


def test_critical_forms_the_gramian_verdict_once(tmp_path, monkeypatch):
    # the transcription's basis, which the search reads again, forms
    # AffineData.controllable, which keeps its one SVD
    calls = []
    genuine = discretize.gramian_report
    monkeypatch.setattr(discretize, "gramian_report",
                        lambda aff: calls.append(aff) or genuine(aff))
    argv = ["critical", "--system", "machine_tool", "--nodes", "1000",
            "--out", str(tmp_path)]
    assert cli.run(argv) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("tol_a", ["1e-10", "inf"])
def test_critical_tol_a_below_the_rounding_floor_exits_1(tmp_path, capsys, tol_a):
    # an infinite tol_a would accept the bracket of the zero control
    argv = ["critical", "--system", "double_integrator", "--nodes", "1000",
            "--tol-a", tol_a, "--out", str(tmp_path)]
    assert cli.run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "tol_a" in err
    assert not (tmp_path / "summary.json").exists()


def test_non_finite_summary_exits_1_before_writing_run_files(tmp_path, capsys,
                                                             monkeypatch):
    genuine = cli.solve_gap
    monkeypatch.setattr(cli, "solve_gap", lambda *args, **kwargs:
                        genuine(*args, **kwargs)._replace(gap_norm=float("nan")))
    out = tmp_path / "out"
    assert cli.run(GAP + ["--out", str(out)]) == 1
    assert "summary field gap_norm is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_infeasible_min_energy_exits_1(tmp_path, capsys):
    argv = ["min-energy", "--system", "double_integrator", "--nodes", "200",
            "--bound", "1", "--out", str(tmp_path)]
    assert cli.run(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_instance_source_exits_1(tmp_path, capsys):
    assert cli.run(["gap", "--nodes", "200", "--bound", "1", "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("unusable", ["out_is_a_file", "unreadable_config"])
def test_unusable_out_or_config_exits_1(tmp_path, capsys, monkeypatch, unusable):
    path = tmp_path / "taken"
    if unusable == "out_is_a_file":
        path.write_text("a regular file\n")
        argv = GAP + ["--out", str(path)]
    else:
        path.write_text(json.dumps({"system": "double_integrator", "bound": 1.0}))
        path.chmod(0)
        if os.access(path, os.R_OK):  # a superuser reads it anyway
            def refuse(self, *args, **kwargs):
                raise PermissionError(13, "Permission denied", str(self))
            monkeypatch.setattr(cli.Path, "read_text", refuse)
        argv = ["gap", "--config", str(path), "--nodes", "100", "--out", str(tmp_path / "o")]
    assert cli.run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err


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


@pytest.mark.parametrize("command", ["gap", "critical", "min-energy", "ctrb"])
def test_unstable_euler_step_exits_1_without_a_warning(tmp_path, capsys, command):
    # x' = 1e8 x at N=200: the doubled reachability map overflows, and the
    # refusal names the step before any factorization sees a non-finite G
    cfg = tmp_path / "unstable.json"
    cfg.write_text(json.dumps({"system": {"A": [[1e8]], "B": [[1]]}, "t0": 0, "tf": 1,
                               "x0": [1], "xf": [0], "bound": 1}))
    argv = [command, "--config", str(cfg), "--nodes", "200", "--out", str(tmp_path / "o")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.run(argv) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "step h=0.005 is unstable" in err
    assert not (tmp_path / "o" / "summary.json").exists()


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


def test_ctrb_reports_an_uncontrollable_input_column(tmp_path, capsys):
    # B = (1, 0) with A B = 0: every test matrix has rank 1 of 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": {"A": [[0, 1], [0, 0]], "B": [[1], [0]]},
                               "t0": 0, "tf": 1, "x0": [0, 1], "xf": [0, 0]}))
    argv = ["ctrb", "--config", str(cfg), "--nodes", "200", "--out", str(tmp_path / "o")]
    assert cli.run(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 3
    assert all("rank 1/2" in row and row.endswith("  NOT controllable") for row in rows)
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["controllable"] is False and summary["gramian_rank"] < 2
    assert summary["column_ranks"] == [1]


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


def test_critical_stops_when_a_probe_improves_neither_end(tmp_path, capsys, monkeypatch):
    # a gap solve stuck at its start, the zero control, certifies only the
    # zero control's ends: the search exits 2 on that bracket
    def stuck_solve_gap(aff, bounds):
        zero = ControlTrajectory.zeros(aff.grid, aff.m)
        Qt, c, _ = aff.basis
        g = Qt.T @ c
        lower = float(c @ c) / float(np.abs(g).sum()) * (1.0 - ROUNDING) / (1.0 + ROUNDING)
        # the box is |u| <= the zero control's upper end, so its scale is 1
        return SimpleNamespace(uB=zero, iterations=0, scale=(lower / bounds.upper, 1.0))

    monkeypatch.setattr("ctrlgap.critical.solve_gap", stuck_solve_gap)
    argv = ["critical", "--system", "double_integrator", "--nodes", "200",
            "--out", str(tmp_path)]
    assert cli.run(argv) == 2
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["converged"] is False and summary["iterations"] == 0
    inst = builtin_instance("double_integrator")
    aff = build_affine(inst.system, inst.system.grid(200), inst.boundary)
    Qt, c, _ = aff.basis
    assert summary["bracket_hi"] == float(np.abs(Qt.T @ c).max()) * (1.0 + ROUNDING)
    assert summary["bracket_lo"] < summary["bracket_hi"] * (1.0 - 1e-8)


def test_critical_with_zero_control_reaching_the_endpoint_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "double_integrator", "x0": [0, 0], "xf": [0, 0]}))
    argv = ["critical", "--config", str(cfg), "--nodes", "200", "--out", str(tmp_path)]
    assert cli.run(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_critical_on_a_grid_where_the_system_is_uncontrollable_exits_1(tmp_path, capsys):
    # Kalman-controllable, but at h = 1e-301 the columns M^k hB of G coincide
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": {"A": [[0, 1], [0, 0]], "B": [[0], [1]]},
                               "t0": 0, "tf": 1e-300, "x0": [0, 1], "xf": [0, 0]}))
    argv = ["critical", "--config", str(cfg), "--nodes", "10", "--out", str(tmp_path / "o")]
    assert cli.run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "uncontrollable on this grid" in err
    assert not (tmp_path / "o" / "summary.json").exists()


def reference_csv(header, rows):
    """The text a csv.writer writes for ``%.17g``-formatted rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["%.17g" % x for x in row])
    return buf.getvalue()


def differing_line(path, expected):
    """The first line of the file at ``path`` that differs from
    ``expected``'s, as (number, line, expected line), or None: a short
    report where pytest's diff of two long texts would take minutes."""
    pairs = itertools.zip_longest(path.read_text().split("\n"), expected.split("\n"))
    return next(((i, line, want) for i, (line, want) in enumerate(pairs) if line != want), None)


def awkward_columns(N, m):
    """Values that stress the text format and the binary file: signed zero,
    a subnormal and +-1e300 at the head of the first of the three."""
    rng = np.random.default_rng(7)
    cols = rng.normal(0, 1, (3, N, m)) * 10.0 ** rng.integers(-300, 300, (3, N, m))
    cols[0, :4, 0] = [-0.0, 5e-324, 1e300, -1e300]
    return cols


def check_run_npz(path, times, states):
    """run.npz holds exactly ``t`` and ``x``, equal to ``times`` and
    ``states`` bit for bit, -0.0 and subnormals included."""
    with np.load(path, allow_pickle=False) as run:
        assert run.files == ["t", "x"]
        for name, want in (("t", times), ("x", states)):
            assert run[name].dtype == np.float64 and run[name].shape == want.shape
            np.testing.assert_array_equal(run[name].view(np.int64), want.view(np.int64))


def write_and_check_csv_files(tmp_path, monkeypatch, grid, curves, states):
    """Write the run files, check trajectory.csv's text against csv.writer's
    ``%.17g`` and its values read back bit for bit, and run.npz's arrays
    bit for bit, and return the number of values of each encoder call."""
    encoded = []

    def encode_slots(x, out=None):
        encoded.append(x.size)
        return csvtext.encode_slots(x, out)

    monkeypatch.setattr(cli, "encode_slots", encode_slots)
    cli._emit(tmp_path, {}, grid, curves, states)
    m = curves["uA"].shape[1]
    header = (["t"] + [f"uA_{i + 1}" for i in range(m)]
              + [f"uB_{i + 1}" for i in range(m)] + [f"v_{i + 1}" for i in range(m)])
    rows = np.column_stack([grid.left_nodes, curves["uA"], curves["uB"], curves["v"]])
    path = tmp_path / "trajectory.csv"
    assert differing_line(path, reference_csv(header, rows)) is None

    back_grid, blocks = cli.read_trajectory(path)
    assert back_grid.N == grid.N
    for name, values in curves.items():
        np.testing.assert_array_equal(blocks[name].view(np.int64), values.view(np.int64))

    check_run_npz(tmp_path / "run.npz", grid.nodes, states)
    assert not (tmp_path / "states.csv").exists()
    return encoded


def test_csv_text_matches_csv_writer_and_reads_back_bit_for_bit(tmp_path, monkeypatch):
    N, m = cli.CSV_BLOCK_VALUES // 4 + 45, 2
    grid = Grid(N=N, t0=0.0, tf=1.0)
    uA, uB, v = awkward_columns(N, m)
    states = awkward_columns(N + 1, 3)[0]
    encoded = write_and_check_csv_files(tmp_path, monkeypatch, grid,
                                        {"uA": uA, "uB": uB, "v": v}, states)
    # each value once: the times and the three curves
    assert sum(encoded) == N * (1 + 3 * m)


def test_blocks_of_one_row_encode_each_row_alone(tmp_path, monkeypatch):
    # every block one row: one encoder call per row of trajectory.csv
    monkeypatch.setattr(cli, "CSV_BLOCK_VALUES", 1)
    N, m = 5, 2
    grid = Grid(N=N, t0=0.0, tf=1.0)
    uA, uB, v = awkward_columns(N, m)
    states = awkward_columns(N + 1, 3)[0]
    encoded = write_and_check_csv_files(tmp_path, monkeypatch, grid,
                                        {"uA": uA, "uB": uB, "v": v}, states)
    assert encoded == [1 + 3 * m] * N


@pytest.mark.parametrize("case", ["shared_uB", "negative_zero_v", "one_nonzero_v"])
def test_a_shared_or_zero_curve_is_encoded_once(tmp_path, monkeypatch, case):
    # uB passed as the very array uA is read from uA's slots, and an all-zero
    # v from the one zero slot; a v of -0.0 or with one nonzero entry is not
    # all zero by bit pattern and is encoded in full
    N, m = cli.CSV_BLOCK_VALUES // 4 + 45, 2
    grid = Grid(N=N, t0=0.0, tf=1.0)
    uA, uB, _ = awkward_columns(N, m)
    v = np.zeros((N, m))
    if case == "shared_uB":  # as min-energy and critical pass them
        uB = uA
    elif case == "negative_zero_v":
        v[:] = -0.0
    else:
        v[N // 2, 1] = 1e-300
    states = awkward_columns(N + 1, 3)[0]
    encoded = write_and_check_csv_files(tmp_path, monkeypatch, grid,
                                        {"uA": uA, "uB": uB, "v": v}, states)
    first_row = (tmp_path / "trajectory.csv").read_text().split("\n")[1]
    if case == "shared_uB":  # the times, uA, and v's zero slot
        assert sum(encoded) == N * (1 + m) + 1
        assert first_row.endswith(",0,0")
    else:
        assert sum(encoded) == N * (1 + 3 * m)
        assert first_row.endswith(",-0,-0") == (case == "negative_zero_v")


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


@pytest.mark.parametrize("argv", [
    GAP,
    ["critical", "--system", "double_integrator", "--nodes", "200"],
    ["min-energy", "--system", "machine_tool", "--nodes", "1000", "--bound", "1776.6"],
])
def test_the_qr_is_billed_to_the_transcribe_stage(tmp_path, monkeypatch, argv):
    # the solve stage finds the basis, and the QR of G^T behind it, formed
    formed = []
    for name in ("solve_gap", "critical_bound", "dykstra_min_energy"):
        def solve(*args, _solve=getattr(cli, name), **kwargs):
            formed.append("basis" in args[0].__dict__)
            return _solve(*args, **kwargs)
        monkeypatch.setattr(cli, name, solve)
    assert cli.run(argv + ["--out", str(tmp_path)]) == 0
    assert formed == [True]


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


def test_oracle_outside_the_certified_interval_exits_1(tmp_path, capsys, monkeypatch):
    # an enumerated gap 1e-6 above the certified interval's upper end 1.43
    # lies 55 times the allowed slack of 2.6e-8 outside it
    genuine = cli.brute_force_gap

    def doctored(aff, bounds):
        reference = genuine(aff, bounds)
        return reference._replace(gap_norm=reference.gap_norm * (1 + 1e-6))

    monkeypatch.setattr(cli, "brute_force_gap", doctored)
    argv = ["gap", "--system", "double_integrator", "--nodes", "6", "--bound", "1",
            "--oracle", "--out", str(tmp_path)]
    assert cli.run(argv) == 1
    assert "outside the certified interval" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


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
    text = (tmp_path / "trajectory.csv").read_text()
    header = text.split("\n", 1)[0].split(",")
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    assert text == reference_csv(header, rows)
    # the states on every node, starting from x0
    inst = builtin_instance(system)
    with np.load(tmp_path / "run.npz", allow_pickle=False) as run:
        assert run["x"].shape == (301, inst.system.n)
        np.testing.assert_array_equal(run["t"], inst.system.grid(300).nodes)
        np.testing.assert_array_equal(run["x"][0], inst.boundary.x0)
        assert np.isfinite(run["x"]).all()
    assert not (tmp_path / "states.csv").exists()


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("command,distinct", [("gap", 4), ("min-energy", 2), ("critical", 2)])
def test_cli_files_are_percent_17g_of_the_returned_arrays(tmp_path, monkeypatch, command,
                                                          distinct, extra):
    # double_integrator (n = 2, m = 1): per row, gap encodes t, uA, uB and v,
    # min-energy and critical t and u, as they pass u as uA and uB and an
    # all-zero v.  N is one block's rows + extra: up to one full block the
    # rows take one encoder call, and one row more takes a second one of
    # two equal blocks.
    N = cli.CSV_BLOCK_VALUES // distinct + extra
    returned = {}

    def record(name, fn):
        def recorded(*args, **kwargs):
            returned[name] = fn(*args, **kwargs)
            return returned[name]
        monkeypatch.setattr(cli, name, recorded)

    for name in ("solve_gap", "critical_bound", "dykstra_min_energy", "simulate"):
        record(name, getattr(cli, name))
    calls = []
    monkeypatch.setattr(cli, "encode_slots",
                        lambda x, out: calls.append(x.size) or csvtext.encode_slots(x, out))
    argv = [command, "--system", "double_integrator", "--nodes", str(N), "--out", str(tmp_path)]
    if command != "critical":
        argv += ["--bound", "1" if command == "gap" else "3"]
    assert cli.run(argv) == 0
    assert len(calls) == (1 if extra <= 0 else 2)
    if command == "gap":
        result = returned["solve_gap"]
        uA, uB, v = result.uA.values, result.uB.values, result.v.values
    else:
        u = (returned["critical_bound"].u_c if command == "critical"
             else returned["dykstra_min_energy"][0])
        uA = uB = u.values
        v = np.zeros_like(u.values)
    grid = builtin_instance("double_integrator").system.grid(N)
    assert differing_line(tmp_path / "trajectory.csv", reference_csv(
        ["t", "uA_1", "uB_1", "v_1"], np.column_stack([grid.left_nodes, uA, uB, v]))) is None
    check_run_npz(tmp_path / "run.npz", grid.nodes, returned["simulate"])
