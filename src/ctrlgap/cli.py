"""Command-line interface: gap solves, critical bounds, controllability
reports, feasible minimum-energy solves, trajectory analysis.

Every run writes a ``summary.json`` record.  ``gap``, ``critical`` and
``min-energy`` also write ``trajectory.csv`` (control curves at left node
times) and ``states.csv`` (simulated states on all nodes), and with
``--svg`` ``figure.svg``.  The CSV files hold every value as its
``%.17g`` text, so ``read_trajectory`` gets the same doubles back; the
vectorised encoder in ``csvtext`` writes exactly the bytes that Python's
``%`` formatting gives.  Each command takes the argparse namespace as
parsed and builds its summary as a plain dict; ``_emit`` leaves out None
entries and rejects a non-finite number.  Exit codes: 0 converged, 2
unconverged (for ``critical`` also when the certified bracket did not
reach ``--tol-a``), 1 usage or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
import warnings
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import figures
from .analyze import extract_switchings
from .controllability import gramian_report, kalman_rank
from .critical import TOL_A_FLOOR, critical_bound
from .csvtext import encode_rows
from .discretize import ControlTrajectory, build_affine, l2_norm, simulate
from .errors import ConfigError, CtrlGapError
from .gapsolve import SolveOptions, solve_gap
from .model import (BUILTIN_NAMES, Bounds, Grid, ProblemInstance,
                    builtin_instance, instance_from_config)
from .oracle import MAX_COORDS, brute_force_gap
from .project import dykstra_min_energy

# Rows encoded per write when saving a CSV file.  A block of a few thousand
# values keeps the encoder's per-call overhead small and its scratch arrays
# near 1 MB at 8 columns, and the whole file's text is never in memory.
CSV_BLOCK_ROWS = 1024
# Share of a step that a time read back may be off the uniform grid rebuilt
# from the first two times, more than rounding leaves in a written file.
GRID_SLACK = 1e-3


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as ConfigError so the
    process can exit with code 1 instead of argparse's default 2."""

    def error(self, message):
        raise ConfigError(message)


def _nodes(text: str) -> int:
    if not text.isdecimal() or int(text) < 2:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 2, got {text!r}")
    return int(text)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: each ``parse_args`` fills a new
    namespace, so no run sees another's arguments."""
    parser = _Parser(prog="ctrlgap",
                     description="Gap solutions and critical bounds for "
                                 "box-constrained linear optimal control")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_flags(p, with_bound=True):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--system", choices=BUILTIN_NAMES, help="builtin instance")
        source.add_argument("--config", help="JSON configuration file")
        p.add_argument("--nodes", type=_nodes, default=2000,
                       help="Euler steps, at least 2 (default 2000)")
        if with_bound:
            p.add_argument("--bound", type=float, help="symmetric control bound a")
        p.add_argument("--out", default="out", help="output directory (default ./out)")

    p_gap = sub.add_parser("gap", help="best-approximation pair and gap vector")
    add_instance_flags(p_gap)
    p_gap.add_argument("--solver", choices=("newton", "fast"), default="newton",
                       help="accepted for older command lines: both names run the "
                            "one certified proximal Newton solver")
    p_gap.add_argument("--tol", type=float, default=1e-8,
                       help="bound on the certified relative duality gap "
                            "(gap - gap_lower) / gap (default 1e-8)")
    p_gap.add_argument("--max-iter", type=int, default=SolveOptions.max_iter,
                       help=f"cap on Newton steps; a solve it cuts exits 2 "
                            f"(default {SolveOptions.max_iter})")
    p_gap.add_argument("--oracle", action="store_true",
                       help=f"cross-check with exhaustive enumeration "
                            f"(at most {MAX_COORDS} control coordinates)")

    p_crit = sub.add_parser("critical", help="critical bound as a certified bracket")
    add_instance_flags(p_crit, with_bound=False)
    p_crit.add_argument("--tol-a", type=float, default=1e-8,
                        help=f"relative width of the certified bracket (default "
                             f"1e-8, at least {TOL_A_FLOOR:g})")

    p_ctrb = sub.add_parser("ctrb", help="controllability report")
    add_instance_flags(p_ctrb, with_bound=False)

    p_min = sub.add_parser("min-energy", help="minimum-norm feasible control "
                                              "(semismooth Newton on the dual)")
    add_instance_flags(p_min)
    p_min.add_argument("--tol", type=float, default=1e-10,
                       help="bound on the row-scaled affine residual (default 1e-10)")
    p_min.add_argument("--max-iter", type=int, default=200, help="Newton iterations")
    for p in (p_gap, p_crit, p_min):
        p.add_argument("--svg", action="store_true", help="also write figure.svg")

    p_an = sub.add_parser("analyze", help="switching structure of a saved trajectory")
    p_an.add_argument("--traj", required=True, help="trajectory.csv from a previous run")
    p_an.add_argument("--signal", choices=("v", "uA", "uB"), default="v")
    p_an.add_argument("--tau", type=float, help="dead band (default 1e-7 max |signal|)")
    p_an.add_argument("--min-len", type=float,
                      help="minimum singular-run duration (default 20 h)")
    p_an.add_argument("--out", default="out")

    sub.add_parser("systems", help="list builtin instances")
    return parser


def _load_instance(args: argparse.Namespace) -> ProblemInstance:
    if args.system is not None:
        return builtin_instance(args.system)
    path = Path(args.config)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return instance_from_config(doc)


def _resolve_bounds(args: argparse.Namespace, instance: ProblemInstance) -> Bounds:
    if args.bound is not None:
        return Bounds.symmetric(args.bound)
    if instance.bounds is not None:
        return instance.bounds
    raise ConfigError("no bounds given: pass --bound or put bound/bounds "
                      "in the config file")


class _Stages:
    """Calls a function and records its wall time under a stage name."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    def __call__(self, stage: str, fn, *args, **kwargs):
        t_start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.seconds[stage] = time.perf_counter() - t_start
        return result


def _symmetric_bound(bounds: Bounds) -> Optional[float]:
    """a when the box is |u| <= a with a scalar a, else None."""
    lo, hi = bounds.lower, bounds.upper
    return float(hi) if np.isscalar(lo) and np.isscalar(hi) and lo == -hi else None


def _write_csv(path: Path, header: list[str], columns: Sequence[np.ndarray]) -> None:
    """Write the columns under ``header``, each value as ``%.17g``: rows
    are encoded by ``csvtext.encode_rows`` and written ``CSV_BLOCK_ROWS``
    at a time, byte for byte what ``"%.17g" %`` gives for each value."""
    data = np.column_stack(columns)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        for start in range(0, data.shape[0], CSV_BLOCK_ROWS):
            fh.write(encode_rows(data[start:start + CSV_BLOCK_ROWS]))


def _write_trajectory(path: Path, grid: Grid, uA, uB, v) -> None:
    m = uA.shape[1]
    header = (["t"] + [f"uA_{i + 1}" for i in range(m)]
              + [f"uB_{i + 1}" for i in range(m)] + [f"v_{i + 1}" for i in range(m)])
    _write_csv(path, header, (grid.left_nodes, uA, uB, v))


def _write_states(path: Path, grid: Grid, states) -> None:
    n = states.shape[1]
    _write_csv(path, ["t"] + [f"x_{i + 1}" for i in range(n)], (grid.nodes, states))


def read_trajectory(path) -> tuple[Grid, dict[str, np.ndarray]]:
    """Read a trajectory.csv back into a grid and named column blocks.

    The header line names the columns; ``np.loadtxt`` parses the numeric
    rows.  The grid is rebuilt from the first two times.  A missing file or
    header, fewer than two rows, a row that does not parse or does not match
    the header, times off that grid by more than ``GRID_SLACK`` of a step
    (a non-finite time is off it), or no uA/uB/v column raise
    ``ConfigError``.
    """
    if not Path(path).is_file():
        raise ConfigError(f"trajectory file not found: {path}")
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header[0] != "t":
            raise ConfigError(f"{path} is not a trajectory CSV (missing header)")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data rows
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if data.shape[0] < 2:
        raise ConfigError(f"{path} holds fewer than two control rows")
    if data.shape[1] != len(header):
        raise ConfigError(f"{path} has {data.shape[1]} values per row "
                          f"but {len(header)} header columns")
    t = data[:, 0]
    h = t[1] - t[0]
    N = data.shape[0]
    grid = Grid(N=N, t0=float(t[0]), tf=float(t[0] + N * h))
    if not np.all(np.abs(t - (t[0] + h * np.arange(N))) <= GRID_SLACK * h):
        raise ConfigError(f"{path} has unevenly spaced times; the controls "
                          f"must sit on a uniform grid")
    blocks: dict[str, np.ndarray] = {}
    for name in ("uA", "uB", "v"):
        cols = [j for j, col in enumerate(header) if col.startswith(name + "_")]
        if cols:
            blocks[name] = data[:, cols]
    if not blocks:
        raise ConfigError(f"{path} has no uA/uB/v columns")
    return grid, blocks


def _emit(out_dir: Path, summary: dict, grid: Grid = None,
          curves: dict = None, states=None, svg: bool = False,
          title: str = "", stages: dict = None) -> None:
    """Write the run's files and ``summary`` without its None entries;
    a non-finite number in it raises ``ValueError``.  ``stages``, when
    given, gains the time spent writing the CSV and SVG files and goes
    into summary.json as ``stage_seconds``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()
    if curves is not None:
        _write_trajectory(out_dir / "trajectory.csv", grid,
                          curves["uA"], curves["uB"], curves["v"])
    if states is not None:
        _write_states(out_dir / "states.csv", grid, states)
    if svg and curves is not None:
        figures.write_svg(out_dir / "figure.svg", grid.left_nodes, curves, title)
    if stages is not None:
        stages["write"] = time.perf_counter() - t_start
        summary["stage_seconds"] = stages
    doc = {key: value for key, value in summary.items() if value is not None}
    for key, value in doc.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"summary field {key} is not finite: {value}")
    (out_dir / "summary.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _cmd_gap(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    bounds = _resolve_bounds(args, instance)
    grid = instance.system.grid(args.nodes)
    clock = _Stages()
    aff = clock("transcribe", build_affine, instance.system, grid, instance.boundary)
    result = clock("solve", solve_gap, aff, bounds,
                   SolveOptions(tol=args.tol, max_iter=args.max_iter))
    profile = extract_switchings(result.uB, grid, reference="control")
    states = clock("simulate", simulate, instance.system, grid,
                   instance.boundary.x0, result.uA)
    summary = {
        "command": "gap", "label": instance.label, "N": args.nodes,
        "a": _symmetric_bound(bounds), "gap_norm": result.gap_norm,
        "switch_times": profile.switch_times, "iterations": result.iterations,
        "converged": result.converged, "wall_time_seconds": clock.seconds["solve"],
        "solver": result.solver, "gap_lower": result.gap_lower,
        "finish": result.diagnostics["finish"],
        "coarse_iterations": result.diagnostics.get("coarse_iterations"),
        "terminal_error": float(np.linalg.norm(states.last - instance.boundary.xf))}
    if args.oracle:
        reference = brute_force_gap(aff, bounds)
        summary["oracle_objective"] = reference.diagnostics["objective"]
        summary["oracle_objective_diff"] = abs(
            reference.diagnostics["objective"] - 0.5 * result.gap_norm ** 2)
    _emit(Path(args.out), summary, grid,
          {"uA": result.uA.values, "uB": result.uB.values, "v": result.v.values},
          states.values, args.svg,
          title=f"{instance.label}: gap solve, N={args.nodes}", stages=clock.seconds)
    print(f"gap_norm={result.gap_norm:.9g} gap_lower={result.gap_lower:.9g} "
          f"iterations={result.iterations} converged={result.converged} "
          f"switch_times={profile.switch_times}")
    return 0 if result.converged else 2


def _cmd_critical(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    grid = instance.system.grid(args.nodes)
    clock = _Stages()
    aff = clock("transcribe", build_affine, instance.system, grid, instance.boundary)
    result = clock("solve", critical_bound, instance.system, grid, instance.boundary,
                   tol_a=args.tol_a, aff=aff)
    u = result.u_c
    states = clock("simulate", simulate, instance.system, grid, instance.boundary.x0, u)
    summary = {
        "command": "critical", "label": instance.label, "N": args.nodes,
        "a_c": result.a_c, "switch_times": result.switch_times,
        "iterations": sum(p.iterations for p in result.probes),
        "converged": result.converged, "wall_time_seconds": clock.seconds["solve"],
        "bracket_lo": result.bracket[0], "bracket_hi": result.bracket[1],
        "evaluations": len(result.probes), "affine_residual": result.stats.residual,
        "terminal_error": float(np.linalg.norm(states.last - instance.boundary.xf))}
    _emit(Path(args.out), summary, grid,
          {"uA": u.values, "uB": u.values, "v": np.zeros_like(u.values)},
          states.values, args.svg,
          title=f"{instance.label}: critical bound, N={args.nodes}", stages=clock.seconds)
    print(f"a_c={result.a_c:.9g} bracket=({result.bracket[0]:.9g}, "
          f"{result.bracket[1]:.9g}) evaluations={len(result.probes)} "
          f"converged={result.converged} switch_times={result.switch_times}")
    return 0 if result.converged else 2


def _cmd_ctrb(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    system = instance.system
    if not system.is_lti:
        raise ConfigError("the ctrb command handles constant-matrix systems")
    full = kalman_rank(system.A, system.B)
    columns = [kalman_rank(system.A, np.asarray(system.B)[:, i])
               for i in range(system.m)]
    grid = system.grid(args.nodes)
    gram = gramian_report(build_affine(system, grid, instance.boundary))
    rows = [("kalman (full B)", full), ("gramian (grid)", gram)]
    rows[1:1] = [(f"kalman (column {i + 1})", rep) for i, rep in enumerate(columns)]
    width = max(len(name) for name, _ in rows)
    for name, rep in rows:
        verdict = "controllable" if rep.controllable else (
            "inconclusive" if rep.inconclusive else "NOT controllable")
        print(f"{name:<{width}}  rank {rep.rank}/{rep.required}  "
              f"cond {rep.conditioning:.3e}  {verdict}")
    _emit(Path(args.out), {
        "command": "ctrb", "label": instance.label, "N": args.nodes,
        "converged": True, "wall_time_seconds": 0.0,
        "rank": full.rank, "required": full.required,
        "controllable": full.controllable, "conditioning": full.conditioning,
        "column_ranks": [rep.rank for rep in columns],
        "gramian_rank": gram.rank, "gramian_conditioning": gram.conditioning})
    return 0


def _cmd_min_energy(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    bounds = _resolve_bounds(args, instance)
    grid = instance.system.grid(args.nodes)
    clock = _Stages()
    aff = clock("transcribe", build_affine, instance.system, grid, instance.boundary)
    u, stats = clock("solve", dykstra_min_energy, aff, bounds, tol=args.tol,
                     max_iter=args.max_iter)
    states = clock("simulate", simulate, instance.system, grid, instance.boundary.x0, u)
    summary = {
        "command": "min-energy", "label": instance.label, "N": args.nodes,
        "a": _symmetric_bound(bounds), "gap_norm": 0.0, "iterations": stats.iterations,
        "converged": stats.converged, "wall_time_seconds": clock.seconds["solve"],
        "norm": l2_norm(u), "energy": 0.5 * l2_norm(u) ** 2,
        "affine_residual": stats.residual,
        "terminal_error": float(np.linalg.norm(states.last - instance.boundary.xf))}
    _emit(Path(args.out), summary, grid,
          {"uA": u.values, "uB": u.values, "v": np.zeros_like(u.values)},
          states.values, args.svg,
          title=f"{instance.label}: minimum-energy control, N={args.nodes}",
          stages=clock.seconds)
    print(f"norm={l2_norm(u):.9g} iterations={stats.iterations} "
          f"converged={stats.converged}")
    return 0 if stats.converged else 2


def _cmd_analyze(args: argparse.Namespace) -> int:
    grid, blocks = read_trajectory(args.traj)
    if args.signal not in blocks:
        raise ConfigError(f"trajectory has no {args.signal} columns")
    sig = ControlTrajectory(values=blocks[args.signal], grid=grid)
    profile = extract_switchings(sig, grid, tau=args.tau, min_len=args.min_len,
                                 reference=args.signal)
    for i, ch in enumerate(profile.channels):
        print(f"channel {i + 1}: {len(ch.switch_times)} switchings "
              f"{[round(t, 6) for t in ch.switch_times]} signs={list(ch.signs)} "
              f"singular={list(ch.singular_intervals)}")
    _emit(Path(args.out), {
        "command": "analyze", "label": str(args.traj), "N": grid.N,
        "switch_times": profile.switch_times, "converged": True,
        "wall_time_seconds": 0.0, "signal": args.signal, "tau": profile.tau,
        "min_len": profile.min_len,
        "singular_intervals": [list(map(float, iv)) for ch in profile.channels
                               for iv in ch.singular_intervals]})
    return 0


def _cmd_systems(_args: argparse.Namespace) -> int:
    for name in BUILTIN_NAMES:
        inst = builtin_instance(name)
        sys_ = inst.system
        print(f"{name}: n={sys_.n} m={sys_.m} horizon=[{sys_.t0:g}, {sys_.tf:g}] "
              f"x0={inst.boundary.x0.tolist()} xf={inst.boundary.xf.tolist()}")
    return 0


_COMMANDS = {
    "gap": _cmd_gap,
    "critical": _cmd_critical,
    "ctrb": _cmd_ctrb,
    "min-energy": _cmd_min_energy,
    "analyze": _cmd_analyze,
    "systems": _cmd_systems,
}


def run(argv: Sequence[str]) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, CtrlGapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
