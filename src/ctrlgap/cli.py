"""Command-line interface: gap solves, critical bounds, controllability
reports, feasible minimum-energy solves, trajectory analysis.

Every run writes ``trajectory.csv`` (control curves at left node times),
``states.csv`` (simulated states on all nodes), a ``summary.json`` record,
and optionally ``figure.svg``.  Exit codes: 0 converged, 2 unconverged
(for ``critical`` also when the certified bracket did not reach
``--tol-a``), 1 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import figures
from .analyze import extract_switchings
from .controllability import gramian_report, kalman_rank
from .critical import CriticalOptions, critical_bound
from .discretize import ControlTrajectory, build_affine, l2_norm, simulate
from .errors import ConfigError, CtrlGapError
from .gapsolve import SOLVERS, SolveOptions, solve_gap
from .model import (BUILTIN_NAMES, Bounds, Grid, ProblemInstance,
                    builtin_instance, instance_from_config)
from .oracle import MAX_COORDS, brute_force_gap
from .project import dykstra_min_energy

FLOAT_FMT = "%.17g"
# Rows formatted per write when saving a CSV file: as fast as larger blocks,
# without holding the whole file's text in memory.
CSV_BLOCK_ROWS = 256


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as ConfigError so the
    process can exit with code 1 instead of argparse's default 2."""

    def error(self, message):
        raise ConfigError(message)


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation of one subcommand."""

    command: str
    system: Optional[str] = None
    config: Optional[str] = None
    nodes: int = 2000
    bound: Optional[float] = None
    solver: str = "map"
    tol: float = 1e-8
    tol_a: float = 1e-4
    max_iter: int = 2_000_000
    out: str = "out"
    svg: bool = False
    oracle: bool = False
    traj: Optional[str] = None
    signal: str = "v"
    tau: Optional[float] = None
    min_len: Optional[float] = None

    def __post_init__(self):
        if self.command in ("gap", "critical", "ctrb", "min-energy") and self.nodes < 2:
            raise ConfigError(f"--nodes must be at least 2, got {self.nodes}")
        sources = sum(x is not None for x in (self.system, self.config))
        if self.command in ("gap", "critical", "ctrb", "min-energy") and sources != 1:
            raise ConfigError("give exactly one instance source: "
                              "--system NAME or --config PATH")


@dataclass
class SummaryRecord:
    """Flat, JSON-compatible record of one run."""

    command: str
    label: str
    N: Optional[int] = None
    a: Optional[float] = None
    gap_norm: Optional[float] = None
    a_c: Optional[float] = None
    switch_times: Optional[list] = None
    iterations: Optional[int] = None
    converged: Optional[bool] = None
    wall_time_seconds: Optional[float] = None
    extras: Optional[dict] = None

    def to_json(self) -> dict:
        doc = {k: v for k, v in self.__dict__.items()
               if k != "extras" and v is not None}
        if self.extras:
            doc.update(self.extras)
        for key, value in doc.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"summary field {key} is not finite: {value}")
        return doc


def _build_parser() -> _Parser:
    parser = _Parser(prog="ctrlgap",
                     description="Gap solutions and critical bounds for "
                                 "box-constrained linear optimal control")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_flags(p, with_bound=True):
        p.add_argument("--system", choices=BUILTIN_NAMES, help="builtin instance")
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--nodes", type=int, default=2000, help="Euler steps (default 2000)")
        if with_bound:
            p.add_argument("--bound", type=float, help="symmetric control bound a")
        p.add_argument("--out", default="out", help="output directory (default ./out)")
        p.add_argument("--svg", action="store_true", help="also write figure.svg")

    p_gap = sub.add_parser("gap", help="best-approximation pair and gap vector")
    add_instance_flags(p_gap)
    p_gap.add_argument("--solver", choices=SOLVERS, default="map")
    p_gap.add_argument("--tol", type=float, default=1e-8,
                       help="stop when the gap vector changes by less (default 1e-8)")
    p_gap.add_argument("--max-iter", type=int, default=2_000_000)
    p_gap.add_argument("--oracle", action="store_true",
                       help=f"cross-check with exhaustive enumeration "
                            f"(at most {MAX_COORDS} control coordinates)")

    p_crit = sub.add_parser("critical", help="critical bound as a certified bracket")
    add_instance_flags(p_crit, with_bound=False)
    p_crit.add_argument("--solver", choices=SOLVERS, default="fast")
    p_crit.add_argument("--tol", type=float, default=1e-9,
                        help="gap-solver tolerance for each probe (default 1e-9)")
    p_crit.add_argument("--tol-a", type=float, default=1e-4,
                        help="relative bracket width (default 1e-4)")
    p_crit.add_argument("--max-iter", type=int, default=2_000_000)

    p_ctrb = sub.add_parser("ctrb", help="controllability report")
    add_instance_flags(p_ctrb, with_bound=False)

    p_min = sub.add_parser("min-energy", help="minimum-norm feasible control "
                                              "(semismooth Newton on the dual)")
    add_instance_flags(p_min)
    p_min.add_argument("--tol", type=float, default=1e-10,
                       help="bound on the row-scaled affine residual (default 1e-10)")
    p_min.add_argument("--max-iter", type=int, default=200, help="Newton iterations")

    p_an = sub.add_parser("analyze", help="switching structure of a saved trajectory")
    p_an.add_argument("--traj", required=True, help="trajectory.csv from a previous run")
    p_an.add_argument("--signal", choices=("v", "uA", "uB"), default="v")
    p_an.add_argument("--tau", type=float, help="dead band (default 1e-7 max |signal|)")
    p_an.add_argument("--min-len", type=float,
                      help="minimum singular-run duration (default 20 h)")
    p_an.add_argument("--out", default="out")
    p_an.add_argument("--svg", action="store_true")

    sub.add_parser("systems", help="list builtin instances")
    return parser


def _load_instance(cfg: RunConfig) -> ProblemInstance:
    if cfg.system is not None:
        return builtin_instance(cfg.system)
    path = Path(cfg.config)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return instance_from_config(doc)


def _resolve_bounds(cfg: RunConfig, instance: ProblemInstance) -> Bounds:
    if cfg.bound is not None:
        return Bounds.symmetric(cfg.bound)
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
    """Write the columns under ``header``, each value as ``%.17g``;
    rows are formatted and written ``CSV_BLOCK_ROWS`` at a time."""
    data = np.column_stack(columns)
    row = ",".join([FLOAT_FMT] * data.shape[1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, data.shape[0], CSV_BLOCK_ROWS):
            block = data[start:start + CSV_BLOCK_ROWS]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


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
    rows.  A missing file or header, fewer than two rows, a row that does not
    parse or does not match the header, or no uA/uB/v column raise
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
    blocks: dict[str, np.ndarray] = {}
    for name in ("uA", "uB", "v"):
        cols = [j for j, col in enumerate(header) if col.startswith(name + "_")]
        if cols:
            blocks[name] = data[:, cols]
    if not blocks:
        raise ConfigError(f"{path} has no uA/uB/v columns")
    return grid, blocks


def _emit(out_dir: Path, record: SummaryRecord, grid: Grid = None,
          curves: dict = None, states=None, svg: bool = False,
          title: str = "", stages: dict = None) -> None:
    """Write the run's files.  ``stages``, when given, gains the time
    spent writing the CSV and SVG files and goes into summary.json as
    ``stage_seconds``."""
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
        record.extras = {**(record.extras or {}), "stage_seconds": stages}
    (out_dir / "summary.json").write_text(
        json.dumps(record.to_json(), indent=2, sort_keys=True) + "\n")


def _cmd_gap(cfg: RunConfig) -> int:
    instance = _load_instance(cfg)
    bounds = _resolve_bounds(cfg, instance)
    grid = instance.system.grid(cfg.nodes)
    clock = _Stages()
    aff = clock("transcribe", build_affine, instance.system, grid, instance.boundary)
    result = clock("solve", solve_gap, aff, bounds, SolveOptions(
        tol=cfg.tol, max_iter=cfg.max_iter, solver=cfg.solver,
        progress_every=200_000))
    profile = extract_switchings(result.uB, grid, reference="control")
    states = clock("simulate", simulate, instance.system, grid,
                   instance.boundary.x0, result.uA)
    extras = {"solver": result.solver,
              "terminal_error": float(np.linalg.norm(states.last - instance.boundary.xf))}
    if result.drift_norm is not None:
        extras["drift_norm"] = result.drift_norm
    if cfg.oracle:
        reference = brute_force_gap(aff, bounds)
        extras["oracle_objective"] = reference.diagnostics["objective"]
        extras["oracle_objective_diff"] = abs(
            reference.diagnostics["objective"] - 0.5 * result.gap_norm ** 2)
    record = SummaryRecord(
        command="gap", label=instance.label, N=cfg.nodes,
        a=_symmetric_bound(bounds), gap_norm=result.gap_norm,
        switch_times=profile.switch_times, iterations=result.iterations,
        converged=result.converged, wall_time_seconds=clock.seconds["solve"],
        extras=extras)
    _emit(Path(cfg.out), record, grid,
          {"uA": result.uA.values, "uB": result.uB.values, "v": result.v.values},
          states.values, cfg.svg,
          title=f"{instance.label}: gap solve, N={cfg.nodes}", stages=clock.seconds)
    print(f"gap_norm={result.gap_norm:.9g} iterations={result.iterations} "
          f"converged={result.converged} switch_times={profile.switch_times}")
    return 0 if result.converged else 2


def _cmd_critical(cfg: RunConfig) -> int:
    instance = _load_instance(cfg)
    grid = instance.system.grid(cfg.nodes)
    clock = _Stages()
    aff = clock("transcribe", build_affine, instance.system, grid, instance.boundary)
    result = clock("solve", critical_bound, instance.system, grid, instance.boundary,
                   CriticalOptions(tol_a=cfg.tol_a, solver=cfg.solver,
                                   gap_tol=cfg.tol, max_iter=cfg.max_iter), aff=aff)
    uA = result.final.uA
    v = result.final.v.values
    states = clock("simulate", simulate, instance.system, grid, instance.boundary.x0, uA)
    converged = result.converged and result.final.converged
    record = SummaryRecord(
        command="critical", label=instance.label, N=cfg.nodes,
        a_c=result.a_c, gap_norm=result.final.gap_norm,
        switch_times=result.switch_times,
        iterations=sum(p.iterations for p in result.probes),
        converged=converged, wall_time_seconds=clock.seconds["solve"],
        extras={"bracket_lo": result.bracket[0], "bracket_hi": result.bracket[1],
                "evaluations": len(result.probes)})
    _emit(Path(cfg.out), record, grid,
          {"uA": uA.values, "uB": result.u_c.values, "v": v},
          states.values, cfg.svg,
          title=f"{instance.label}: critical bound, N={cfg.nodes}", stages=clock.seconds)
    print(f"a_c={result.a_c:.9g} bracket=({result.bracket[0]:.9g}, "
          f"{result.bracket[1]:.9g}) evaluations={len(result.probes)} "
          f"converged={converged} switch_times={result.switch_times}")
    return 0 if converged else 2


def _cmd_ctrb(cfg: RunConfig) -> int:
    instance = _load_instance(cfg)
    system = instance.system
    if not system.is_lti:
        raise ConfigError("the ctrb command handles constant-matrix systems")
    full = kalman_rank(system.A, system.B)
    columns = [kalman_rank(system.A, np.asarray(system.B)[:, i])
               for i in range(system.m)]
    grid = system.grid(cfg.nodes)
    gram = gramian_report(build_affine(system, grid, instance.boundary))
    rows = [("kalman (full B)", full), ("gramian (grid)", gram)]
    rows[1:1] = [(f"kalman (column {i + 1})", rep) for i, rep in enumerate(columns)]
    width = max(len(name) for name, _ in rows)
    for name, rep in rows:
        verdict = "controllable" if rep.controllable else (
            "inconclusive" if rep.inconclusive else "NOT controllable")
        print(f"{name:<{width}}  rank {rep.rank}/{rep.required}  "
              f"cond {rep.conditioning:.3e}  {verdict}")
    record = SummaryRecord(
        command="ctrb", label=instance.label, N=cfg.nodes,
        converged=True, wall_time_seconds=0.0,
        extras={"rank": full.rank, "required": full.required,
                "controllable": full.controllable,
                "conditioning": full.conditioning,
                "column_ranks": [rep.rank for rep in columns],
                "gramian_rank": gram.rank,
                "gramian_conditioning": gram.conditioning})
    _emit(Path(cfg.out), record)
    return 0


def _cmd_min_energy(cfg: RunConfig) -> int:
    instance = _load_instance(cfg)
    bounds = _resolve_bounds(cfg, instance)
    grid = instance.system.grid(cfg.nodes)
    clock = _Stages()
    aff = clock("transcribe", build_affine, instance.system, grid, instance.boundary)
    u, stats = clock("solve", dykstra_min_energy, aff, bounds, tol=cfg.tol,
                     max_iter=cfg.max_iter)
    states = clock("simulate", simulate, instance.system, grid, instance.boundary.x0, u)
    zeros = np.zeros_like(u.values)
    record = SummaryRecord(
        command="min-energy", label=instance.label, N=cfg.nodes, a=_symmetric_bound(bounds),
        gap_norm=0.0, iterations=stats.iterations, converged=stats.converged,
        wall_time_seconds=clock.seconds["solve"],
        extras={"norm": l2_norm(u), "energy": 0.5 * l2_norm(u) ** 2,
                "affine_residual": stats.residual,
                "terminal_error": float(np.linalg.norm(states.last - instance.boundary.xf))})
    _emit(Path(cfg.out), record, grid,
          {"uA": u.values, "uB": u.values, "v": zeros}, states.values, cfg.svg,
          title=f"{instance.label}: minimum-energy control, N={cfg.nodes}",
          stages=clock.seconds)
    print(f"norm={l2_norm(u):.9g} iterations={stats.iterations} "
          f"converged={stats.converged}")
    return 0 if stats.converged else 2


def _cmd_analyze(cfg: RunConfig) -> int:
    grid, blocks = read_trajectory(cfg.traj)
    if cfg.signal not in blocks:
        raise ConfigError(f"trajectory has no {cfg.signal} columns")
    sig = ControlTrajectory(values=blocks[cfg.signal], grid=grid)
    profile = extract_switchings(sig, grid, tau=cfg.tau, min_len=cfg.min_len,
                                 reference=cfg.signal)
    for i, ch in enumerate(profile.channels):
        print(f"channel {i + 1}: {len(ch.switch_times)} switchings "
              f"{[round(t, 6) for t in ch.switch_times]} signs={list(ch.signs)} "
              f"singular={list(ch.singular_intervals)}")
    record = SummaryRecord(
        command="analyze", label=str(cfg.traj), N=grid.N,
        switch_times=profile.switch_times, converged=True,
        wall_time_seconds=0.0,
        extras={"signal": cfg.signal, "tau": profile.tau,
                "min_len": profile.min_len,
                "singular_intervals": [list(map(float, iv))
                                       for ch in profile.channels
                                       for iv in ch.singular_intervals]})
    _emit(Path(cfg.out), record)
    return 0


def _cmd_systems(_cfg: RunConfig) -> int:
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
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        kwargs = {k: v for k, v in vars(ns).items() if v is not None}
        cfg = RunConfig(**kwargs)
        return _COMMANDS[cfg.command](cfg)
    except (ConfigError, CtrlGapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
