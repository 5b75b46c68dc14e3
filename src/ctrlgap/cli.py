"""Command-line interface: gap solves, critical bounds, controllability
reports, feasible minimum-energy solves, trajectory analysis.

Every run writes a ``summary.json`` record.  ``gap``, ``critical`` and
``min-energy`` also write ``trajectory.csv`` (control curves at left node
times), ``run.npz`` (the states) and with ``--svg`` ``figure.svg``.
``run.npz`` is an uncompressed ``np.savez`` of ``t``, the N + 1 node
times, and ``x``, the simulated states, so that after
``run = np.load("out/run.npz")`` row k of ``run["x"]`` is the state at
``run["t"][k]``, bit for bit as computed; it replaces the ``states.csv``
text file of earlier versions.  ``trajectory.csv`` holds every value as
its ``%.17g`` text, so ``read_trajectory`` gets the same doubles back; the
vectorised encoder in ``csvtext`` writes exactly the bytes that Python's
``%`` formatting gives.  It is written over blocks of rows:
``csvtext.encode_slots`` gives each distinct value array of a block its
text once (uB passed as the same array as uA reuses uA's slots, and an
all-zero v is one slot for the run), and ``csvtext.gather`` lays out the
block's rows from those slots.  Each command takes the argparse namespace
as parsed and builds its summary as a plain dict; ``_emit`` leaves out
None entries and rejects a non-finite number before writing any file.
Exit codes: 0 converged (for ``critical``: the certified bracket reached
``--tol-a``), 2 unconverged, 1 usage or configuration error, a file that
cannot be read or written, a ``gap --oracle`` enumeration whose gap lies
outside the certified interval, or any other ``CtrlGapError``: a box
certified disjoint from the boundary-value set in ``min-energy``
(``min-energy --system machine_tool --nodes 1000 --bound 1700``), a grid
on which the system is uncontrollable, an unstable Euler step, or a_c = 0
in ``critical``.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .csvtext import encode_slots, gather
from .discretize import AffineData, ControlTrajectory, build_affine, l2_norm, simulate
from .errors import ConfigError, ConsistencyError, CtrlGapError, UncontrollableGridError
from .gapsolve import MAX_ITER, feasible_floor, solve_gap
from .model import (BUILTIN_NAMES, Bounds, Grid, ProblemInstance,
                    builtin_instance, instance_from_config)
from .oracle import MAX_COORDS, brute_force_gap
from .project import NEWTON_MAX_ITER, dykstra_min_energy

# At most this many values are encoded per call when writing trajectory.csv.
# A few thousand keep the encoder's fixed cost per call, that of about a
# thousand values, small and its scratch arrays near 1 MB, and the whole
# file's text is never in memory.
CSV_BLOCK_VALUES = 8192
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
        p.add_argument("--out", default="out",
                       help="output directory (default ./out): summary.json, and "
                            "from gap, critical and min-energy trajectory.csv "
                            "and run.npz")

    p_gap = sub.add_parser("gap", help="best-approximation pair and gap vector")
    add_instance_flags(p_gap)
    p_gap.add_argument("--solver", choices=("newton", "fast"), default="newton",
                       help="accepted for older command lines: both names run the "
                            "one certified gap solver")
    p_gap.add_argument("--tol", type=float, default=1e-8,
                       help="bound on the certified relative duality gap "
                            "(gap - gap_lower) / gap (default 1e-8)")
    p_gap.add_argument("--max-iter", type=int, default=MAX_ITER,
                       help="cap on exchange pivots and descent steps; a solve it cuts "
                            "exits 2 (default %(default)s)")
    p_gap.add_argument("--oracle", action="store_true",
                       help=f"cross-check with exhaustive enumeration "
                            f"(at most {MAX_COORDS} control coordinates)")

    p_crit = sub.add_parser("critical", help="critical bound as a certified bracket")
    add_instance_flags(p_crit, with_bound=False)
    p_crit.add_argument("--tol-a", type=float, default=1e-8,
                        help=f"relative width the certified bracket must reach to "
                             f"exit 0 (default 1e-8, at least {TOL_A_FLOOR:g})")

    p_ctrb = sub.add_parser("ctrb", help="controllability report")
    add_instance_flags(p_ctrb, with_bound=False)

    p_min = sub.add_parser("min-energy", help="minimum-norm feasible control "
                                              "(semismooth Newton on the dual)")
    add_instance_flags(p_min)
    p_min.add_argument("--tol", type=float, default=1e-10,
                       help="bound on the row-scaled affine residual (default 1e-10)")
    p_min.add_argument("--max-iter", type=int, default=NEWTON_MAX_ITER,
                       help="cap on Newton iterates, the start iterate included; a "
                            "solve it cuts exits 2 (default %(default)s)")
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


def _transcribe(instance: ProblemInstance, grid: Grid) -> AffineData:
    """``build_affine`` with ``basis``, the QR of G^T that every solve
    reads, formed here rather than on its first use in the solve.  A grid
    that is not controllable is left for the solve to report."""
    aff = build_affine(instance.system, grid, instance.boundary)
    with contextlib.suppress(UncontrollableGridError):
        aff.basis
    return aff


def _symmetric_bound(bounds: Bounds) -> Optional[float]:
    """a when the box is |u| <= a with a scalar a, else None."""
    lo, hi = bounds.lower, bounds.upper
    return float(hi) if np.isscalar(lo) and np.isscalar(hi) and lo == -hi else None


def _write_trajectory(out_dir: Path, grid: Grid, curves: dict) -> None:
    """Write ``trajectory.csv``, the times and ``curves`` at the N left
    nodes, over blocks of rows, byte for byte what ``"%.17g" %`` gives for
    each value.

    The rows are split into the fewest equal blocks of at most
    ``CSV_BLOCK_VALUES`` values each, so no short last block costs an
    encoder call of its own.  Each block makes one ``csvtext.encode_slots``
    call over its distinct values only: a curve passed as the same array as
    an earlier one reuses its slots, and an all-zero array, tested by bit
    pattern so that -0.0 is not one, reads one slot encoded once for the
    whole run.  ``csvtext.gather`` then lays out the block's rows."""
    sources: list[np.ndarray] = []  # the distinct arrays that vary by row
    known: dict[int, int] = {}
    ZERO = -1  # the source of a column that reads the zero slot, kept last

    def refs(arr: np.ndarray) -> list[tuple[int, int]]:
        """(source, column) of each column of ``arr``."""
        if not arr.view(np.uint64).any():
            return [(ZERO, 0)] * arr.shape[1]
        if id(arr) not in known:
            known[id(arr)] = len(sources)
            sources.append(arr)
        return [(known[id(arr)], j) for j in range(arr.shape[1])]

    m = curves["uA"].shape[1]
    header = ["t"] + [f"{name}_{i + 1}" for name in ("uA", "uB", "v") for i in range(m)]
    source, col = np.array(refs(grid.left_nodes.reshape(-1, 1)) + refs(curves["uA"])
                           + refs(curves["uB"]) + refs(curves["v"])).T
    widths = [arr.shape[1] for arr in sources]
    blocks = math.ceil(grid.N * sum(widths) / CSV_BLOCK_VALUES)
    rows = -(-grid.N // blocks)
    slots = np.empty((rows * sum(widths) + 1, 4), dtype="<u8")  # zero slot last
    step = np.append(widths, 0)[source]
    # the zero slot is encoded with the first block, in no call of its own
    zero = [np.zeros(1)] if np.any(source == ZERO) else []
    with open(out_dir / "trajectory.csv", "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        for r0 in range(0, grid.N, rows):
            parts = [arr[r0:r0 + rows].reshape(-1) for arr in sources]
            starts = np.cumsum([0] + [part.size for part in parts])
            encode_slots(np.concatenate(parts + zero), out=slots[:starts[-1] + len(zero)])
            if zero:
                slots[ZERO] = slots[starts[-1]]
                zero = []
            starts[ZERO] = len(slots) - 1
            block = np.arange(min(rows, grid.N - r0))
            fh.write(gather(slots, starts[source] + col + block[:, None] * step))


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
    """Write the run's files and ``summary`` without its None entries.  A
    non-finite number in ``summary`` raises ``ValueError`` before any file
    is written.  With ``curves``, the run files are ``trajectory.csv`` and
    ``run.npz``, ``np.savez`` of ``t`` (the N + 1 node times) and ``x``
    (``states`` at them), and with ``svg`` ``figure.svg``.  ``stages``,
    when given, gains the time spent writing them and goes into
    summary.json as ``stage_seconds``."""
    doc = {key: value for key, value in summary.items() if value is not None}
    for key, value in doc.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"summary field {key} is not finite: {value}")
    out_dir.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()
    if curves is not None:
        _write_trajectory(out_dir, grid, curves)
        np.savez(out_dir / "run.npz", t=grid.nodes, x=states)
        if svg:
            figures.write_svg(out_dir / "figure.svg", grid.left_nodes, curves, title)
    if stages is not None:
        stages["write"] = time.perf_counter() - t_start
        doc["stage_seconds"] = stages
    (out_dir / "summary.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _cmd_gap(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    bounds = _resolve_bounds(args, instance)
    grid = instance.system.grid(args.nodes)
    clock = _Stages()
    aff = clock("transcribe", _transcribe, instance, grid)
    result = clock("solve", solve_gap, aff, bounds, tol=args.tol, max_iter=args.max_iter)
    profile = extract_switchings(result.uB)
    states = clock("simulate", simulate, instance.system, instance.boundary.x0, result.uA)
    summary = {
        "command": "gap", "label": instance.label, "N": args.nodes,
        "a": _symmetric_bound(bounds), "gap_norm": result.gap_norm,
        "switch_times": profile.switch_times, "iterations": result.iterations,
        "converged": result.converged, "wall_time_seconds": clock.seconds["solve"],
        "gap_lower": result.gap_lower,
        "finish": result.diagnostics["finish"], "stop": result.diagnostics["stop"],
        "terminal_error": float(np.linalg.norm(states[-1] - instance.boundary.xf))}
    if args.oracle:
        reference = brute_force_gap(aff, bounds)
        summary["oracle_objective"] = reference.diagnostics["objective"]
        summary["oracle_objective_diff"] = abs(
            reference.diagnostics["objective"] - 0.5 * result.gap_norm ** 2)
        # the enumeration solves through W: widen by the floor at the default --tol
        slack = feasible_floor(aff, 1e-8)
        if not result.gap_lower - slack <= reference.gap_norm <= result.gap_norm + slack:
            raise ConsistencyError(
                f"the enumerated gap {reference.gap_norm!r} lies outside the certified "
                f"interval [{result.gap_lower!r}, {result.gap_norm!r}] widened by {slack:.3g}")
    _emit(Path(args.out), summary, grid,
          {"uA": result.uA.values, "uB": result.uB.values, "v": result.v.values},
          states, args.svg,
          title=f"{instance.label}: gap solve, N={args.nodes}", stages=clock.seconds)
    print(f"gap_norm={result.gap_norm:.9g} gap_lower={result.gap_lower:.9g} "
          f"iterations={result.iterations} converged={result.converged} "
          f"switch_times={profile.switch_times}")
    return 0 if result.converged else 2


def _cmd_critical(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    grid = instance.system.grid(args.nodes)
    clock = _Stages()
    aff = clock("transcribe", _transcribe, instance, grid)
    result = clock("solve", critical_bound, aff, tol_a=args.tol_a)
    u = result.u_c
    profile = extract_switchings(u)
    states = clock("simulate", simulate, instance.system, instance.boundary.x0, u)
    summary = {
        "command": "critical", "label": instance.label, "N": args.nodes,
        "a_c": result.a_c, "switch_times": profile.switch_times,
        "iterations": result.probes[0].iterations,
        "converged": result.converged, "wall_time_seconds": clock.seconds["solve"],
        "bracket_lo": result.bracket[0], "bracket_hi": result.bracket[1],
        "affine_residual": aff.residual(u.flat),
        "terminal_error": float(np.linalg.norm(states[-1] - instance.boundary.xf))}
    _emit(Path(args.out), summary, grid,
          {"uA": u.values, "uB": u.values, "v": np.zeros_like(u.values)},
          states, args.svg,
          title=f"{instance.label}: critical bound, N={args.nodes}", stages=clock.seconds)
    print(f"a_c={result.a_c:.9g} bracket=({result.bracket[0]:.9g}, "
          f"{result.bracket[1]:.9g}) converged={result.converged} "
          f"switch_times={profile.switch_times}")
    return 0 if result.converged else 2


def _cmd_ctrb(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    system = instance.system
    full = kalman_rank(system.A, system.B)
    columns = [kalman_rank(system.A, system.B[:, i])
               for i in range(system.m)]
    grid = system.grid(args.nodes)
    gram = gramian_report(build_affine(system, grid, instance.boundary))
    rows = [("kalman (full B)", full), ("gramian (grid)", gram)]
    rows[1:1] = [(f"kalman (column {i + 1})", rep) for i, rep in enumerate(columns)]
    width = max(len(name) for name, _ in rows)
    for name, rep in rows:
        verdict = "controllable" if rep.controllable else "NOT controllable"
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
    aff = clock("transcribe", _transcribe, instance, grid)
    u, stats = clock("solve", dykstra_min_energy, aff, bounds, tol=args.tol,
                     max_iter=args.max_iter)
    states = clock("simulate", simulate, instance.system, instance.boundary.x0, u)
    summary = {
        "command": "min-energy", "label": instance.label, "N": args.nodes,
        "a": _symmetric_bound(bounds), "gap_norm": 0.0, "iterations": stats.iterations,
        "converged": stats.converged, "wall_time_seconds": clock.seconds["solve"],
        "norm": l2_norm(u), "energy": 0.5 * l2_norm(u) ** 2,
        "affine_residual": aff.residual(u.flat),
        "terminal_error": float(np.linalg.norm(states[-1] - instance.boundary.xf))}
    _emit(Path(args.out), summary, grid,
          {"uA": u.values, "uB": u.values, "v": np.zeros_like(u.values)},
          states, args.svg,
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
    profile = extract_switchings(sig, tau=args.tau, min_len=args.min_len)
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
    except (ConfigError, CtrlGapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
