"""The benchmark's workloads and the checks of their answers.

Every operation is a CLI invocation that a user could type.  Each workload
is built so that one group of layers does most of its work and the others
little (README.md has the reasoning and the predictions).  Every workload
runs each kind of operation at least once, so that every metric is measured
on every workload; the smaller companion operations are marked below.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Relative tolerance on gap_norm and on the minimum-energy norm: the same
# relative accuracy that the CLI's critical-bound search promises by default
# (--tol-a 1e-4).
ANSWER_RTOL = 1e-4

# An operation whose terminal state misses xf by more than this share of
# (1 + |xf|) has not steered the system; it is the feasibility scale that
# Dykstra itself accepts (1e-6 (1 + |xi|)).
TERMINAL_RTOL = 1e-6

# Node count used by the tests to run every workload in a fraction of a
# second; references exist for it as well.
TINY_NODES = 200

KINDS = ("gap", "critical", "min-energy", "analyze")


@dataclass(frozen=True)
class Op:
    """One CLI operation.  ``source`` names the gap operation whose
    trajectory an ``analyze`` operation reads.  A short operation runs
    ``repeat`` times in a row in each pass, so that its median rests on
    as many samples as the long operations' medians do."""

    name: str
    kind: str
    system: Optional[str] = None
    nodes: Optional[int] = None
    bound: Optional[float] = None
    flags: tuple = ()
    source: Optional[str] = None
    repeat: int = 1

    def argv(self, out_dir: str, traj: Optional[str] = None) -> list[str]:
        args = [self.kind]
        if self.kind == "analyze":
            args += ["--traj", traj]
        else:
            args += ["--system", self.system, "--nodes", str(self.nodes)]
            if self.bound is not None:
                args += ["--bound", f"{self.bound:g}"]
        return args + list(self.flags) + ["--out", out_dir]


def _analyze(source: str, repeat: int) -> Op:
    # --signal uB: the gap run reports the switch times of uB, so the
    # analysis of the saved trajectory must reproduce them exactly.
    return Op(name=f"analyze:{source}", kind="analyze", flags=("--signal", "uB"),
              source=source, repeat=repeat)


WORKLOADS: dict[str, tuple[Op, ...]] = {
    # Transcription, simulate and CSV I/O: long vectors, few iterations.
    "fine_grid": (
        Op("gap:double_integrator", "gap", "double_integrator", 50_000, 1.0),
        _analyze("gap:double_integrator", repeat=2),
        Op("min-energy:damped_oscillator", "min-energy", "damped_oscillator", 50_000, 1.0),
        Op("critical:double_integrator", "critical", "double_integrator", 1_000),  # companion
    ),
    # Solver iterations times critical-bound probes on short vectors.
    "critical_small": (
        Op("critical:double_integrator", "critical", "double_integrator", 1_000),
        Op("critical:damped_oscillator", "critical", "damped_oscillator", 1_000, repeat=2),
        Op("critical:machine_tool", "critical", "machine_tool", 1_000),
        Op("gap:machine_tool", "gap", "machine_tool", 1_000, 1770.0, ("--solver", "fast")),
        _analyze("gap:machine_tool", repeat=10),  # companion
        Op("min-energy:machine_tool", "min-energy", "machine_tool", 1_000, 1800.0,
           repeat=2),  # companion
    ),
    # One affine set used from both sides of a_c ~ 1775; each gap and Dykstra
    # iteration passes over vectors of length 1e4.
    "near_critical": (
        Op("gap:machine_tool", "gap", "machine_tool", 10_000, 1770.0, ("--solver", "fast")),
        _analyze("gap:machine_tool", repeat=5),  # companion
        Op("min-energy:machine_tool", "min-energy", "machine_tool", 10_000, 1800.0),
        Op("critical:double_integrator", "critical", "double_integrator", 1_000),  # companion
    ),
}


def at_nodes(ops: tuple[Op, ...], nodes: int) -> tuple[Op, ...]:
    """The same operations on another grid size."""
    return tuple(op if op.kind == "analyze" else replace(op, nodes=nodes) for op in ops)


def units(ops: tuple[Op, ...]) -> list[list[Op]]:
    """Operations grouped so that each analyze follows the gap it reads;
    the seed shuffles these groups, never their insides."""
    groups = {op.name: [op] for op in ops if op.source is None}
    for op in ops:
        if op.source is not None:
            groups[op.source].append(op)
    return list(groups.values())


def grids(ops: tuple[Op, ...]) -> list[tuple[str, int]]:
    """The distinct (system, N) pairs a workload transcribes."""
    return sorted({(op.system, op.nodes) for op in ops if op.system is not None})


def reference_key(kind: str, system: str, nodes: int, bound: Optional[float]) -> str:
    return f"{kind}:{system}:{nodes}" + ("" if bound is None else f":{bound:g}")


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def _rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def check(op: Op, summary: dict, refs: dict, gap_summary: Optional[dict] = None) -> Optional[str]:
    """Why ``summary`` (the operation's summary.json) is wrong, or None.

    ``gap_summary`` is the summary of the gap run an analyze operation read.
    """
    if op.kind == "analyze":
        if summary.get("switch_times") != gap_summary.get("switch_times"):
            return (f"switch times {summary.get('switch_times')} differ from the gap "
                    f"run's {gap_summary.get('switch_times')}")
        return None
    ref = refs[reference_key(op.kind, op.system, op.nodes, op.bound)]
    if op.kind == "critical":
        lo, hi = summary["bracket_lo"], summary["bracket_hi"]
        if not lo <= ref["a_c"] <= hi:
            return f"bracket [{lo}, {hi}] misses the exact a_c {ref['a_c']}"
        return None
    if op.kind == "gap":
        value, expected = summary["gap_norm"], ref["gap_norm"]
    else:
        value, expected = summary["norm"], ref["norm"]
    if not math.isfinite(value) or _rel_err(value, expected) > ANSWER_RTOL:
        return (f"{op.kind} {value!r} is {_rel_err(value, expected):.2e} (relative) "
                f"from the reference {expected!r}; tolerance {ANSWER_RTOL:g}")
    if summary["terminal_error"] > TERMINAL_RTOL * (1.0 + ref["xf_norm"]):
        return f"terminal error {summary['terminal_error']:.3e} exceeds the feasibility scale"
    return None
