"""Spans around the calls into each layer of ctrlgap, kept in memory.

The tracer wraps the public functions at each layer boundary under the
names the CLI and the critical-bound search import them by, so the
program itself is unchanged.  A span records its name, start, end, parent
and the counts read off the returned object; a layer's self time is its
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

# (module, names) whose attributes are replaced by traced wrappers.
WRAPPED = (
    ("ctrlgap.cli", ("build_affine", "solve_gap", "critical_bound", "dykstra_min_energy",
                     "simulate", "extract_switchings", "read_trajectory")),
    ("ctrlgap.critical", ("build_affine", "kalman_rank", "solve_gap")),
)

# Span name (without its module) -> per-layer metric of its self time.
SELF_TIME_METRIC = {
    "op": "cli.self_s",
    "build_affine": "discretize.build_affine_s",
    "simulate": "discretize.simulate_s",
    "solve_gap": "gapsolve.solve_s",
    "critical_bound": "critical.self_s",
    "kalman_rank": "controllability.kalman_rank_s",
    "dykstra_min_energy": "project.dykstra_s",
    "extract_switchings": "analyze.extract_switchings_s",
    "read_trajectory": "cli.read_trajectory_s",
}


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _counts(name: str, result) -> dict:
    """Work counts of one call, read off the object it returned."""
    if name == "solve_gap":
        return {"iterations": result.iterations,
                "restarts": result.diagnostics.get("restarts", 0),
                "coords": result.uB.values.size}
    if name == "dykstra_min_energy":
        u, stats = result
        return {"iterations": stats.iterations, "coords": u.values.size}
    if name == "critical_bound":
        lo, hi = result.bracket
        return {"probes": len(result.probes),
                "probe_iterations": sum(p.iterations for p in result.probes),
                "bracket_rel_width": (hi - lo) / hi}
    return {}


class Tracer:
    """Collects the spans of the operations run inside ``operation``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name=name, start=time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        base = name.rsplit(".", 1)[-1]

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self.spans[index].counts = _counts(base, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace the wrapped functions for the duration of the block."""
        import importlib

        saved = []
        for module_name, names in WRAPPED:
            module = importlib.import_module(module_name)
            prefix = module_name.rsplit(".", 1)[-1]
            for attr in names:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(f"{prefix}.{attr}", original))
        try:
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    @contextmanager
    def operation(self, name: str):
        """Root span of one CLI operation; yields its index."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        index = self._open(f"op.{name}")
        try:
            yield index
        finally:
            self._close(index)

    def layers(self, root: int) -> dict:
        """Per-layer totals of the operation whose root span is ``root``,
        the last operation run.

        Raises if the self times do not add up to the operation's wall time.
        """
        members = range(root, len(self.spans))
        child_seconds = defaultdict(float)
        critical_solves = defaultdict(list)
        for i in members[1:]:
            child_seconds[self.spans[i].parent] += self.spans[i].seconds
            if self.spans[i].name == "critical.solve_gap":
                critical_solves[self.spans[i].parent].append(i)
        out = defaultdict(float)
        total_self = 0.0
        for i in members:
            span = self.spans[i]
            base = "op" if span.name.startswith("op.") else span.name.rsplit(".", 1)[-1]
            self_s = span.seconds - child_seconds[i]
            total_self += self_s
            out[SELF_TIME_METRIC[base]] += self_s
            c = span.counts
            if not c:  # the call raised
                continue
            if base == "solve_gap":
                out["gapsolve.iterations"] += c["iterations"]
                out["gapsolve.restarts"] += c["restarts"]
                out["gapsolve.coord_iters"] += c["iterations"] * c["coords"]
            elif base == "dykstra_min_energy":
                out["project.iterations"] += c["iterations"]
                out["project.coord_iters"] += c["iterations"] * c["coords"]
            elif base == "critical_bound":
                out["critical.probes"] += c["probes"]
                out["critical.probe_iterations"] += c["probe_iterations"]
                out["critical.bracket_rel_width"] += c["bracket_rel_width"]
        # The last solve inside a critical-bound search is its final accurate
        # solve; the ones before it are the bisection probes.
        for solves in critical_solves.values():
            out["critical.final_solve_s"] += self.spans[solves[-1]].seconds
            out["critical.probe_s"] += sum(self.spans[i].seconds for i in solves[:-1])
        wall = self.spans[root].seconds
        if abs(total_self - wall) > 1e-9 * max(1.0, wall):
            raise RuntimeError(f"self times add up to {total_self!r} s, "
                               f"not the operation's {wall!r} s")
        return dict(out)

    def records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 **s.counts} for s in self.spans]
