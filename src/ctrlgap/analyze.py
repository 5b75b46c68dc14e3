"""Switching-structure extraction and optimality-condition checks.

The gap vector component plays the role of a switching function: its sign
selects the active bound of the box-side control, and at a best
approximation it lies in the range of the transposed reachability map
(the discrete form of the adjoint representation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import ControlTrajectory
from .model import Bounds, Grid


@dataclass(frozen=True)
class ChannelSwitching:
    """Switching data of one control channel."""

    switch_times: tuple[float, ...]
    signs: tuple[int, ...]
    singular_intervals: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class SwitchingProfile:
    """Per-channel switch times, bang polarity sequence and singular runs.

    Switch times come from linear interpolation between nodes of strict
    opposite sign; runs where the signal stays inside the tau band longer
    than ``min_len`` are reported as singular intervals instead.
    """

    channels: tuple[ChannelSwitching, ...]
    reference: str
    tau: float
    min_len: float

    @property
    def switch_times(self) -> list[float]:
        """All channels' switch times merged and sorted."""
        times = [t for ch in self.channels for t in ch.switch_times]
        return sorted(times)


@dataclass(frozen=True)
class BangBangReport:
    """Share of band-exempt nodes where the control sits on the bound that
    the sign of the gap vector selects."""

    agreement: float
    tested: int
    violations: int


def _extract_channel(s: np.ndarray, times: np.ndarray, h: float, tau: float,
                     min_len: float) -> ChannelSwitching:
    strong = np.flatnonzero(np.abs(s) > tau)
    # Crossings: consecutive strong samples of opposite sign.  A weak run
    # shorter than min_len between them is bridged (solver noise can park a
    # node inside the tau band exactly at a crossing); a longer weak run is
    # a singular arc, and a polarity change across it enters the sign
    # sequence without an interpolated crossing time.
    sgn = np.where(s[strong] > 0, 1, -1)
    turn = np.flatnonzero(sgn[1:] != sgn[:-1])
    signs = np.concatenate((sgn[:1], sgn[turn + 1]))
    a, b = strong[turn], strong[turn + 1]
    bridged = (b - a - 1) * h < min_len
    a, b = a[bridged], b[bridged]
    t_a, s_a, s_b = times[a], s[a], s[b]
    crossings = t_a + (times[b] - t_a) * s_a / (s_a - s_b)
    # Singular intervals: maximal weak runs of duration >= min_len.
    edges = np.diff((np.abs(s) <= tau).astype(np.int8), prepend=0, append=0)
    start, stop = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    duration = (stop - start) * h
    arc = duration >= min_len
    t_start = times[start[arc]]
    singular = zip(t_start.tolist(), (t_start + duration[arc]).tolist())
    return ChannelSwitching(switch_times=tuple(crossings.tolist()),
                            signs=tuple(signs.tolist()),
                            singular_intervals=tuple(singular))


def extract_switchings(sig: ControlTrajectory, grid: Grid, tau: float | None = None,
                       min_len: float | None = None,
                       reference: str = "control") -> SwitchingProfile:
    """Locate sign switches and singular runs of a nodal signal.

    ``tau`` defaults to 1e-7 times the largest magnitude of the signal
    (a switch of a bang-bang control is unambiguous at that scale), and
    ``min_len`` to twenty grid steps, long enough that the single node
    nearest a crossing is never flagged as a singular arc.
    """
    if sig.grid != grid:
        raise ValueError("signal lives on a different grid")
    values = sig.values
    if tau is None:
        peak = float(np.max(np.abs(values))) if values.size else 0.0
        tau = 1e-7 * peak
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if min_len is None:
        min_len = 20.0 * grid.h
    if min_len < 0:
        raise ValueError(f"min_len must be nonnegative, got {min_len}")
    times = grid.left_nodes
    channels = tuple(
        _extract_channel(values[:, i], times, grid.h, tau, min_len)
        for i in range(sig.m))
    return SwitchingProfile(channels=channels, reference=reference,
                            tau=float(tau), min_len=float(min_len))


def check_bang_bang(uB: ControlTrajectory, v: ControlTrajectory, bounds: Bounds,
                    tau: float | None = None) -> BangBangReport:
    """Verify the sign rule: where the gap vector clears the tau band, uB
    must sit on the upper bound when v >= 0 and on the lower bound when
    v < 0.  Nodes inside the band are exempt (the rule leaves them
    undetermined)."""
    if uB.values.shape != v.values.shape:
        raise ValueError("uB and v must have matching shapes")
    lo, hi = bounds.sample(uB.grid, uB.m)
    if tau is None:
        peak = float(np.max(np.abs(v.values))) if v.values.size else 0.0
        tau = 1e-7 * peak
    tested_mask = np.abs(v.values) > tau
    selected = np.where(v.values >= 0.0, hi, lo)
    ok = np.abs(uB.values - selected) <= 1e-9 * (1.0 + np.abs(selected))
    tested = int(np.sum(tested_mask))
    violations = int(np.sum(tested_mask & ~ok))
    agreement = 1.0 if tested == 0 else 1.0 - violations / tested
    return BangBangReport(agreement=agreement, tested=tested, violations=violations)

