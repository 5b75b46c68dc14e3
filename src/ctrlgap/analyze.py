"""Switching-structure extraction from a nodal signal.

The gap vector component plays the role of a switching function: its sign
selects the active bound of the box-side control, and at a best
approximation it lies in the range of the transposed reachability map
(the discrete form of the adjoint representation).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .discretize import ControlTrajectory
from .model import Grid


class ChannelSwitching(NamedTuple):
    """Switching data of one control channel."""

    switch_times: tuple[float, ...]
    signs: tuple[int, ...]
    singular_intervals: tuple[tuple[float, float], ...]


class SwitchingProfile(NamedTuple):
    """Per-channel switch times, bang polarity sequence and singular runs
    of one nodal signal, with the ``tau`` band and ``min_len`` they were
    extracted with.

    Switch times come from linear interpolation between nodes of strict
    opposite sign; runs where the signal stays inside the tau band longer
    than ``min_len`` are reported as singular intervals instead.
    """

    channels: tuple[ChannelSwitching, ...]
    tau: float
    min_len: float

    @property
    def switch_times(self) -> list[float]:
        """All channels' switch times merged and sorted."""
        times = [t for ch in self.channels for t in ch.switch_times]
        return sorted(times)


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
                       min_len: float | None = None) -> SwitchingProfile:
    """Locate sign switches and singular runs of a nodal signal: a control,
    or a gap vector read as a switching function.

    ``tau`` defaults to 1e-7 times the largest magnitude of the signal
    (a switch of a bang-bang control is unambiguous at that scale), and
    ``min_len`` to twenty grid steps, long enough that the single node
    nearest a crossing is never flagged as a singular arc.  Both must be
    nonnegative and finite.
    """
    if sig.grid != grid:
        raise ValueError("signal lives on a different grid")
    for name, value in (("tau", tau), ("min_len", min_len)):
        if value is not None and not 0 <= value < np.inf:
            raise ValueError(f"{name} must be nonnegative and finite, got {value}")
    values = sig.values
    if tau is None:
        peak = float(np.max(np.abs(values))) if values.size else 0.0
        tau = 1e-7 * peak
    if min_len is None:
        min_len = 20.0 * grid.h
    times = grid.left_nodes
    channels = tuple(
        _extract_channel(values[:, i], times, grid.h, tau, min_len)
        for i in range(sig.m))
    return SwitchingProfile(channels=channels, tau=float(tau), min_len=float(min_len))
