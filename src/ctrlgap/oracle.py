"""Independent oracle: exhaustive active-set enumeration for tiny gap
problems.

It lives in the library (not only in the test suite) so the CLI can
reproduce the agreement evidence on tiny instances via ``--oracle``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .discretize import AffineData, ControlTrajectory, weighted_norm
from .errors import ConsistencyError, OracleSizeError
from .gapsolve import GapResult
from .model import Bounds

MAX_COORDS = 8  # 3^8 = 6561 activity patterns


def brute_force_gap(aff: AffineData, bounds: Bounds) -> GapResult:
    """Exhaustive solution of the tiny gap problem, packaged like a solver
    result: enumerate every lower/free/upper pattern and solve its
    stationarity system.

    A pattern fixes the bound coordinates and makes the gap vector vanish
    on the free ones; candidates must be box-feasible with correctly signed
    gap components on the bound coordinates.  The convex objective makes
    the best stationary candidate the global minimizer.  Patterns are
    visited in lexicographic order (lower < free < upper) and ties keep the
    first, so ``diagnostics["pattern"]`` is the lexicographically smallest
    optimum and ``diagnostics["objective"]`` its half squared step-weighted
    gap.
    """
    size = aff.grid.N * aff.m
    if size > MAX_COORDS:
        raise OracleSizeError(
            f"enumeration handles at most {MAX_COORDS} control coordinates, "
            f"got {size}")
    lo, hi = bounds.sample(aff.grid, aff.m)
    lo_f, hi_f = lo.reshape(-1), hi.reshape(-1)
    G, xi, h = aff.G, aff.xi, aff.grid.h
    W = G @ G.T

    scale = 1.0 + float(np.max(np.abs(np.concatenate([lo_f, hi_f]))))
    ftol = 1e-9 * scale
    best = None
    for pattern in itertools.product(("lower", "free", "upper"), repeat=size):
        at_lower = np.array([p == "lower" for p in pattern])
        at_upper = np.array([p == "upper" for p in pattern])
        free = ~(at_lower | at_upper)
        u = np.where(at_lower, lo_f, np.where(at_upper, hi_f, 0.0))
        if np.any(free):
            GF = G[:, free]
            C = GF.T @ np.linalg.solve(W, GF)
            rhs = GF.T @ np.linalg.solve(W, xi - G[:, ~free] @ u[~free])
            sol, *_ = np.linalg.lstsq(C, rhs, rcond=None)
            if np.any(sol < lo_f[free] - ftol) or np.any(sol > hi_f[free] + ftol):
                continue
            u[free] = sol
        u = np.clip(u, lo_f, hi_f)
        v = -(G.T @ np.linalg.solve(W, G @ u - xi))
        # stationarity: v vanishes on free coordinates and is correctly
        # signed on bound ones
        vtol = max(1e-9 * (1.0 + float(np.max(np.abs(v)))), 10.0 * ftol)
        if np.any(np.abs(v[free]) > vtol):
            continue
        if np.any(v[at_upper] < -vtol) or np.any(v[at_lower] > vtol):
            continue
        objective = 0.5 * h * float(v @ v)
        if best is None or objective < best[0] - 1e-15:
            best = (objective, pattern, u, v)
    if best is None:
        raise ConsistencyError("no stationary activity pattern found; "
                               "the Gram data is inconsistent")
    objective, pattern, u, v = best
    grid, m = aff.grid, aff.m
    return GapResult(uA=ControlTrajectory.from_flat(u + v, grid, m),
                     uB=ControlTrajectory.from_flat(u, grid, m),
                     gap_norm=weighted_norm(v, h), iterations=0, converged=True,
                     diagnostics={"pattern": pattern, "objective": objective})
