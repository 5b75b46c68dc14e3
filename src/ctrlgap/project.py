"""Projections onto the box and the boundary-value affine set, the
multiplier that certifies them disjoint, and the minimum-energy control.

The affine projection and the minimum-energy solve both reduce to n-by-n
linear systems instead of factoring the N*m-column map: n is at most 7 in
every benchmark while N*m can reach 2e5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import AffineData, ControlTrajectory
from .errors import InfeasibleIntersectionError
from .model import Bounds

# Relative allowance for rounding in a certificate: a margin or a bound
# within this share of the size of its terms is not trusted.
ROUNDING = 1e-9


@dataclass(frozen=True)
class ProjectionStats:
    """Diagnostics of a minimum-energy solve: the affine residual |G u - xi|
    of the returned control, the Newton iteration count and whether the
    row-scaled residual met the tolerance."""

    residual: float
    iterations: int
    converged: bool


def project_box(u: ControlTrajectory, bounds: Bounds) -> ControlTrajectory:
    """Clamp every sample into [lower_i(t_k), upper_i(t_k)]."""
    lo, hi = bounds.sample(u.grid, u.m)
    return ControlTrajectory(values=np.clip(u.values, lo, hi), grid=u.grid)


def project_affine(u: ControlTrajectory, aff: AffineData) -> ControlTrajectory:
    """Nearest point of { u : G u = xi } in the step-weighted norm.

    Computes u - G^T (G G^T)^{-1} (G u - xi); the step weight cancels in
    the formula.  Raises if the Gram matrix is singular on this grid.
    """
    if u.grid != aff.grid or u.m != aff.m:
        raise ValueError("control trajectory does not match the affine data's grid")
    flat = u.flat
    y = aff.Wfact.solve(aff.G @ flat - aff.xi)
    return ControlTrajectory.from_flat(flat - aff.G.T @ y, u.grid, u.m)


def gap_lower_bound(aff: AffineData, lo: np.ndarray, hi: np.ndarray, y: np.ndarray) -> float:
    """Certified floor under the distance between the box [lo, hi] and
    {u : G u = xi}.  Every box point has y.G u <= sigma_box(G^T y) =
    sum_k max(g_k lo_k, g_k hi_k), so a margin xi.y - sigma_box(G^T y) > 0
    (or the same for -y) separates the sets by sqrt(h) margin / |G^T y|.
    A margin within ``ROUNDING`` of the size of its terms is rounding: floor 0."""
    g = aff.G.T @ y
    xy = float(y @ aff.xi)
    margin = max(xy - float(np.sum(np.maximum(g * lo, g * hi))),
                 float(np.sum(np.minimum(g * lo, g * hi))) - xy)
    rounding = ROUNDING * (abs(xy) + float(np.abs(g) @ np.maximum(np.abs(lo), np.abs(hi))))
    if margin <= rounding:
        return 0.0
    return float(np.sqrt(aff.h)) * margin / float(np.linalg.norm(g))


def dykstra_min_energy(aff: AffineData, bounds: Bounds, tol: float = 1e-9,
                       max_iter: int = 200) -> tuple[ControlTrajectory, ProjectionStats]:
    """Minimum-norm control in the box and the affine set, by semismooth
    Newton on the n-dimensional dual (Hintermueller, Ito and Kunisch, SIAM
    J. Optim. 13, 2003); the name predates the method.

    The dual max_y xi.y - sum_k psi(g_k), g = G^T y, psi(g) = c g - c^2/2
    with c = clip(g, lo, hi), is concave with gradient xi - G c; its
    maximizer gives u = clip(G^T y), in the box exactly.  Rows of G and xi
    are scaled by D = sqrt(diag W).  Each step solves on the free set
    {lo < g < hi} by least squares and backtracks until the dual strictly
    increases.  Ends converged once |D^-1 (G u - xi)| <= ``tol`` (1 +
    |D^-1 xi|); raises ``InfeasibleIntersectionError`` once
    ``gap_lower_bound`` certifies the multiplier; returns ``converged=False``
    once no step of size >= 1e-12 increases the dual, or after ``max_iter``.
    """
    lo, hi = (b.reshape(-1) for b in bounds.sample(aff.grid, aff.m))
    G, d = aff.G, np.sqrt(np.diag(aff.W))
    y = d * aff.Wfact.solve(aff.xi)  # raises on a singular W before d divides
    xi_s = aff.xi / d

    def dual(y):
        g = G.T @ (y / d)
        c = np.clip(g, lo, hi)
        return float(xi_s @ y - c @ g + 0.5 * (c @ c)), g, c

    value, g, c = dual(y)
    converged, iterations = False, 0
    for iterations in range(1, max_iter + 1):
        grad = xi_s - (G @ c) / d
        if np.linalg.norm(grad) <= tol * (1.0 + float(np.linalg.norm(xi_s))):
            converged = True
            break
        if (floor := gap_lower_bound(aff, lo, hi, y / d)) > 0.0:
            raise InfeasibleIntersectionError(
                f"a dual multiplier separates the box from the boundary-value "
                f"set: their distance is at least {floor:.3e} (bound too small)")
        GF = G[:, (lo < g) & (g < hi)]
        step = np.linalg.lstsq((GF @ GF.T) / np.outer(d, d), grad, rcond=None)[0]
        t = 1.0
        while t >= 1e-12:
            trial = dual(y + t * step)
            if trial[0] > value + 1e-4 * t * max(float(grad @ step), 0.0):
                break
            t *= 0.5
        else:
            break  # stalled: no step strictly increases the dual
        y, (value, g, c) = y + t * step, trial
    return (ControlTrajectory.from_flat(c, aff.grid, aff.m),
            ProjectionStats(float(np.linalg.norm(G @ c - aff.xi)), iterations, converged))
