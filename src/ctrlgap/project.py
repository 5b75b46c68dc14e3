"""Projections onto the box and the boundary-value affine set, the
multiplier that certifies them disjoint, and ``dual_newton``, the one
semismooth Newton kernel (Hintermueller, Ito and Kunisch, SIAM J. Optim.
13, 2003) on the n-dimensional dual of min over the box of |u - c|^2 /
(2 eps) + r.What^{-1} r / 2, r = D^{-1}(G u - xi), D = sqrt(diag W).  It
serves ``dykstra_min_energy`` and the ``newton`` gap solver's proximal
steps.  n is at most 7 in every benchmark while N*m can reach 2e5, so
all of these solve n-by-n systems; ``project_affine`` uses the thin QR of
G^T, n columns long, that ``AffineData.basis`` keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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

    Computes u + Qt^T (c - Qt u) in the orthonormal basis (Qt, c) =
    ``aff.basis``, which equals u - G^T (G G^T)^{-1} (G u - xi) but does
    not solve through the rounded W, so its affine residual keeps the
    accuracy of G on badly conditioned grids; the step weight cancels in
    the formula.  Raises ``UncontrollableGridError`` if the Gram matrix is
    singular on this grid.
    """
    if u.grid != aff.grid or u.m != aff.m:
        raise ValueError("control trajectory does not match the affine data's grid")
    Qt, c = aff.basis
    flat = u.flat
    return ControlTrajectory.from_flat(flat + Qt.T @ (c - Qt @ flat), u.grid, u.m)


def refined_multiplier(aff: AffineData, u: np.ndarray) -> np.ndarray:
    """w = W^{-1}(G u - xi) for the flat control ``u``, refined once against
    G itself, so that u - G^T w lies on the affine set to the accuracy of
    G and not of the rounded product W = G G^T."""
    w = aff.Wfact.solve(aff.G @ u - aff.xi)
    return w + aff.Wfact.solve(aff.G @ (u - aff.G.T @ w) - aff.xi)


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


# Share of the summed magnitudes of the dual's terms that its computed value
# may be off by; a step that lowers the value by less still counts as ascent.
_DUAL_SLACK = 1e-12


def dual_newton(aff: AffineData, lo: np.ndarray, hi: np.ndarray, center: np.ndarray | float,
                eps: float, W_hat: np.ndarray, y: np.ndarray) -> Iterator[tuple]:
    """Yield (y, u(y), gradient, exact) for the start ``y`` and after every
    Newton step on the dual in the module docstring.  u(y) = clip(c - eps
    G^T D^{-1} y), the gradient is D^{-1}(G u(y) - xi) - What y and the
    Newton matrix What + eps D^{-1} G_F G_F^T D^{-1}, F the free nodes of
    u(y), is solved by least squares as it is singular when What = 0.  A
    step backtracks until the Armijo rule holds up to ``_DUAL_SLACK``.
    Ends after an ``exact`` step, a full one that keeps the clip pattern
    and so maximizes the dual on that piece, or when no step >= 1e-12
    ascends."""
    d = aff.Wfact.scale
    G, xi = aff.G / d[:, None], aff.xi / d

    def dual(y):
        u = np.maximum(center - eps * (G.T @ y), lo)
        np.minimum(u, hi, out=u)
        Gu = G @ u
        shift = u - center
        terms = np.array([y @ Gu, -(y @ xi), -0.5 * (y @ W_hat @ y), shift @ shift / (2.0 * eps)])
        return y, u, Gu - xi - W_hat @ y, terms

    (y, u, grad, terms), exact = dual(y), False
    while True:
        yield y, u, grad, exact
        if exact:
            return
        GF = G[:, (lo < u) & (u < hi)]
        step = np.linalg.lstsq(W_hat + eps * (GF @ GF.T), grad, rcond=None)[0]
        value, slack = terms.sum(), _DUAL_SLACK * np.abs(terms).sum()
        slope, t = float(grad @ step), 1.0
        while (trial := dual(y + t * step))[3].sum() < value + 1e-4 * t * slope - slack:
            t *= 0.5
            if t < 1e-12:
                return
        exact = (t == 1.0 and np.array_equal(trial[1] >= hi, u >= hi)
                 and np.array_equal(trial[1] <= lo, u <= lo))
        y, u, grad, terms = trial


def dykstra_min_energy(aff: AffineData, bounds: Bounds, tol: float = 1e-9,
                       max_iter: int = 200) -> tuple[ControlTrajectory, ProjectionStats]:
    """Minimum-norm control in the box and the affine set: ``dual_newton``
    with c = 0, eps = 1, What = 0 from y = -D W^{-1} xi, whose u(y) clips
    the minimum-norm control G^T W^{-1} xi; the name predates the method.
    Each iterate, the start included, counts toward ``max_iter``.  Ends
    converged once |D^{-1}(G u - xi)| <= ``tol`` (1 + |D^{-1} xi|); raises
    ``InfeasibleIntersectionError`` once ``gap_lower_bound`` certifies the
    multiplier; returns ``converged=False`` once the kernel ends, or after
    ``max_iter``."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    lo, hi = (b.reshape(-1) for b in bounds.sample(aff.grid, aff.m))
    d, n = aff.Wfact.scale, aff.n
    steps = dual_newton(aff, lo, hi, 0.0, 1.0, np.zeros((n, n)), -d * aff.Wfact.solve(aff.xi))
    converged, iterations = False, 0
    for iterations, (y, u, grad, _) in zip(range(1, max_iter + 1), steps):
        if np.linalg.norm(grad) <= tol * (1.0 + float(np.linalg.norm(aff.xi / d))):
            converged = True
            break
        if (floor := gap_lower_bound(aff, lo, hi, y / d)) > 0.0:
            raise InfeasibleIntersectionError(
                f"a dual multiplier separates the box from the boundary-value "
                f"set: their distance is at least {floor:.3e} (bound too small)")
    return (ControlTrajectory.from_flat(u, aff.grid, aff.m),
            ProjectionStats(float(np.linalg.norm(aff.G @ u - aff.xi)), iterations, converged))
