"""The minimum-energy control in the box and the boundary-value affine set,
the multiplier that certifies them disjoint, and ``dual_newton``, the one
semismooth Newton kernel (Hintermueller, Ito and Kunisch, SIAM J. Optim.
13, 2003) on the n-dimensional dual of min over the box of |u - center|^2
/ (2 eps) + weight |Qt u - c|^2 / 2.  Weight 0 makes Qt u = c a
constraint (``dykstra_min_energy``); weight 1 gives the ``newton`` gap
solver's proximal steps, as |Qt u - c|^2 = r.W^{-1} r with r = G u - xi.
All of it runs on the orthonormal form {u : Qt u = c} of
``AffineData.basis``: the multiplier of u is s = Qt u - c, and Qt^T s =
G^T W^{-1} r with no solve through the rounded W.  n is at most 7 in every
benchmark while N*m can reach 2e5, so the kernel solves n-by-n systems.
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


def gap_lower_bound(aff: AffineData, lo: np.ndarray, hi: np.ndarray, y: np.ndarray) -> float:
    """Certified floor under the distance between the box [lo, hi] and
    {u : Qt u = c}.  Every box point has y.Qt u <= sigma_box(Qt^T y) =
    sum_k max(g_k lo_k, g_k hi_k), so a margin c.y - sigma_box(Qt^T y) > 0
    (or the same for -y) separates the sets by sqrt(h) margin / |Qt^T y|.
    A margin within ``ROUNDING`` of the size of its terms is rounding: floor 0."""
    Qt, c, _ = aff.basis
    g = Qt.T @ y
    xy = float(y @ c)
    margin = max(xy - float(np.sum(np.maximum(g * lo, g * hi))),
                 float(np.sum(np.minimum(g * lo, g * hi))) - xy)
    rounding = ROUNDING * (abs(xy) + float(np.abs(g) @ np.maximum(np.abs(lo), np.abs(hi))))
    if margin <= rounding:
        return 0.0
    return float(np.sqrt(aff.h)) * margin / float(np.linalg.norm(g))


# Share of the summed magnitudes of the dual's terms that its computed value
# may be off by; a step that lowers the value by less still counts as ascent.
_DUAL_SLACK = 1e-12


def dual_newton(Qt: np.ndarray, c: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                center: np.ndarray | float, eps: float, weight: float,
                y: np.ndarray) -> Iterator[tuple]:
    """Yield (y, u(y), gradient, exact) for the start ``y`` and after every
    Newton step on the dual in the module docstring.  u(y) = clip(center -
    eps Qt^T y), the gradient is Qt u(y) - c - weight y and the Newton
    matrix weight I + eps Qt_F Qt_F^T, F the free nodes of u(y), is solved
    by least squares as it is singular when the weight is 0.  A step
    backtracks until the Armijo rule holds up to ``_DUAL_SLACK``.  An
    ``exact`` step, a full one that keeps the clip pattern, maximizes the
    dual on that piece if the Newton matrix is regular and ends the
    iteration; else the dual rises linearly along the gradient's part off
    the matrix's range until a clipped node comes free, and the next step
    goes twice that far.  If the ray meets no clipped node, the dual rises
    along it without bound, so the ray separates the box from {u : Qt u =
    c}: it is yielded once more in place of y, with the same u, and the
    iteration ends.  Ends too when no step >= 1e-12 ascends."""

    def dual(y):
        u = np.maximum(center - eps * (Qt.T @ y), lo)
        np.minimum(u, hi, out=u)
        Qu = Qt @ u
        shift = u - center
        terms = np.array([y @ Qu, -(y @ c), -0.5 * weight * (y @ y), shift @ shift / (2.0 * eps)])
        return y, u, Qu - c - weight * y, terms

    (y, u, grad, terms), exact = dual(y), False
    while True:
        yield y, u, grad, exact
        QF = Qt[:, (lo < u) & (u < hi)]
        M = weight * np.eye(c.size) + eps * (QF @ QF.T)
        step, _, rank, _ = np.linalg.lstsq(M, grad, rcond=None)
        if exact:
            ray = grad - M @ step
            with np.errstate(divide="ignore", invalid="ignore"):
                reach = (u - center + eps * (Qt.T @ y)) / (-eps * (Qt.T @ ray))
            reach = reach[((u <= lo) | (u >= hi)) & (0.0 < reach) & (reach < np.inf)]
            if rank == c.size:
                return
            if not reach.size:
                yield ray, u, grad, exact
                return
            step = 2.0 * float(reach.min()) * ray
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
    with center 0, eps = 1 and weight 0 from y = -c, whose u(y) clips the
    minimum-norm control Qt^T c = G^T W^{-1} xi; the name predates the
    method.  Each iterate, the start included, counts toward ``max_iter``.
    Ends converged once the row-scaled residual |D^{-1}(G u - xi)| =
    |Rhat^T (Qt u - c)|, D = sqrt(diag W), is at most ``tol`` (1 +
    |D^{-1} xi|); raises ``InfeasibleIntersectionError``, with y as its
    ``multiplier``, once ``gap_lower_bound`` certifies the multiplier y, or
    the ray that the kernel yields in its place; returns
    ``converged=False`` once the kernel ends uncertified, or after
    ``max_iter``."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    lo, hi = (b.reshape(-1) for b in bounds.sample(aff.grid, aff.m))
    Qt, c, Rhat = aff.basis
    stop = tol * (1.0 + float(np.linalg.norm(Rhat.T @ c)))
    converged, iterations = False, 0
    for iterations, (y, u, s, _) in zip(range(1, max_iter + 1),
                                        dual_newton(Qt, c, lo, hi, 0.0, 1.0, 0.0, -c)):
        if np.linalg.norm(Rhat.T @ s) <= stop:
            converged = True
            break
        if (floor := gap_lower_bound(aff, lo, hi, y)) > 0.0:
            error = InfeasibleIntersectionError(
                f"a dual multiplier separates the box from the boundary-value "
                f"set: their distance is at least {floor:.3e} (bound too small)")
            error.multiplier = y
            raise error
    return (ControlTrajectory.from_flat(u, aff.grid, aff.m),
            ProjectionStats(aff.residual(u), iterations, converged))
