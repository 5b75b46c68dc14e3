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

import math
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


def gap_lower_bound(aff: AffineData, lo: np.ndarray, hi: np.ndarray, y: np.ndarray,
                    g: np.ndarray) -> float:
    """Certified floor under the distance between the box [lo, hi] and
    {u : Qt u = c}, from the multiplier y and g = Qt^T y.  Every box point
    has y.Qt u <= sigma_box(g) = sum_k max(g_k lo_k, g_k hi_k), so a margin
    c.y - sigma_box(g) > 0 (or the same for -y) separates the sets by
    sqrt(h) margin / |g|.  A margin within ``ROUNDING`` of the size of its
    terms is rounding: floor 0."""
    c = aff.basis[1]
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
# The first level k whose step t = 2^-k is below 1e-12, where backtracking
# ends the kernel.
_END_LEVEL = 40


def dual_newton(Qt: np.ndarray, c: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                center: np.ndarray | float, eps: float, weight: float,
                y: np.ndarray) -> Iterator[tuple]:
    """Yield (y, u(y), gradient, exact, g) for the start ``y`` and after
    every Newton step on the dual in the module docstring, with g = Qt^T y
    as the kernel carries it (below).  u(y) = clip(center - eps Qt^T y),
    the gradient is Qt u(y) - c - weight y and the Newton
    matrix weight I + eps Qt_F Qt_F^T, F the free nodes of u(y), is solved
    directly when the weight is positive and by least squares when it is 0,
    as it is singular then.  A step takes the longest t = 2^-k, k = 0, 1,
    ..., for which the Armijo rule holds up to ``_DUAL_SLACK``, the step
    that plain halving of t takes, and the iteration ends when no t >=
    1e-12 passes.  The dual is concave along the step, so the levels k
    that fail come before those that pass, and the levels are searched
    inside the bracket of the highest failed and the lowest passed one.
    After a failed trial, the next one is at the longest 2^-k at or below
    the point where the quadratic through the dual's value and slope at 0
    and its value at the failed trial meets the Armijo line (Nocedal and
    Wright, Numerical Optimization, 2nd ed., 2006, sec. 3.5), moved into
    the bracket.  Near a_c at a large eps the full step overshoots by
    orders of magnitude: on machine_tool at N=1e3 and eps = 1e8 halving
    spends 13 to 18 trials on most steps, this search 4 to 7.  An
    ``exact`` step, a full one that keeps the clip pattern, maximizes the
    dual on that piece if the Newton matrix is regular and ends the
    iteration; else the dual rises linearly along the gradient's part off
    the matrix's range until a clipped node comes free, and the next step
    goes twice that far.  If the ray meets no clipped node, the dual rises
    along it without bound, so the ray separates the box from {u : Qt u =
    c}: it is yielded once more in place of y, with the same u and Qt^T ray
    in place of g, and the iteration ends.

    The kernel carries g = Qt^T y with y.  A full step costs two products
    with Qt, Qt^T (y + step) and Qt u; a shorter trial costs O(N*m)
    elementwise work, about ten passes over N*m values, as g + t d with d
    = Qt^T (y + step) - g gives Qt^T y along the step and g.u gives y.Qt
    u, and the accepted one adds the product Qt u of its gradient."""
    diag = weight * np.eye(c.size)

    def control(g):
        # center - eps g in one new array: x + (-y) rounds as x - y
        u = -eps * g
        u += center
        np.maximum(u, lo, out=u)
        return np.minimum(u, hi, out=u)

    def dual(y, u, yQu):
        """The dual's value at y with u = u(y) and yQu = y.Qt u, and the
        slack its rounding may take, ``_DUAL_SLACK`` of its terms' size."""
        shift = u - center
        terms = (yQu, -float(y @ c), -0.5 * weight * float(y @ y),
                 float(shift @ shift) / (2.0 * eps))
        return sum(terms), _DUAL_SLACK * sum(abs(term) for term in terms)

    g = Qt.T @ y
    u = control(g)
    Qu = Qt @ u
    (value, slack), grad, exact = dual(y, u, float(y @ Qu)), Qu - c - weight * y, False
    while True:
        yield y, u, grad, exact, g
        if exact and weight > 0.0:
            return
        QF = Qt.compress((lo < u) & (u < hi), axis=1)
        M = diag + eps * (QF @ QF.T)
        if weight > 0.0:
            step = np.linalg.solve(M, grad)
        else:
            step, _, rank, _ = np.linalg.lstsq(M, grad, rcond=None)
        if exact:
            if rank == c.size:
                return
            ray = grad - M @ step
            g_ray = Qt.T @ ray
            with np.errstate(divide="ignore", invalid="ignore"):
                reach = (u - center + eps * g) / (-eps * g_ray)
            reach = reach[((u <= lo) | (u >= hi)) & (0.0 < reach) & (reach < np.inf)]
            if not reach.size:
                yield ray, u, grad, exact, g_ray
                return
            step = 2.0 * float(reach.min()) * ray
        slope, t = float(grad @ step), 1.0
        y_t = y + step
        g_t = Qt.T @ y_t
        u_t = control(g_t)
        Qu = Qt @ u_t
        value_t, slack_t = dual(y_t, u_t, float(y_t @ Qu))
        if value_t < value + 1e-4 * slope - slack:
            # every level <= failed fails and every level >= passed passes;
            # value_t is the dual at the last failed trial, and cross is where
            # the quadratic through it meets the Armijo line
            d, failed, passed, kept = g_t - g, 0, _END_LEVEL, None
            while passed > failed + 1:
                t = 0.5 ** failed
                drop = value + slope * t - value_t
                cross = (1.0 - 1e-4) * slope * t * t / drop if drop > 0.0 else 0.0
                level = math.ceil(-math.log2(cross)) if 0.0 < cross < t else failed + 1
                level = min(max(level, failed + 1), passed - 1)
                t = 0.5 ** level
                y_t, g_t = y + t * step, g + t * d
                u_t = control(g_t)
                trial = dual(y_t, u_t, float(g_t @ u_t))
                if trial[0] >= value + 1e-4 * t * slope - slack:
                    passed, kept = level, (t, y_t, g_t, u_t, *trial)
                else:
                    failed, value_t = level, trial[0]
            if kept is None:
                return
            t, y_t, g_t, u_t, value_t, slack_t = kept
            Qu = Qt @ u_t
            del d, kept  # no N-vector outlives a step but g and u
        exact = (t == 1.0 and np.array_equal(u_t >= hi, u >= hi)
                 and np.array_equal(u_t <= lo, u <= lo))
        y, g, u, value, slack = y_t, g_t, u_t, value_t, slack_t
        grad = Qu - c - weight * y


def dykstra_min_energy(aff: AffineData, bounds: Bounds, tol: float = 1e-9,
                       max_iter: int = 200) -> tuple[ControlTrajectory, ProjectionStats]:
    """Minimum-norm control in the box and the affine set: ``dual_newton``
    with center 0, eps = 1 and weight 0 from y = -c, whose u(y) clips the
    minimum-norm control Qt^T c = G^T W^{-1} xi; the name predates the
    method.  Each iterate, the start included, counts toward ``max_iter``.
    Ends converged once the row-scaled residual |D^{-1}(G u - xi)| =
    |Rhat^T (Qt u - c)|, D = sqrt(diag W), is at most ``tol`` (1 +
    |D^{-1} xi|); raises ``InfeasibleIntersectionError``, with y as its
    ``multiplier`` and the kernel's Qt^T y as its ``g``, once
    ``gap_lower_bound`` certifies the multiplier y, or the ray that the
    kernel yields in its place, with the Qt^T y that the kernel yields;
    returns ``converged=False`` once the kernel ends
    uncertified, or after ``max_iter``."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    lo, hi = (b.reshape(-1) for b in bounds.sample(aff.grid, aff.m))
    Qt, c, Rhat = aff.basis
    stop = tol * (1.0 + float(np.linalg.norm(Rhat.T @ c)))
    converged, iterations = False, 0
    for iterations, (y, u, s, _, g) in zip(range(1, max_iter + 1),
                                           dual_newton(Qt, c, lo, hi, 0.0, 1.0, 0.0, -c)):
        if np.linalg.norm(Rhat.T @ s) <= stop:
            converged = True
            break
        if (floor := gap_lower_bound(aff, lo, hi, y, g)) > 0.0:
            error = InfeasibleIntersectionError(
                f"a dual multiplier separates the box from the boundary-value "
                f"set: their distance is at least {floor:.3e} (bound too small)")
            error.multiplier, error.g = y, g
            raise error
    return (ControlTrajectory.from_flat(u, aff.grid, aff.m),
            ProjectionStats(aff.residual(u), iterations, converged))
