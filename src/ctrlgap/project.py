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
The dual is concave and piecewise quadratic, kinked where a node of u meets
a bound, so each step goes to its maximum along the Newton direction, found
in one sorted pass over the kinks, with no sufficient-decrease test.
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


def dual_newton(Qt: np.ndarray, c: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                center: np.ndarray | float, eps: float, weight: float,
                y: np.ndarray) -> Iterator[tuple]:
    """Yield (y, u(y), gradient, exact, g) for the start ``y`` and after
    every Newton step on the dual in the module docstring, with g = Qt^T y
    as the kernel carries it.  u(y) = clip(center - eps Qt^T y), the
    gradient is Qt u(y) - c - weight y and the Newton matrix M = weight I +
    eps Qt_F Qt_F^T, F the free nodes of u(y), is solved directly when the
    weight is positive and by least squares when it is 0, as it is singular
    then.

    Along a direction p the unclipped control is linear in t, so the dual's
    slope is piecewise linear and non-increasing: it falls at the rate p.M p
    at 0+, faster by eps e_k^2 once node k comes free and slower by as much
    once it meets a bound, e = Qt^T p.  A step takes t = 1 when the full
    step keeps the clip pattern or the slope there is not negative, and
    otherwise the slope's root in (0, 1), read off the sorted kinks of the
    nodes whose clip status differs at t = 0 and t = 1, the only ones with
    a kink inside the step.  The iteration ends when the root leaves y
    where it is.  An ``exact`` step, a full one that keeps the clip pattern,
    maximizes the dual on that piece if M is regular and ends the
    iteration; else the dual rises linearly along the gradient's part off
    M's range, and the next step goes to the slope's root on that ray, over
    the nodes where Qt^T ray is not 0.  If the slope never reaches 0, the
    ray separates the box from {u : Qt u = c}: it is yielded once more in
    place of y, with the same u and Qt^T ray in place of g, and the
    iteration ends.  A full step forms two products with Qt, Qt^T (y + p)
    and Qt u, and a shorter one a third, Qt u at the root; g + t (Qt^T (y
    + p) - g) gives Qt^T y along the step."""
    diag = weight * np.eye(c.size)
    centers = np.broadcast_to(center, lo.shape)

    def control(g):
        # center - eps g in one new array: x + (-y) rounds as x - y
        u = -eps * g
        u += center
        np.maximum(u, lo, out=u)
        return np.minimum(u, hi, out=u)

    def root(p, e, nodes):
        """The least t > 0 at which the dual's slope along p from y, e =
        Qt^T p, reaches 0, or inf if it never does, from the kinks of
        ``nodes``, where center - eps (g + t e) meets a bound."""
        slope, rate = float(grad @ p), -float(p @ M @ p)
        if slope <= 0.0:
            return 0.0
        e, z = e[nodes], centers[nodes] - eps * g[nodes]
        ends = (z - lo[nodes]) / (eps * e), (z - hi[nodes]) / (eps * e)
        enter, leave = np.minimum(*ends), np.maximum(*ends)
        # a node free at 0+ is in the rate already, and one that meets its
        # bound by t = 0 never comes free
        came, left = enter >= 0.0, leave > 0.0
        times = np.concatenate(([0.0], enter[came], leave[left]))
        square = eps * e * e
        jumps = np.concatenate(([rate], -square[came], square[left]))
        # the root mostly lies among the first quarter of the kinks: sort
        # those, and all of them only if the slope stays positive there
        for size in (min(times.size, 512 + times.size // 4), times.size):
            order = np.argpartition(times, size - 1)[:size]
            order = order[np.argsort(times[order])]
            # from the k-th kink on, the slope is offsets[k] + rates[k] t
            kinks, jump = times[order], jumps[order]
            rates, offsets = np.cumsum(jump), slope - np.cumsum(jump * kinks)
            below = offsets + rates * kinks <= 0.0
            if below.any() or size == times.size:
                break
        # the segment where the slope reaches 0, -1 (the last) if none does;
        # the kink before the first slope <= 0 is the last at its time
        k = int(np.argmax(below)) - 1
        return offsets[k] / -rates[k] if rates[k] < 0.0 else np.inf

    g = Qt.T @ y
    u = control(g)
    grad, exact = Qt @ u - c - weight * y, False
    lower, upper = u <= lo, u >= hi
    while True:
        yield y, u, grad, exact, g
        if exact and weight > 0.0:
            return
        QF = Qt.compress(~(lower | upper), axis=1)
        M = diag + eps * (QF @ QF.T)
        if weight > 0.0:
            step = np.linalg.solve(M, grad)
        else:
            step, _, rank, _ = np.linalg.lstsq(M, grad, rcond=None)
        if exact:
            if rank == c.size:
                return
            step = grad - M @ step
            d = Qt.T @ step
            t = root(step, d, np.flatnonzero(d))
            if t == np.inf:
                yield step, u, grad, exact, d
                return
        else:
            y_t = y + step
            g_t = Qt.T @ y_t
            u_t = control(g_t)
            grad_t = Qt @ u_t - c - weight * y_t
            lower_t, upper_t = u_t <= lo, u_t >= hi
            changed = (lower_t != lower) | (upper_t != upper)
            exact = not changed.any()
            if exact or float(step @ grad_t) >= 0.0:
                y, g, u, grad, lower, upper = y_t, g_t, u_t, grad_t, lower_t, upper_t
                continue
            d = g_t - g
            t = min(root(step, d, np.flatnonzero(changed)), 1.0)
        y_t = y + t * step
        if np.array_equal(y_t, y):
            return
        y, g, exact = y_t, g + t * d, False
        u = control(g)
        grad = Qt @ u - c - weight * y
        lower, upper = u <= lo, u >= hi


def dykstra_min_energy(aff: AffineData, bounds: Bounds, tol: float = 1e-9,
                       max_iter: int = 200) -> tuple[ControlTrajectory, ProjectionStats]:
    """Minimum-norm control in the box and the affine set: ``dual_newton``
    with center 0, eps = 1 and weight 0 from y = -c, whose u(y) clips the
    minimum-norm control Qt^T c = G^T W^{-1} xi.  The name predates the
    method and stays until the benchmark revision (ROADMAP item 1), as
    ``perfbench/tracing.py`` wraps this function by name.  Each iterate, the start included, counts toward ``max_iter``.
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
