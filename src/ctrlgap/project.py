"""The minimum-energy control in the box and the boundary-value affine set,
the multiplier that certifies them disjoint, and ``dual_newton``, the
semismooth Newton kernel (Hintermueller, Ito and Kunisch, SIAM J. Optim.
13, 2003) on the n-dimensional dual of min over the box of |u|^2 / 2
subject to Qt u = c (``dykstra_min_energy``).  All of it runs on the
orthonormal form {u : Qt u = c} of ``AffineData.basis``: the multiplier of
u is s = Qt u - c, and Qt^T s = G^T W^{-1} r, r = G u - xi, with no solve
through the rounded W.  n is at most 7 in every benchmark while N*m can
reach 2e5, so the kernel solves n-by-n systems.  The dual is concave and
piecewise quadratic, kinked where a node of u meets a bound, so each step
goes to its maximum along the Newton direction, with no
sufficient-decrease test.  The slope's root there comes from
``exchange.first_kink``, the sorted pass over the kinks that the exchange
and the gap solver's descent use too, in two tiers.  The gap solver shares
the certificate ``gap_lower_bound`` but not the kernel.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from .discretize import AffineData, ControlTrajectory
from .errors import InfeasibleIntersectionError
from .exchange import ROUNDING, first_kink
from .model import Bounds

# Allowance for the floating-point error of a margin, relative to the size
# of its terms: 8 units in the last place, ten times the largest error of
# the margins of 111 builtin gap answers against extended precision.
MARGIN_ERROR = 8 * float(np.finfo(float).eps)
# Default cap on the Newton iterates of a minimum-energy solve.
NEWTON_MAX_ITER = 200


class ProjectionStats(NamedTuple):
    """Diagnostics of a minimum-energy solve: the Newton iteration count and
    whether the row-scaled residual met the tolerance.  The affine residual
    |G u - xi| of the returned control u is ``aff.residual(u.flat)``."""

    iterations: int
    converged: bool


def check_stopping(tol: float, max_iter: int) -> None:
    """Raise ``ValueError`` unless ``tol`` is positive and finite and
    ``max_iter`` at least 1: the stopping rules of both solvers."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def gap_lower_bound(aff: AffineData, lo: np.ndarray, hi: np.ndarray, y: np.ndarray,
                    g: np.ndarray) -> float:
    """Certified floor under the distance between the box [lo, hi] and
    {u : Qt u = c}, from the multiplier y and g = Qt^T y.  Every box point
    has y.Qt u <= sigma_box(g) = sum_k max(g_k lo_k, g_k hi_k), so a margin
    c.y - sigma_box(g) > 0 (or the same for -y) separates the sets by
    sqrt(h) margin / |g|.  A margin within ``ROUNDING`` of the size of its
    terms is rounding: floor 0.  A larger one is lowered by ``MARGIN_ERROR``
    of that size first, so the floor stays below every box point's gap
    despite the rounding of the sums."""
    c = aff.basis[1]
    xy = float(y @ c)
    margin = max(xy - float(np.sum(np.maximum(g * lo, g * hi))),
                 float(np.sum(np.minimum(g * lo, g * hi))) - xy)
    size = abs(xy) + float(np.abs(g) @ np.maximum(np.abs(lo), np.abs(hi)))
    if margin <= ROUNDING * size:
        return 0.0
    return float(np.sqrt(aff.h)) * (margin - MARGIN_ERROR * size) / float(np.linalg.norm(g))


def dual_newton(Qt: np.ndarray, c: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                y: np.ndarray) -> Iterator[tuple]:
    """Yield (y, u(y), gradient, exact, g) for the start ``y`` and after
    every Newton step on the dual in the module docstring, g = Qt^T y as
    the kernel carries it: u(y) = clip(-g), the gradient is Qt u(y) - c
    and the Newton matrix M = Qt_F Qt_F^T, F the free nodes of u(y), is
    solved by least squares, as it can be singular.

    Along a direction p the dual's slope is piecewise linear and
    non-increasing: it falls at the rate p.M p at 0+, faster by e_k^2 once
    node k comes free and slower by as much once it meets a bound, e =
    Qt^T p.  A step takes t = 1 when the full step keeps the clip pattern
    or the slope there is not negative, else the slope's root in (0, 1),
    which ``first_kink`` reads off the kinks of the nodes whose clip status
    differs at t = 0 and t = 1: the 256 earliest sorted first, and all only
    if the slope stays positive through them.  The iteration ends when the
    root leaves y where it is.  An ``exact`` step, a full one that keeps
    the clip pattern, ends the iteration if M is regular; else the next
    step goes to the slope's root along the gradient's part off M's range,
    and if the slope never reaches 0 that ray separates the box from
    {u : Qt u = c}: it is yielded once more in place of y, with Qt^T ray in
    place of g, and the iteration ends.  A full step forms two products
    with Qt, Qt^T (y + p) and Qt u, and a shorter one a third, Qt u at the
    root."""

    def control(g):
        # 0 - g, not -g, so that a zero of g gives +0.0 in the written files
        u = 0.0 - g
        np.maximum(u, lo, out=u)
        return np.minimum(u, hi, out=u)

    def root(p, e, nodes):
        """The least t > 0 at which the dual's slope along p from y, e =
        Qt^T p, reaches 0, or inf if it never does, from the kinks of
        ``nodes``, where -(g + t e) meets a bound."""
        slope = float(grad @ p)
        if slope <= 0.0:
            return 0.0
        e, z = e[nodes], -g[nodes]
        ends = (z - lo[nodes]) / e, (z - hi[nodes]) / e
        enter, leave = np.minimum(*ends), np.maximum(*ends)
        # a node free at 0+ is in the rate already, and one that meets its
        # bound by t = 0 never comes free
        came, left = enter >= 0.0, leave > 0.0
        square = e * e
        times, rises = np.hstack(([enter[came], square[came]], [leave[left], -square[left]]))
        # -slope, rising at the rate p.M p at 0+, is continuous at the kinks
        _, before, rate = first_kink(times, -rises * times, -slope, float(p @ M @ p), rises)
        return (slope - before) / rate if rate > 0.0 else np.inf

    g = Qt.T @ y
    u = control(g)
    grad, exact = Qt @ u - c, False
    lower, upper = u <= lo, u >= hi
    while True:
        yield y, u, grad, exact, g
        QF = Qt.compress(~(lower | upper), axis=1)
        M = QF @ QF.T
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
            grad_t = Qt @ u_t - c
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
        grad = Qt @ u - c
        lower, upper = u <= lo, u >= hi


def dykstra_min_energy(aff: AffineData, bounds: Bounds, tol: float = 1e-9,
                       max_iter: int = NEWTON_MAX_ITER
                       ) -> tuple[ControlTrajectory, ProjectionStats]:
    """Minimum-norm control in the box and the affine set: ``dual_newton``
    from y = -c, whose u(y) clips the minimum-norm control Qt^T c = G^T
    W^{-1} xi.  The name predates the method and stays until the benchmark
    revision (ROADMAP item 1), as ``perfbench/tracing.py`` wraps this
    function by name.  Each iterate, the start included, counts toward
    ``max_iter``.  Ends converged once the row-scaled residual |D^{-1}(G u - xi)| =
    |Rhat^T (Qt u - c)|, D = sqrt(diag W), is at most ``tol`` (1 +
    |D^{-1} xi|); raises ``InfeasibleIntersectionError``, with y as its
    ``multiplier``, once ``gap_lower_bound`` certifies the multiplier y, or
    the ray that the kernel yields in its place, with the Qt^T y that the
    kernel yields; returns ``converged=False`` once the kernel ends
    uncertified, or after ``max_iter``."""
    check_stopping(tol, max_iter)
    lo, hi = (b.reshape(-1) for b in bounds.sample(aff.grid, aff.m))
    Qt, c, Rhat = aff.basis
    stop = tol * (1.0 + float(np.linalg.norm(Rhat.T @ c)))
    converged, iterations = False, 0
    for iterations, (y, u, s, _, g) in zip(range(1, max_iter + 1),
                                           dual_newton(Qt, c, lo, hi, -c)):
        if np.linalg.norm(Rhat.T @ s) <= stop:
            converged = True
            break
        if (floor := gap_lower_bound(aff, lo, hi, y, g)) > 0.0:
            error = InfeasibleIntersectionError(
                f"a dual multiplier separates the box from the boundary-value "
                f"set: their distance is at least {floor:.3e} (bound too small)")
            error.multiplier = y
            raise error
    return (ControlTrajectory.from_flat(u, aff.grid, aff.m),
            ProjectionStats(iterations, converged))
