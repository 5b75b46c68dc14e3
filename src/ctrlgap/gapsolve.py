"""Best-approximation (gap) solver for the infeasible box/affine pair.

``solve_gap(aff, bounds, tol, max_iter)`` computes the pair (uA, uB)
minimizing the step-weighted distance between the boundary-value affine
set of the transcription ``aff`` and the box ``bounds``, on the
orthonormal basis ``AffineData.basis`` = (Qt, c) of range(G^T): P_affine(u)
= u - Qt^T s with s = Qt u - c, so a box point's gap is sqrt(h) |Qt u - c|.
The paper's alternating projections, Douglas-Rachford splitting and the
restarted accelerated projection of O'Donoghue and Candes (Found. Comput.
Math. 15, 2015) are not solvers here; the tests replay them as oracles
that must land in the certified interval below.

With the box as z + [-w, w] and b = c - Qt z (``exchange``), uB is optimal
exactly when y = Qt uB - c minimizes the dual

  F(y) = |y|^2 / 2 + b.y + sum_k w_k |g_k|,  g = Qt^T y,

with uB = z - w sign(g) where g != 0.  F is strongly convex and piecewise
quadratic, kinked where some g_k = 0, and at most n <= 7 nodes sit on a
kink, inside the box, at its minimizer: uB is bang-bang with the gap
vector as its switching function, as the paper proves.  The solve:

1. ``exchange.critical_vertex`` finds the critical vertex s, b.s = 1, and
   ``exchange.certified_ends`` the ends of the box's critical scaling t_c.
2. If its value sum_k w_k |(Qt^T s)_k| is at least b.s, the box meets the
   set: y = 0, and the vertex control clipped into the box is the answer.
3. Else an exact active-set descent on F (Hintermueller, Ito and Kunisch,
   SIAM J. Optim. 13, 2003) starts from y = -lambda s, lambda minimizing F
   along -s, with the vertex's nodes at their kink as its kink set Z.
   Each step heads for the minimizer of F's current piece subject to g_Z =
   0 and stops at F's minimum on the way, where the slope, jumping by 2 w_k
   |e_k| where g_k changes sign (e = Qt^T of the step), reaches 0: one
   sorted pass over the breakpoints.  A breakpoint that ends a step adds
   its node to Z.  At the piece's minimizer a least-squares solve gives
   u_Z, and the descent releases the node furthest outside the box or
   stops at the optimum.
4. ``_certify`` certifies the box point: its gap |v| is an upper end on
   the true gap and ``project.gap_lower_bound`` of its multiplier Qt u - c
   a lower end, ``gap_lower``.  It is certified once gap - gap_lower <= tol
   gap, or once the gap is at most tol sqrt(h) (1 + |D^{-1} xi|), D =
   sqrt(diag W), the floor that lets a feasible box, whose lower end is 0,
   end too.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .discretize import AffineData, ControlTrajectory, weighted_norm
from .exchange import LEVEL, Vertex, certified_ends, critical_vertex, first_kink, flip
from .model import Bounds
from .project import check_stopping, gap_lower_bound


# Default cap on pivots and descent steps; the builtins take a few dozen.
MAX_ITER = 1_000


class GapResult(NamedTuple):
    """Best-approximation pair and solve diagnostics.

    uA = uB - Qt^T s with s = Qt uB - c; ``uB`` is inside the box exactly
    and ``uA`` on the affine set to rounding.  The gap vector ``v`` is not
    stored: the property forms ``uA - uB``, which lies in the range of G^T
    and whose step-weighted norm is ``gap_norm``.  The true gap lies in
    [``gap_lower``, ``gap_norm``], gap_lower from ``gap_lower_bound``.
    ``iterations`` counts pivots and descent steps, ``diagnostics["pivots"]``
    the pivots.  ``diagnostics["finish"]`` is ``"exact"`` when the pair passed the
    optimality test (the exchange's for a feasible box, else the
    descent's), so it is the exact discrete optimum up to rounding, and
    ``"cut"`` when it did not.  ``diagnostics["stop"]`` is ``"certified"``
    (then ``converged``), ``"max_iter"`` when a cut solve used all of
    ``max_iter``, or ``"rounding"`` otherwise: rounding keeps an exact
    finish's certificate from ``tol``, or ended the pivots or steps below
    the cap (dependent vertex columns, or no descent or no turn of the
    slope along an edge).  ``scale`` = (lower, upper) holds the certified
    ends of the scaling t_c at which the box scaled about its centre meets
    the affine set, (0, 0) when the centre lies on it; ``brute_force_gap``
    leaves it None.
    """

    uA: ControlTrajectory
    uB: ControlTrajectory
    gap_norm: float
    iterations: int
    converged: bool
    diagnostics: dict
    gap_lower: float = 0.0
    scale: tuple[float, float] | None = None

    @property
    def v(self) -> ControlTrajectory:
        """The gap vector ``uA - uB``, formed on each access."""
        return ControlTrajectory(values=self.uA.values - self.uB.values, grid=self.uA.grid)


class _Workspace:
    """The affine data and the box as flat per-coordinate bounds, with its
    centre z and half-widths w."""

    def __init__(self, aff: AffineData, lo: np.ndarray, hi: np.ndarray):
        self.aff = aff
        self.h = aff.grid.h
        self.lo = lo.reshape(-1)
        self.hi = hi.reshape(-1)
        self.z, self.w = 0.5 * (self.lo + self.hi), 0.5 * (self.hi - self.lo)


def feasible_floor(aff: AffineData, tol: float) -> float:
    """The gap tol sqrt(h) (1 + |D^{-1} xi|), D = sqrt(diag W), at or below
    which a solve at ``tol`` ends certified (module docstring)."""
    _, c, Rhat = aff.basis
    return tol * np.sqrt(aff.h) * (1.0 + float(np.linalg.norm(Rhat.T @ c)))


def _certify(ws: _Workspace, u: np.ndarray) -> tuple[np.ndarray, float, float]:
    """The projection uA = P_affine(u) of the box point ``u``, the gap |uA -
    u| (an upper bound on the true gap) and the dual floor
    ``gap_lower_bound`` of the multiplier s = Qt u - c (a lower one)."""
    Qt, c, _ = ws.aff.basis
    s = Qt @ u - c
    g = Qt.T @ s
    uA = u - g
    # the norm of the difference that GapResult.v forms, not of g
    return uA, weighted_norm(uA - u, ws.h), gap_lower_bound(ws.aff, ws.lo, ws.hi, s, g)


def _descend(box: _Workspace, b: np.ndarray, y: np.ndarray, g: np.ndarray, Z: np.ndarray,
             budget: int) -> tuple[np.ndarray, int, bool]:
    """The descent of the module docstring from ``y``, g = Qt^T y, 0 on the
    kink set ``Z`` (node indices), in at most ``budget`` steps: the box
    point of its last piece, the steps and whether the optimality test
    passed."""
    Qt, z, w = box.aff.basis[0], box.z, box.w
    # w_k sign(g_k), 0 on Z: uB = z - ws off Z, and Qt ws is the gradient
    # of the sum there
    ws = w * np.sign(g)
    r = Qt @ ws
    QZ = Qt[:, Z]
    steps, optimal = 0, False
    while steps < budget:
        steps += 1
        v = b + r
        # the piece's minimizer y + p, with u_Z = z_Z + x there
        x = np.linalg.lstsq(QZ, v, rcond=None)[0]
        p = QZ @ x - v - y
        e = Qt.T @ p
        e[Z] = 0.0
        end = g + e
        cross = np.flatnonzero(g * end < 0.0)
        g_cross = g[cross]
        times = g_cross / (g_cross - end[cross])
        pp = float(p @ p)
        # F's slope along p is (t - 1) |p|^2 plus the jumps passed
        k, jumps, _ = first_kink(times, 2.0 * np.abs(ws[cross] * e[cross]), -pp, pp)
        t = 1.0 - jumps / pp if pp > 0.0 else 1.0
        kink = k >= 0 and t >= times[k]
        if kink:
            t = times[k]
        # the nodes whose kinks the step passes change sign, and a kink that
        # ends it adds its node to Z
        passed = cross[times < t]
        flip(Qt, ws, r, passed, -ws[passed])
        y, g = y + t * p, end if t == 1.0 else g + t * e
        if kink:
            node = cross[k:k + 1]
            Z = np.concatenate((Z, node))
            QZ = Qt[:, Z]
            g[node] = 0.0
            flip(Qt, ws, r, node, np.zeros(1))
        elif t == 1.0:
            ratio = np.abs(x) / w[Z]
            worst = float(np.max(ratio, initial=0.0))
            if worst <= 1.0 + LEVEL:
                optimal = True
                break
            # release the node furthest out, with those tied with it to
            # rounding: the copies of one column share its value
            out = ratio >= worst * (1.0 - LEVEL)
            nodes, keep = Z[out], ~out
            Z, QZ = Z[keep], QZ[:, keep]
            flip(Qt, ws, r, nodes, -w[nodes] * np.sign(x[out]))
    if not optimal:
        x = np.linalg.lstsq(QZ, b + r, rcond=None)[0]
    # the bounds themselves, as z - w and z + w may round off them
    u = np.where(ws > 0.0, box.lo, np.where(ws < 0.0, box.hi, z))
    u[Z] = np.clip(z[Z] + x, box.lo[Z], box.hi[Z])
    return u, steps, optimal


# From _BLOCK_MIN_COORDS control coordinates up, the exchange starts from
# the vertex on controls constant on blocks of _BLOCK nodes in the box: Qt
# u = Qt_B u_B, Qt_B the block sums of Qt's columns per input, so s keeps
# its meaning.
_BLOCK_MIN_COORDS = 16_384
_BLOCK = 64


def _vertex(box: _Workspace, b: np.ndarray, max_pivots: int) -> Vertex:
    """The box's critical vertex, from the blocks' one when the box holds a
    block-constant control; the pivots on the blocks count too."""
    Qt, c, _ = box.aff.basis
    m, N, w = box.aff.m, box.aff.grid.N, box.w
    if box.lo.size < _BLOCK_MIN_COORDS:
        return critical_vertex(Qt, b, w, max_pivots)
    starts = np.arange(0, N, _BLOCK)
    lo = np.maximum.reduceat(box.lo.reshape(-1, m), starts).reshape(-1)
    hi = np.minimum.reduceat(box.hi.reshape(-1, m), starts).reshape(-1)
    if np.any(lo >= hi):
        return critical_vertex(Qt, b, w, max_pivots)
    Qt_B = np.add.reduceat(Qt.reshape(c.size, N, m), starts, axis=1).reshape(c.size, -1)
    blocks = critical_vertex(Qt_B, c - Qt_B @ (0.5 * (lo + hi)), 0.5 * (hi - lo), max_pivots)
    reach = float(b @ blocks.s)
    vertex = critical_vertex(Qt, b, w, max_pivots - blocks.pivots,
                             blocks.s / reach if reach > 0.0 else None)
    return vertex._replace(pivots=vertex.pivots + blocks.pivots)


def solve_gap(aff: AffineData, bounds: Bounds, tol: float = 1e-9,
              max_iter: int = MAX_ITER) -> GapResult:
    """Run the stages of the module docstring on the transcription ``aff``
    and the box ``bounds`` within ``max_iter`` pivots and steps.

    ``tol``, positive and finite, bounds the certified relative duality gap
    (gap - gap_lower) / gap of the answer, with the absolute floor for
    feasible boxes given in the module docstring; ``max_iter`` is at least
    1.  The returned pair is the certified box point uB and its projection
    uA onto the affine set, so uB is box-feasible exactly and uA satisfies
    the affine constraint to rounding.
    """
    check_stopping(tol, max_iter)
    box = _Workspace(aff, *bounds.sample(aff.grid, aff.m))
    Qt, c, _ = aff.basis
    b = c - Qt @ box.z
    if not b.any():  # the box's centre lies on the affine set
        u, pivots, steps, optimal, scale = box.z, 0, 0, True, (0.0, 0.0)
    else:
        vertex = _vertex(box, b, max_iter)
        pivots, reach = vertex.pivots, float(b @ vertex.s) - vertex.value
        *scale, u = certified_ends(Qt, c, b, box.z, box.w, vertex)
        if reach <= 0.0:
            u, steps, optimal = np.minimum(np.maximum(u, box.lo), box.hi), 0, vertex.optimal
        else:
            lam = reach / float(vertex.s @ vertex.s)
            u, steps, optimal = _descend(box, b, -lam * vertex.s, -lam * vertex.g,
                                         vertex.K, max_iter - pivots)
    uA, gap, gap_lower = _certify(box, u)
    certified = gap - gap_lower <= tol * gap or gap <= feasible_floor(aff, tol)
    cut = not optimal and pivots + steps >= max_iter
    stop = "certified" if certified else "max_iter" if cut else "rounding"
    uA, uB = (ControlTrajectory.from_flat(x, aff.grid, aff.m) for x in (uA, u))
    return GapResult(uA=uA, uB=uB, gap_norm=gap, iterations=pivots + steps,
                     converged=stop == "certified", gap_lower=gap_lower,
                     scale=tuple(scale),
                     diagnostics={"stop": stop, "finish": "exact" if optimal else "cut",
                                  "pivots": pivots})
