"""The critical vertex of a box z + [-w, w] and the affine set {u : Qt u =
c}, by an exchange method on a linear program in n <= 7 unknowns.

With b = c - Qt z, the box scaled by t about its centre z meets the set
exactly when t >= t_c, where 1 / t_c = min sum_k w_k |(Qt^T s)_k| subject
to b.s = 1 (weak duality, Neustadt, J. SIAM Control 1, 1962); the box
|u| <= a is z = 0, w = a, with t_c = a_c / a.  At a vertex n - 1 entries
of g = Qt^T s vanish, on the vertex nodes Z where the critical control
leaves its bound: the paper's bang-bang theorem on the grid.

The exchange of Barrodale and Roberts (SIAM J. Numer. Anal. 10, 1973)
goes from vertex to vertex.  A pivot solves one n-by-n system for the
multipliers mu of Z and stops if every |mu_j| <= 1; else the node with the
largest |mu_j| leaves Z, s moves along the edge where the others stay at
0 to the minimum of the convex piecewise linear objective, whose slope
jumps by 2 w_k |e_k| where g_k changes sign (e = Qt^T d), found in one
sorted pass over those breakpoints, and that breakpoint's node enters Z.
From s = b / |b|^2, n - 1 such searches along steepest-descent directions
within {b.d = 0, Qt_Z^T d = 0} build the first vertex.  The ends of t_c are
certified apart from the pivots, so a wrong pivot can only widen them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .project import ROUNDING

# Relative rounding level: a multiplier within it of 1, a value within it of
# its bound, or a |g_k| or kink time within it of 0 counts as on it.
LEVEL = 1e-12


class Vertex(NamedTuple):
    """The exchange's last vertex: ``s`` with b.s = 1, ``g`` = Qt^T s, 0 on
    the nodes ``K`` at their kink (the vertex nodes and, to rounding, any
    copy of one's column), and ``value`` = sum_k w_k |g_k|.  ``v`` is w
    sign(g) off K and has the least-norm values on K with Qt v = ``scale``
    b, scale = value / b.s, which is 1 / t_c at an ``optimal`` vertex.
    ``pivots`` counts the searches and tests."""

    s: np.ndarray
    g: np.ndarray
    K: np.ndarray
    value: float
    v: np.ndarray
    scale: float
    pivots: int
    optimal: bool


def first_kink(times: np.ndarray, jumps: np.ndarray, offset: float,
               rate: float) -> tuple[int, float]:
    """The index into ``times`` of the kink, in time order, at which a slope
    offset + rate t, raised by ``jumps`` at ``times``, first becomes >= 0
    (-1 if never), and the sum of the jumps before it.  The 256 earliest
    kinks are sorted first, and all only if the slope stays negative through
    them, as in 56 of 1,393 such passes on 111 builtin gap solves."""
    count = times.size
    for size in (256, count) if count > 256 else (count,):
        order = np.argpartition(times, size - 1)[:size] if size < count else np.arange(count)
        order = order[np.argsort(times[order])]
        total = np.cumsum(jumps[order])
        hit = offset + rate * times[order] + total >= 0.0
        if hit.any():
            k = int(np.argmax(hit))
            return int(order[k]), float(total[k] - jumps[order[k]])
    return -1, float(total[-1]) if count else 0.0


def flip(Qt: np.ndarray, ws: np.ndarray, r: np.ndarray, nodes: np.ndarray,
         values: np.ndarray) -> None:
    """Set ws[nodes] = values and keep r = Qt ws, in place."""
    change = values - ws[nodes]
    ws[nodes] = values
    r += Qt.take(nodes, axis=1) @ change


def critical_vertex(Qt: np.ndarray, b: np.ndarray, w: np.ndarray, max_pivots: int,
                    s: np.ndarray | None = None) -> Vertex:
    """The exchange of the module docstring in at most ``max_pivots``
    pivots, from ``s`` (b.s = 1) or else b / |b|^2; b must not be 0."""
    n = b.size
    s = b / (b @ b) if s is None else s
    g = Qt.T @ s
    # w_k sign(g_k), 0 on Z, so Qt ws is the sum's gradient off Z
    ws = w * np.sign(g)
    r = Qt @ ws
    Z: list[int] = []
    pivots, optimal = 0, False
    while pivots < max_pivots:
        pivots += 1
        B = np.column_stack([b, Qt[:, Z]])
        leave = None
        try:
            if len(Z) < n - 1:
                d = B @ np.linalg.lstsq(B, r, rcond=None)[0] - r
            else:
                # r = t b - Qt_Z w_Z mu
                mu = -np.linalg.solve(B, r)[1:] / w[Z]
                leave = int(np.argmax(np.abs(mu))) if Z else -1
                if leave < 0 or abs(mu[leave]) <= 1.0 + LEVEL:
                    optimal = True
                    break
                # the edge: b.d = 0, and g stays 0 on Z but at the leaving
                # node, where it takes mu's sign
                rhs = np.zeros(n)
                rhs[1 + leave] = np.sign(mu[leave])
                d = np.linalg.solve(B.T, rhs)
        except np.linalg.LinAlgError:  # vertex nodes with dependent columns
            break
        node = None if leave is None else Z.pop(leave)
        e = Qt.T @ d
        e[Z] = 0.0
        # a node on its kink off Z, the leaving one among them, moves to
        # e's side at once
        zero = np.flatnonzero(g == 0.0)
        zero = zero[np.isin(zero, Z, invert=True)]
        flip(Qt, ws, r, zero, w[zero] * np.sign(e[zero]))
        slope = float(ws @ e)
        if slope >= 0.0:  # no descent along the edge: optimal to rounding
            if node is not None:
                Z.insert(leave, node)
                flip(Qt, ws, r, np.array([node]), np.zeros(1))
            optimal = node is not None
            break
        cross = np.flatnonzero(g * e < 0.0)
        times = -g[cross] / e[cross]
        k, _ = first_kink(times, 2.0 * np.abs(ws[cross] * e[cross]), slope, 0.0)
        if k < 0:  # the slope never turns: rounding
            break
        # the nodes passed change sign, and the kink's node enters Z
        passed = np.append(cross[times < times[k]], cross[k])
        flip(Qt, ws, r, passed, np.append(-ws[passed[:-1]], 0.0))
        s = s + times[k] * d
        g += times[k] * e
        Z.append(int(cross[k]))
        g[Z] = 0.0
    # the steps' updates drift: an optimal vertex's s afresh from b.s = 1 and
    # Qt_Z^T s = 0, and g afresh for the value and the signs that the lower
    # end and the control share
    if optimal and len(Z) == n - 1:
        # with b scaled to the columns' size, so that Qt_Z^T s is 0 to the
        # rounding of Qt's entries rather than of b's
        size = float(np.linalg.norm(b))
        s = np.linalg.solve(np.column_stack([b / size, Qt[:, Z]]).T, np.eye(n)[0] / size)
    g = Qt.T @ s
    value = float(w @ np.abs(g))
    scale = value / float(b @ s)
    # the values v_K on every node at its kink to rounding, Z and any copy of
    # a Z column: Qt v = scale b in least squares, whose least norm shares a
    # column's value among its copies; the test is repeated on them
    g[Z] = 0.0
    K = np.flatnonzero(np.abs(g) <= LEVEL * float(np.max(np.abs(g))))
    g[K] = 0.0
    v = w * np.sign(g)
    v[K] = np.linalg.lstsq(Qt[:, K], scale * b - Qt @ v, rcond=None)[0]
    optimal = optimal and bool(np.all(np.abs(v[K]) <= w[K] * (1.0 + LEVEL)))
    return Vertex(s, g, K, value, v, scale, pivots, optimal)


def certified_ends(Qt: np.ndarray, c: np.ndarray, z: np.ndarray, w: np.ndarray,
                   vertex: Vertex) -> tuple[float, float, np.ndarray]:
    """Ends lower <= t_c <= upper certified by ``vertex`` (Qt with
    orthonormal rows), each widened by ``ROUNDING``, and the control z + v
    / scale projected onto the affine set, which certifies the upper one."""
    b_s = float((c - Qt @ z) @ vertex.s)
    u = z + vertex.v / vertex.scale
    u -= Qt.T @ (Qt @ u - c)
    lower = b_s / vertex.value * (1.0 - ROUNDING) / (1.0 + ROUNDING) if vertex.value > 0.0 else 0.0
    return lower, float(np.max(np.abs(u - z) / w)) * (1.0 + ROUNDING), u
