from __future__ import annotations

import numpy as np
import pytest

from ctrlgap import (BoundarySpec, Bounds, LinearSystem, builtin_instance, build_affine)
from ctrlgap.exchange import LEVEL, Vertex

# Exact discrete a_c at N=1000 from a bounded-variable LP (HiGHS), each
# matched by its dual bound to 1e-15 relative.
LP_A_C_1000 = {"double_integrator": 2.415921159642151,
               "damped_oscillator": 0.5419200555639977,
               "machine_tool": 1774.813234324145}


@pytest.fixture(scope="session")
def di_instance():
    return builtin_instance("double_integrator")


@pytest.fixture(scope="session")
def di_aff_2000(di_instance):
    grid = di_instance.system.grid(2000)
    return grid, build_affine(di_instance.system, grid, di_instance.boundary)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def scalar_integrator(t0=0.0, tf=1.0):
    """1-state system x' = u."""
    return LinearSystem([[0.0]], [[1.0]], t0, tf)


def tiny_affine(system, N, x0, xf):
    grid = system.grid(N)
    return grid, build_affine(system, grid, BoundarySpec(x0=x0, xf=xf))


def random_tiny_problem(rng, max_coords=8):
    """Random small instance for oracle cross-checks: N*m <= max_coords."""
    n = int(rng.integers(1, 3))
    m = int(rng.integers(1, 3))
    N = int(rng.integers(max(2, n), max(2, max_coords // m) + 1))
    while N * m > max_coords:
        N -= 1
    A = rng.normal(0, 1, (n, n))
    B = rng.normal(0, 1, (n, m))
    # reject near-singular reachability before building
    system = LinearSystem(A, B, 0.0, 1.0)
    grid = system.grid(N)
    x0 = rng.normal(0, 1, n)
    xf = rng.normal(0, 1, n)
    aff = build_affine(system, grid, BoundarySpec(x0=x0, xf=xf))
    if not aff.controllable:
        return None
    lo = -np.abs(rng.normal(0.3, 0.3, m)) - 0.05
    hi = np.abs(rng.normal(0.3, 0.3, m)) + 0.05
    return grid, aff, Bounds(lower=lo, upper=hi)


def ill_conditioned_affines():
    """The controllable ones among 180 random 4-state systems (seeds 1-3),
    whose row-scaled Gram matrices reach cond 3e10."""
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            A, B = rng.normal(0, 2, (4, 4)), rng.normal(0, 1, (4, 1))
            N = int(rng.integers(20, 300))
            x0, xf = rng.normal(0, 1, 4), rng.normal(0, 1, 4)
            system = LinearSystem(A, B, 0.0, 1.0)
            aff = build_affine(system, system.grid(N), BoundarySpec(x0=x0, xf=xf))
            if aff.controllable:
                yield aff


def two_input_draw(k):
    """The system and boundary of the k-th (from 1) of the random two-input
    systems drawn from default_rng(21) in the order n, N, A, B, x0, xf."""
    rng = np.random.default_rng(21)
    for _ in range(k):
        n, N = int(rng.integers(2, 8)), int(rng.integers(50, 1500))
        A = rng.normal(0, float(rng.choice([2.0, 4.0])), (n, n))
        B = rng.normal(0, 1, (n, 2))
        x0, xf = rng.normal(0, 1, n), rng.normal(0, 1, n)
    system = LinearSystem(A, B, 0.0, 1.0)
    return system, system.grid(N), BoundarySpec(x0=x0, xf=xf)


def gram(aff):
    """The Gram matrix W = G G^T, formed from G and not from the basis."""
    return aff.G @ aff.G.T


def gram_solve(aff, r):
    """W^{-1} r solved with W scaled to unit diagonal, refined once against W:
    a reference for the multiplier that the solvers form in the basis."""
    W = gram(aff)
    d = np.sqrt(np.diag(W))
    Ws = W / np.outer(d, d)
    y = np.linalg.solve(Ws, r / d) / d
    return y + np.linalg.solve(Ws, (r - W @ y) / d) / d


def scaled_residual(aff, u):
    """|D^{-1}(G u - xi)| / (1 + |D^{-1} xi|), D = sqrt(diag W)."""
    d = np.sqrt(np.diag(gram(aff)))
    return np.linalg.norm((aff.G @ u - aff.xi) / d) / (1.0 + np.linalg.norm(aff.xi / d))


def counting(counts):
    """An ndarray subclass whose views count, in ``counts``, their products
    with a vector and, through lo, the controls u(y) that the kernel forms,
    each of which clips once against it."""

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            inputs = [x.view(np.ndarray) if isinstance(x, Counting) else x for x in inputs]
            if ufunc is np.matmul and min(np.ndim(x) for x in inputs) == 1:
                counts["products"] += 1
            elif ufunc is np.maximum:
                counts["evaluations"] += 1
            return getattr(ufunc, method)(*inputs, **kwargs)

    return Counting


# Verbatim copies of the exchange's pivots and the descent's steps as they
# were before their bookkeeping was made leaner, kept as references: the
# kernel must still give the same vertices and gap pairs bit for bit.  Each
# calls the copies here, never the package's own first_kink and flip.


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


def _descend(box: _Workspace, b: np.ndarray, y: np.ndarray, g: np.ndarray, Z: list[int],
             budget: int) -> tuple[np.ndarray, int, bool]:
    """The descent of the module docstring from ``y``, g = Qt^T y, 0 on the
    kink set ``Z``, in at most ``budget`` steps: the box point of its last
    piece, the steps and whether the optimality test passed."""
    Qt, z, w = box.aff.basis[0], box.z, box.w
    # w_k sign(g_k), 0 on Z: uB = z - ws off Z, and Qt ws is the gradient
    # of the sum there
    ws = w * np.sign(g)
    r = Qt @ ws
    steps, optimal = 0, False
    while steps < budget:
        steps += 1
        QZ = Qt[:, Z]
        v = b + r
        # the piece's minimizer y + p, with u_Z = z_Z + x there
        x = np.linalg.lstsq(QZ, v, rcond=None)[0]
        p = QZ @ x - v - y
        e = Qt.T @ p
        e[Z] = 0.0
        end = g + e
        cross = np.flatnonzero(g * end < 0.0)
        times = g[cross] / (g[cross] - end[cross])
        pp = float(p @ p)
        # F's slope along p is (t - 1) |p|^2 plus the jumps passed
        k, jumps = first_kink(times, 2.0 * np.abs(ws[cross] * e[cross]), -pp, pp)
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
            Z.append(int(cross[k]))
            g[Z[-1]] = 0.0
            flip(Qt, ws, r, np.array(Z[-1:]), np.zeros(1))
        elif t == 1.0:
            ratio = np.abs(x) / w[Z]
            worst = float(np.max(ratio, initial=0.0))
            if worst <= 1.0 + LEVEL:
                optimal = True
                break
            # release the node furthest out, with those tied with it to
            # rounding: the copies of one column share its value
            out = ratio >= worst * (1.0 - LEVEL)
            nodes = np.array(Z)[out]
            Z = [k for k, o in zip(Z, out) if not o]
            flip(Qt, ws, r, nodes, -w[nodes] * np.sign(x[out]))
    if not optimal:
        x = np.linalg.lstsq(Qt[:, Z], b + r, rcond=None)[0]
    # the bounds themselves, as z - w and z + w may round off them
    u = np.where(ws > 0.0, box.lo, np.where(ws < 0.0, box.hi, z))
    u[Z] = np.clip(z[Z] + x, box.lo[Z], box.hi[Z])
    return u, steps, optimal
