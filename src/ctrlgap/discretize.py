"""Forward-Euler transcription of the boundary-value control set.

The continuous set of admissible controls (those steering x0 to xf) is
replaced by the affine set { u : G u = xi } acting on stacked piecewise-
constant control values.  The map G and the step-matrix product Phi are
assembled once per (system, grid, boundary).  Every solver and
certificate runs on one representation of that set, the orthonormal basis
(Qt, c) of range(G^T) in ``AffineData.basis``, and the same Householder QR
of G^T decides controllability on the grid; it is built on first use.
``AffineData.coarse`` is the set of controls constant on blocks of nodes,
from which the gap solver starts on long grids.

With constant matrices every Euler step is the same affine map
x -> M x + hB u, M = I + hA, so nothing needs a per-step Python loop: G
is built by doubling its column blocks (the last L blocks times M^L give
the L before them), Phi = M^N by binary powering, and ``simulate`` is a
Hillis-Steele prefix scan over the step maps.  Time-varying systems keep
the per-step loop, and so does any constant-matrix result with a
non-finite entry: the loop then decides whether the rollout overflows
and at which step.

Norms on control space carry the step weight h so that they approximate
the L2 norm of the step-function interpolant; the scalar weight cancels
inside the affine projection formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .controllability import gramian_report
from .errors import SimulationOverflowError, UncontrollableGridError
from .model import BoundarySpec, Grid, LinearSystem

# Nodes per block of ``AffineData.coarse``.
COARSE_BLOCK = 64


@dataclass(frozen=True)
class ControlTrajectory:
    """N-by-m control samples; row k applies on [t_k, t_{k+1})."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.shape[0] != self.grid.N:
            raise ValueError(f"control values must have {self.grid.N} rows, "
                             f"got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("control values contain non-finite entries")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def flat(self) -> np.ndarray:
        """Row-major stacked values, matching G's column blocks."""
        return self.values.reshape(-1)

    @classmethod
    def from_flat(cls, flat: np.ndarray, grid: Grid, m: int) -> "ControlTrajectory":
        return cls(values=np.asarray(flat, dtype=float).reshape(grid.N, m), grid=grid)

    @classmethod
    def zeros(cls, grid: Grid, m: int) -> "ControlTrajectory":
        return cls(values=np.zeros((grid.N, m)), grid=grid)


@dataclass(frozen=True)
class StateTrajectory:
    """(N+1)-by-n state samples on all grid nodes."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != self.grid.N + 1:
            raise ValueError(f"state values must have {self.grid.N + 1} rows, "
                             f"got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("state values contain non-finite entries")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def last(self) -> np.ndarray:
        return self.values[-1]


@dataclass(frozen=True)
class AffineData:
    """Discrete reachability data: { u : G u = xi } equals the transcribed
    boundary-value set, with Phi the ordered product of step matrices.
    ``controllable`` (G has full row rank) and ``basis``, the form of the set
    that every solver runs on, both read one QR of G^T, built on first use."""

    G: np.ndarray
    xi: np.ndarray
    Phi: np.ndarray
    grid: Grid
    m: int

    @property
    def n(self) -> int:
        return self.G.shape[0]

    @property
    def h(self) -> float:
        return self.grid.h

    def residual(self, u: np.ndarray) -> float:
        """|G u - xi| of the flat control ``u``, evaluated on G itself."""
        return float(np.linalg.norm(self.G @ u - self.xi))

    @cached_property
    def _factor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Q^T, Rhat, d) of the Householder QR G^T = Q R: Rhat = R D^{-1}, D =
        diag(d) the row norms of G, with d = 1 on a zero row of G."""
        Q, R = np.linalg.qr(self.G.T)
        d = np.sqrt(np.diag(self.G @ self.G.T))
        d[d == 0.0] = 1.0
        return np.ascontiguousarray(Q.T), R / d, d

    @property
    def controllable(self) -> bool:
        """The verdict of ``gramian_report`` on this grid."""
        return gramian_report(self).controllable

    @cached_property
    def basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Qt, c, Rhat) with { u : Qt u = c } = { u : G u = xi } and the rows
        of Qt an orthonormal basis of range(G^T), so P_affine(u) = u - Qt^T s
        with s = Qt u - c, and the unit-column Rhat with D^{-1} G = Rhat^T Qt,
        D the row norms of G, so the row-scaled residual D^{-1}(G u - xi) is
        Rhat^T s.

        From the Householder QR G^T = Q R: Qt = Q^T, Rhat = R D^{-1} and c =
        R^{-T} xi, solved as Rhat^{-T} D^{-1} xi.  Unlike the normal
        equations through G G^T, this keeps the accuracy of G on badly
        conditioned grids (Bjorck, Numerical Methods for Least Squares
        Problems, SIAM 1996, ch. 2).  The arrays are read-only and Qt is
        C-contiguous.  Built on first access and kept; raises
        ``UncontrollableGridError`` when the grid is not ``controllable``.
        """
        if not self.controllable:
            raise UncontrollableGridError(
                "triangular factor of the reachability map is singular to working "
                "precision; the discrete system is uncontrollable on this grid")
        Qt, Rhat, d = self._factor
        c = np.linalg.solve(Rhat.T, self.xi / d)
        for arr in (Qt, c, Rhat):
            arr.flags.writeable = False
        return Qt, c, Rhat

    @cached_property
    def coarse(self) -> "AffineData":
        """The same set restricted to controls constant on the contiguous
        blocks of ``COARSE_BLOCK`` nodes (the last block holds the rest):
        G u for such a u is the product of the block column sums of G, per
        input, with the block values, so any N and time-varying systems need
        no second transcription.  Its grid has one node per block on the same
        interval.  Built on first access and kept, like ``basis``."""
        N = self.grid.N
        G = np.add.reduceat(self.G.reshape(self.n, N, self.m),
                            np.arange(0, N, COARSE_BLOCK), axis=1)
        G = G.reshape(self.n, -1)
        G.flags.writeable = False
        grid = Grid(N=G.shape[1] // self.m, t0=self.grid.t0, tf=self.grid.tf)
        return AffineData(G=G, xi=self.xi, Phi=self.Phi, grid=grid, m=self.m)


def _sample_steps(system: LinearSystem, grid: Grid):
    """Yield (A_k, B_k) at the N left nodes; constant systems short-circuit."""
    if system.is_lti:
        A = np.asarray(system.A, dtype=float)
        B = np.asarray(system.B, dtype=float)
        for _ in range(grid.N):
            yield A, B
    else:
        for t in grid.left_nodes:
            yield system.a_at(t), system.b_at(t)


def _simulate_loop(system: LinearSystem, grid: Grid, x0: np.ndarray,
                   u: ControlTrajectory) -> np.ndarray:
    """Per-step rollout; raises at the first step with a non-finite state."""
    h = grid.h
    out = np.empty((grid.N + 1, system.n))
    out[0] = x0
    x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (A, B) in enumerate(_sample_steps(system, grid)):
            x = x + h * (A @ x + B @ u.values[k])
            if not np.all(np.isfinite(x)):
                raise SimulationOverflowError(
                    f"state overflowed at step {k + 1} of {grid.N}; the Euler "
                    f"step h={h:g} is unstable for this system")
            out[k + 1] = x
    return out


def _simulate_scan(system: LinearSystem, grid: Grid, x0: np.ndarray,
                   u: ControlTrajectory) -> np.ndarray:
    """Hillis-Steele inclusive scan of the affine steps x -> M x + hB u_k:
    with b[0] = x0 and b[k+1] = hB u_k, the pass with stride s adds
    M^s b[k-s] to b[k], so after ceil(log2(N+1)) passes b[k] = x_k."""
    b = np.empty((grid.N + 1, system.n))
    b[0] = x0
    b[1:] = u.values @ (grid.h * system.B).T
    P, s = np.eye(system.n) + grid.h * system.A, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while s < b.shape[0]:
            b[s:] += b[:-s] @ P.T
            s *= 2
            if s < b.shape[0]:
                P = P @ P
    return b


def simulate(system: LinearSystem, grid: Grid, x0: np.ndarray,
             u: ControlTrajectory) -> StateTrajectory:
    """Forward-Euler rollout x_{k+1} = x_k + h (A_k x_k + B_k u_k).

    Constant-matrix systems run as a log-depth scan over the affine step
    maps; time-varying systems run the per-step loop.  The loop also
    decides every scan with a non-finite entry, since an overflowing power
    M^s can turn a finite rollout into NaN (0 * inf): it returns the
    states, or raises ``SimulationOverflowError`` naming the first step
    whose state is not finite.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != system.n:
        raise ValueError(f"x0 must have length {system.n}, got {x0.size}")
    if u.grid != grid:
        raise ValueError("control trajectory lives on a different grid")
    if u.m != system.m:
        raise ValueError(f"control has {u.m} channels, system expects {system.m}")
    out = _simulate_scan(system, grid, x0, u) if system.is_lti else None
    if out is None or not np.isfinite(out).all():
        out = _simulate_loop(system, grid, x0, u)
    return StateTrajectory(values=out, grid=grid)


def _affine_loop(system: LinearSystem, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(G, Phi) by accumulating the step matrices from the last step back."""
    n, m, h = system.n, system.m, grid.h
    G = np.empty((n, grid.N * m))
    steps = list(_sample_steps(system, grid))
    P = np.eye(n)
    eye = np.eye(n)
    for k in range(grid.N - 1, -1, -1):
        A, B = steps[k]
        G[:, k * m:(k + 1) * m] = P @ (h * B)
        P = P @ (eye + h * A)
    return G, P


def _affine_doubling(system: LinearSystem, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(G, Phi) of a constant-matrix system: column block k of G is
    M^(N-1-k) hB, so the last L blocks times M^L give the L blocks before
    them.  Doubling the n-by-m blocks, not a stack of n-by-n powers, keeps
    the work and memory at the size of G."""
    N, m = grid.N, system.m
    M = np.eye(system.n) + grid.h * system.A
    G = np.empty((system.n, N * m))
    G[:, (N - 1) * m:] = grid.h * system.B
    P, L = M, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while L < N:
            k = min(L, N - L)
            G[:, (N - L - k) * m:(N - L) * m] = P @ G[:, (N - k) * m:]
            L += k
            if L < N:
                P = P @ P
        Phi = np.linalg.matrix_power(M, N)
    return G, Phi


def build_affine(system: LinearSystem, grid: Grid,
                 boundary: BoundarySpec) -> AffineData:
    """Assemble the reachability map for fixed-endpoint data.

    Column block k of G is (prod_{j=N-1..k+1} (I + h A_j)) h B_k, so that
    the Euler terminal state equals Phi x0 + G u for stacked controls u.
    Constant-matrix systems build G by doubling and Phi = M^N by binary
    powering; time-varying systems, and constant ones whose doubled G or
    Phi has a non-finite entry, accumulate the step matrices one by one.
    """
    if boundary.n != system.n:
        raise ValueError(f"boundary dimension {boundary.n} != state dimension {system.n}")
    G = P = None
    if system.is_lti:
        G, P = _affine_doubling(system, grid)
    if G is None or not (np.isfinite(G).all() and np.isfinite(P).all()):
        G, P = _affine_loop(system, grid)
    xi = boundary.xf - P @ boundary.x0
    for arr in (G, xi, P):
        arr.flags.writeable = False
    return AffineData(G=G, xi=xi, Phi=P, grid=grid, m=system.m)


def weighted_norm(values: np.ndarray, h: float) -> float:
    """sqrt(h * sum of squares); the step-weighted control-space norm."""
    v = np.asarray(values, dtype=float)
    return float(np.sqrt(h * np.dot(v.reshape(-1), v.reshape(-1))))


def l2_norm(u: ControlTrajectory) -> float:
    """Step-weighted norm sqrt(h sum_k |u_k|^2) of a control trajectory."""
    return weighted_norm(u.values, u.grid.h)
