"""Forward-Euler transcription of the boundary-value control set.

The continuous set of admissible controls (those steering x0 to xf) is
replaced by the affine set { u : G u = xi } acting on stacked piecewise-
constant control values, and ``AffineData`` holds it with its system and
grid; ``build_affine`` and ``simulate``, the only places where a grid
meets a system, refuse a grid off the system's horizon.  Every solver and
certificate takes the ``AffineData`` alone and runs on the orthonormal
basis (Qt, c) of range(G^T) in ``AffineData.basis``, whose Householder QR
of G^T also decides controllability on the grid; it is built on first use.

The matrices are constant, so every Euler step is the same affine map
x -> M x + hB u, M = I + hA, formed once by ``_step_map``, and nothing
needs a per-step Python loop: G is built by doubling its column blocks
(the last L blocks times M^L give the L before them), M^N, which forms
xi, by binary powering, and ``simulate`` is a Hillis-Steele prefix scan
over the step maps.  A G, M^N or xi with a non-finite entry is refused with
``SimulationOverflowError``: accumulated one step at a time, the same
blocks overflow too, and no solve can run on a non-finite G.  A scan with
a non-finite entry is redone by the per-step loop, which keeps a zero
state finite where a power M^s overflows and names the first step whose
state is not finite.

Norms on control space carry the step weight h so that they approximate
the L2 norm of the step-function interpolant; the scalar weight cancels
inside the affine projection formula.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .controllability import gramian_report
from .errors import SimulationOverflowError, UncontrollableGridError
from .model import BoundarySpec, Grid, LinearSystem, frozen_floats


class _ControlFields(NamedTuple):
    values: np.ndarray
    grid: Grid


class ControlTrajectory(_ControlFields):
    """N-by-m control samples, a read-only copy; row k applies on [t_k,
    t_{k+1})."""

    __slots__ = ()

    def __new__(cls, values, grid: Grid):
        if np.ndim(values) == 1:
            values = np.reshape(values, (-1, 1))
        arr = frozen_floats(values, "control trajectory")
        if arr.ndim != 2 or arr.shape[0] != grid.N:
            raise ValueError(f"control values must have {grid.N} rows, got shape {arr.shape}")
        return super().__new__(cls, arr, grid)

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


class _AffineFields(NamedTuple):
    G: np.ndarray
    xi: np.ndarray
    grid: Grid
    system: LinearSystem


class AffineData(_AffineFields):
    """Discrete reachability data: { u : G u = xi } equals the transcribed
    boundary-value set of ``system`` on ``grid``, whose horizons agree.
    ``controllable`` (G has full row rank) and ``basis``, the form of the set
    that every solver runs on, both read one QR of G^T, built on first use.
    The subclass has no ``__slots__``, so the cached QR, verdict and
    ``basis`` live in its instance ``__dict__``."""

    @property
    def n(self) -> int:
        return self.G.shape[0]

    @property
    def m(self) -> int:
        return self.system.m

    @property
    def h(self) -> float:
        return self.grid.h

    def residual(self, u: np.ndarray) -> float:
        """|G u - xi| of the flat control ``u``, evaluated on G itself."""
        return float(np.linalg.norm(self.G @ u - self.xi))

    @cached_property
    def _factor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Q^T, Rhat, d) of the Householder QR G^T = Q R: Rhat = R D^{-1}, D =
        diag(d) the row norms of G, with d = 1 on a zero row of G.  Q has
        orthonormal columns, so row j of G has the norm of column j of R,
        taken by ``hypot``, which does not overflow where |G_j|^2 would."""
        Q, R = np.linalg.qr(self.G.T)
        d = np.hypot.reduce(R, axis=0)
        d[d == 0.0] = 1.0
        return np.ascontiguousarray(Q.T), R / d, d

    @cached_property
    def controllable(self) -> bool:
        """The verdict of ``gramian_report`` on this grid, formed once."""
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


def _step_map(system: LinearSystem, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(M, hB) with M = I + h A: one forward-Euler step is x -> M x + hB u."""
    return np.eye(system.n) + h * system.A, h * system.B


def _simulate_loop(M: np.ndarray, hB: np.ndarray, x0: np.ndarray,
                   u: ControlTrajectory) -> np.ndarray:
    """Per-step rollout x -> M x + hB u_k, the fallback of a scan with a
    non-finite entry; raises at the first step with a non-finite state."""
    N = u.grid.N
    out = np.empty((N + 1, x0.size))
    out[0] = x0
    x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(N):
            x = M @ x + hB @ u.values[k]
            if not np.all(np.isfinite(x)):
                raise SimulationOverflowError(
                    f"state overflowed at step {k + 1} of {N}; the Euler "
                    f"step h={u.grid.h:g} is unstable for this system")
            out[k + 1] = x
    return out


def _simulate_scan(M: np.ndarray, hB: np.ndarray, x0: np.ndarray,
                   u: ControlTrajectory) -> np.ndarray:
    """Hillis-Steele inclusive scan of the affine steps x -> M x + hB u_k:
    with b[0] = x0 and b[k+1] = hB u_k, the pass with stride s adds
    M^s b[k-s] to b[k], so after ceil(log2(N+1)) passes b[k] = x_k."""
    b = np.empty((u.grid.N + 1, x0.size))
    b[0] = x0
    b[1:] = u.values @ hB.T
    P, s = M, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while s < b.shape[0]:
            b[s:] += b[:-s] @ P.T
            s *= 2
            if s < b.shape[0]:
                P = P @ P
    return b


def _check_horizon(system: LinearSystem, grid: Grid) -> None:
    """Raise ``ValueError`` unless ``grid`` spans the system's horizon."""
    if (grid.t0, grid.tf) != (system.t0, system.tf):
        raise ValueError(f"grid horizon [{grid.t0}, {grid.tf}] is not the system's "
                         f"[{system.t0}, {system.tf}]")


def simulate(system: LinearSystem, x0: np.ndarray, u: ControlTrajectory) -> np.ndarray:
    """Forward-Euler rollout x_{k+1} = M x_k + hB u_k, M = I + h A, on u's
    grid, which must span the system's horizon: the read-only (N+1)-by-n
    states at its nodes.

    Runs as a log-depth scan over the affine step maps.  A scan with a
    non-finite entry is decided by the per-step loop, since an overflowing
    power M^s can turn a finite rollout into NaN (0 * inf): it returns the
    states, or raises ``SimulationOverflowError`` naming the first step
    whose state is not finite.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != system.n:
        raise ValueError(f"x0 must have length {system.n}, got {x0.size}")
    if u.m != system.m:
        raise ValueError(f"control has {u.m} channels, system expects {system.m}")
    _check_horizon(system, u.grid)
    M, hB = _step_map(system, u.grid.h)
    out = _simulate_scan(M, hB, x0, u)
    if not np.isfinite(out).all():
        out = _simulate_loop(M, hB, x0, u)
    out.flags.writeable = False
    return out


def _affine_doubling(M: np.ndarray, hB: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(G, M^N) of N steps x -> M x + hB u: column block k of G is
    M^(N-1-k) hB, so the last L blocks times M^L give the L blocks before
    them.  Doubling the n-by-m blocks, not a stack of n-by-n powers, keeps
    the work and memory at the size of G."""
    m = hB.shape[1]
    G = np.empty((M.shape[0], N * m))
    G[:, (N - 1) * m:] = hB
    P, L = M, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while L < N:
            k = min(L, N - L)
            G[:, (N - L - k) * m:(N - L) * m] = P @ G[:, (N - k) * m:]
            L += k
            if L < N:
                P = P @ P
        MN = np.linalg.matrix_power(M, N)
    return G, MN


def build_affine(system: LinearSystem, grid: Grid,
                 boundary: BoundarySpec) -> AffineData:
    """Assemble the reachability map for fixed-endpoint data on ``grid``,
    which must span the system's horizon.

    Column block k of G is M^(N-1-k) h B with M = I + h A, so that the
    Euler terminal state equals M^N x0 + G u for stacked controls u, and xi
    = xf - M^N x0.  G is built by doubling and M^N by binary powering.
    Raises ``SimulationOverflowError`` when either, or xi, has a non-finite
    entry: the Euler step h is then unstable for the system or x0 too large
    for it, and no solve can run on the set.
    """
    if boundary.n != system.n:
        raise ValueError(f"boundary dimension {boundary.n} != state dimension {system.n}")
    _check_horizon(system, grid)
    G, P = _affine_doubling(*_step_map(system, grid.h), grid.N)
    if not (np.isfinite(G).all() and np.isfinite(P).all()):
        raise SimulationOverflowError(
            f"the reachability map overflowed at N={grid.N}; the Euler step "
            f"h={grid.h:g} is unstable for this system")
    with np.errstate(over="ignore", invalid="ignore"):
        xi = boundary.xf - P @ boundary.x0
    if not np.isfinite(xi).all():
        raise SimulationOverflowError(
            f"xf - M^N x0 overflowed at N={grid.N}: the free Euler rollout from x0 "
            f"leaves the floating-point range")
    for arr in (G, xi):
        arr.flags.writeable = False
    return AffineData(G=G, xi=xi, grid=grid, system=system)


def weighted_norm(values: np.ndarray, h: float) -> float:
    """sqrt(h * sum of squares); the step-weighted control-space norm."""
    v = np.asarray(values, dtype=float)
    return float(np.sqrt(h * np.dot(v.reshape(-1), v.reshape(-1))))


def l2_norm(u: ControlTrajectory) -> float:
    """Step-weighted norm sqrt(h sum_k |u_k|^2) of a control trajectory."""
    return weighted_norm(u.values, u.grid.h)
