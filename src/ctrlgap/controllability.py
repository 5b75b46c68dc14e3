"""Controllability tests: Kalman rank, the sampled time-varying recursion
test, and the discrete Gramian.

The rank tests are preconditions of the bang-bang structure results and
also serve as standalone diagnostics.  Rank is decided from singular
values of the column-equilibrated test matrix (columns scaled to unit
norm, which preserves rank): the raw stacked powers A^k B span eighteen
orders of magnitude on the stiffest benchmark and would defeat any
tolerance applied to the unscaled matrix.  Solves obey ``gramian_report``
on the transcription, as Kalman tests are unreliable (Paige, TAC 26, 1981).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Union

import numpy as np

if TYPE_CHECKING:
    from .discretize import AffineData

MatrixSource = Union[np.ndarray, Callable[[float], np.ndarray]]


@dataclass(frozen=True)
class CtrbReport:
    """Outcome of one controllability test.

    ``conditioning`` is the smallest-to-largest singular value ratio of the
    (equilibrated) test matrix.  ``inconclusive`` marks a failed sampled
    time-varying test, which is sufficient-only: rank deficiency there does
    not prove uncontrollability.
    """

    rank: int
    required: int
    controllable: bool
    test: str
    conditioning: float
    inconclusive: bool = False


def _report(s: np.ndarray, n: int, rtol: float, test: str, ltv: bool = False) -> CtrbReport:
    """Rank = the number of singular values ``s`` above rtol s[0]."""
    rank = int(np.sum(s > rtol * s[0]))
    cond = float(s[n - 1] / s[0]) if rank and len(s) >= n else 0.0
    return CtrbReport(rank=rank, required=n, controllable=rank == n, test=test,
                      conditioning=cond, inconclusive=ltv and rank < n)


def _rank_report(K: np.ndarray, n: int, test: str, ltv: bool = False) -> CtrbReport:
    norms = np.linalg.norm(K, axis=0)
    Kn = K[:, norms > 0.0] / norms[norms > 0.0]
    s = np.linalg.svd(Kn, compute_uv=False) if Kn.size else np.zeros(1)
    return _report(s, n, n * np.finfo(float).eps, test, ltv)


def kalman_rank(A: np.ndarray, B: np.ndarray) -> CtrbReport:
    """Rank of [B | AB | ... | A^{n-1} B] for constant matrices.

    Pass a single column of B to run the component-wise variant required
    by the bang-bang structure results.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"A must be square, got {A.shape}")
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    if B.shape[0] != n:
        raise ValueError(f"B must have {n} rows, got {B.shape[0]}")
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return _rank_report(np.hstack(blocks), n, "kalman")


def _constant_or_callable(M: MatrixSource) -> Callable[[float], np.ndarray]:
    if callable(M):
        return lambda t: np.atleast_2d(np.asarray(M(t), dtype=float))
    arr = np.atleast_2d(np.asarray(M, dtype=float))
    return lambda t: arr


def ltv_rank(Asamp: MatrixSource, Bsamp: MatrixSource, tc: float, q: int,
             fd_step: float) -> CtrbReport:
    """Sufficient rank test for sampled time-varying systems.

    Builds K_0 = B and K_j = -A K_{j-1} + dK_{j-1}/dt at time ``tc``, with
    time derivatives taken by central differences of step ``fd_step``,
    then ranks the stacked [K_0 | ... | K_q].  Evaluation needs samples on
    [tc - q*fd_step, tc + q*fd_step].  A failed test is reported as
    inconclusive: the criterion is sufficient, not necessary.
    """
    if q < 1:
        raise ValueError(f"q must be at least 1, got {q}")
    if fd_step <= 0:
        raise ValueError(f"fd_step must be positive, got {fd_step}")
    a_of = _constant_or_callable(Asamp)
    b_of = _constant_or_callable(Bsamp)

    def k_level(j: int, t: float) -> np.ndarray:
        if j == 0:
            return b_of(t)
        prev_plus = k_level(j - 1, t + fd_step)
        prev_minus = k_level(j - 1, t - fd_step)
        deriv = (prev_plus - prev_minus) / (2.0 * fd_step)
        return -a_of(t) @ k_level(j - 1, t) + deriv

    blocks = []
    for j in range(q + 1):
        Kj = k_level(j, tc)
        if not np.all(np.isfinite(Kj)):
            raise ValueError(
                f"sample window [{tc - q * fd_step}, {tc + q * fd_step}] produced "
                f"non-finite values at recursion level {j}; widen the window or "
                f"shrink fd_step")
        blocks.append(Kj)
    n = blocks[0].shape[0]
    return _rank_report(np.hstack(blocks), n, "ltv_recursion", ltv=True)


def discrete_gramian(aff: AffineData) -> np.ndarray:
    """Step-scaled Gram matrix G G^T / h of the reachability map.

    The scaling makes the matrix approximate the continuous controllability
    Gramian anchored at the final time, so it converges to a fixed matrix
    under grid refinement; invertibility is equivalent to discrete
    controllability on the grid.
    """
    return aff.G @ aff.G.T / aff.grid.h


def gramian_report(aff: AffineData) -> CtrbReport:
    """Rank/conditioning report for the discrete Gramian G G^T, the one
    verdict that ``AffineData.controllable`` and every solve obey: the
    scaled factor Rhat of the QR behind ``AffineData.basis`` needs n
    singular values above sqrt(eps) sigma_max, the condition for a Cholesky
    of the unit-diagonal Rhat^T Rhat, decided where numerical rank belongs
    (Golub and Van Loan, Matrix Computations, 4th ed., 5.4)."""
    s = np.linalg.svd(aff._factor[1], compute_uv=False)
    return _report(s, aff.n, np.sqrt(np.finfo(float).eps), "gramian")
