"""Controllability reports: the Kalman rank of a constant-matrix system and
the grid verdict on the transcription.

The Kalman ranks are preconditions of the bang-bang structure results and
otherwise diagnostics.  Rank is decided from singular values of the
column-equilibrated test matrix (columns scaled to unit norm, which
preserves rank): the raw stacked powers A^k B span eighteen orders of
magnitude on the stiffest benchmark and would defeat any tolerance applied
to the unscaled matrix.  Solves obey ``gramian_report``
on the transcription, as Kalman tests are unreliable (Paige, TAC 26, 1981).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .discretize import AffineData


class CtrbReport(NamedTuple):
    """Outcome of one controllability test: the rank of the test matrix
    against the ``required`` n, and ``conditioning``, the smallest-to-largest
    singular value ratio of the (equilibrated) test matrix.  ``controllable``
    is rank == n."""

    rank: int
    required: int
    controllable: bool
    conditioning: float


def _report(s: np.ndarray, n: int, rtol: float) -> CtrbReport:
    """Rank = the number of singular values ``s`` above rtol s[0]."""
    rank = int(np.sum(s > rtol * s[0]))
    cond = float(s[n - 1] / s[0]) if rank and len(s) >= n else 0.0
    return CtrbReport(rank=rank, required=n, controllable=rank == n, conditioning=cond)


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
    K = np.hstack(blocks)
    norms = np.linalg.norm(K, axis=0)
    Kn = K[:, norms > 0.0] / norms[norms > 0.0]
    s = np.linalg.svd(Kn, compute_uv=False) if Kn.size else np.zeros(1)
    return _report(s, n, n * np.finfo(float).eps)


def gramian_report(aff: AffineData) -> CtrbReport:
    """Rank/conditioning report for the discrete Gramian G G^T, the one
    verdict that ``AffineData.controllable`` and every solve obey: the
    scaled factor Rhat of the QR behind ``AffineData.basis`` needs n
    singular values above sqrt(eps) sigma_max, the condition for a Cholesky
    of the unit-diagonal Rhat^T Rhat, decided where numerical rank belongs
    (Golub and Van Loan, Matrix Computations, 4th ed., 5.4)."""
    s = np.linalg.svd(aff._factor[1], compute_uv=False)
    return _report(s, aff.n, np.sqrt(np.finfo(float).eps))
