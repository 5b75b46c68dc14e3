"""Critical feasibility: the smallest symmetric bound a_c for which the
boundary-value set meets the box, reported as a certified bracket, plus
the closed-form double-integrator solution used as an oracle.

a_c is the minimum-effort value min |u|_inf on the transcription's affine
set G u = xi, which ``critical_bound`` takes alone, as every solver does.
In the orthonormal form {u : Qt u = c} of the set (``AffineData.basis``)
it is the value of a linear program in n <= 7 dual unknowns, 1 / a_c = min
|Qt^T s|_1 subject to c.s = 1 (Neustadt, J. SIAM Control 1, 1962), whose
vertex is the paper's bang-bang critical control.  The search is one
feasible gap solve: in the box |u| <= a0, a0 the zero control's certified
upper end, the solve's exchange finds that vertex, and a_c = a0 t_c, t_c
the box's critical scaling, whose ends the solve certifies.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .controllability import kalman_rank
# build_affine is unused here: perfbench/tracing.py wraps it by name (ROADMAP item 10)
from .discretize import AffineData, ControlTrajectory, build_affine  # noqa: F401
from .errors import AnalyticCaseError, BracketError, UncontrollableGridError
from .gapsolve import solve_gap
from .model import Bounds
from .project import ROUNDING


# Narrowest relative bracket width the search can reach: the certified ends
# are widened so that hi / lo >= (1 + ROUNDING)^2 / (1 - ROUNDING), more than
# 1 + 3 ROUNDING, whatever the exchange finds.
TOL_A_FLOOR = 3 * ROUNDING


class Probe(NamedTuple):
    """The gap solve of the search at bound ``a`` and the ends lower <=
    a_c <= upper that it certifies."""

    a: float
    lower: float
    upper: float
    iterations: int


class CriticalResult(NamedTuple):
    """Certified bracket on the critical bound, the vertex control u_c with
    max |u_c| <= a_c = hi on the affine set, and the one gap solve of the
    search.  ``converged`` says whether the bracket reached the relative
    width ``tol_a``; ``extract_switchings(u_c)`` gives the switch times."""

    a_c: float
    u_c: ControlTrajectory
    bracket: tuple[float, float]
    converged: bool
    probes: tuple[Probe, ...]


def critical_bound(aff: AffineData, tol_a: float = 1e-8) -> CriticalResult:
    """Certified bracket [lo, hi] on the critical symmetric bound of the
    transcription ``aff``.

    One ``Probe``, the default gap solve at a0 = max |Qt^T c| (1 +
    ``ROUNDING``), the zero control's certified upper end, whose box is
    feasible, so the solve ends on the exchange's vertex: [lo, hi] = a0
    ``GapResult.scale``, and u_c is the solve's box point, the vertex control
    projected onto the affine set.  The ends are certified however the
    pivots went, so a cut exchange only widens them; the search is
    converged once hi - lo <= ``tol_a`` (1 + hi).  ``tol_a`` must be finite
    and at least ``TOL_A_FLOOR``.  Raises ``UncontrollableGridError`` when
    ``aff.system`` fails the Kalman rank test or, from ``aff.basis``, the
    grid, and ``BracketError`` when a_c = 0.
    """
    if not TOL_A_FLOOR <= tol_a < math.inf:
        raise ValueError(f"tol_a must be finite and at least {TOL_A_FLOOR:g}, the "
                         f"narrowest bracket the rounding allowance leaves, got {tol_a}")
    if not kalman_rank(aff.system.A, aff.system.B).controllable:
        raise UncontrollableGridError(
            "cannot search for a critical bound: the system fails the "
            "constant-matrix rank test")
    if not np.any(aff.xi):
        raise BracketError("the zero control reaches xf, so a_c = 0 and no "
                           "box with interior is critical")

    Qt, c, _ = aff.basis
    a0 = float(np.abs(Qt.T @ c).max()) * (1.0 + ROUNDING)
    res = solve_gap(aff, Bounds.symmetric(a0))
    lo, hi = (a0 * t for t in res.scale)
    return CriticalResult(
        a_c=hi,
        u_c=res.uB,
        bracket=(lo, hi),
        converged=hi - lo <= tol_a * (1.0 + hi),
        probes=(Probe(a=a0, lower=lo, upper=hi, iterations=res.iterations),))


class DICriticalSolution(NamedTuple):
    """Closed-form critical solution of the double-integrator problem on
    [0, 1] with position endpoints (s0, sf) and velocity endpoints (v0, vf).

    The control takes the value ``u_before`` on [0, t_c) and ``u_after`` on
    [t_c, 1]; ``r`` is the signed first-piece value, with a_c = |r|.  For
    the boundary-degenerate case both constant controls attain the same
    bound; the returned branch is recorded in ``alternative``.
    """

    case_tag: str
    a_c: float
    t_c: float
    r: float
    u_before: float
    u_after: float
    alternative: Optional[str] = None


def _simulated_position_end(s0: float, v0: float, r: float, t_c: float) -> float:
    """Exact endpoint position of the two-piece control (r then -r)."""
    v_mid = v0 + r * t_c
    before = v0 * t_c + 0.5 * r * t_c ** 2
    after = v_mid * (1.0 - t_c) - 0.5 * r * (1.0 - t_c) ** 2
    return s0 + before + after


def di_critical_analytic(s0: float, sf: float, v0: float, vf: float) -> DICriticalSolution:
    """Analytic critical bound and control for the double integrator.

    Dispatches on whether the position increment matches the mean velocity
    (degenerate constant-control case) and on whether the endpoint
    velocities coincide (symmetric switch at 1/2); otherwise the switching
    time is the root in (0, 1) of a quadratic, verified by exact forward
    integration of the candidate two-piece control.
    """
    displacement = sf - s0
    mean_velocity = 0.5 * (v0 + vf)
    scale = 1.0 + abs(displacement) + abs(mean_velocity) + abs(v0) + abs(vf)
    if abs(displacement - mean_velocity) <= 1e-12 * scale:
        r = vf - v0
        return DICriticalSolution(
            case_tag="b", a_c=abs(r), t_c=1.0, r=r, u_before=r, u_after=r,
            alternative="constant control v0 - vf with t_c = 0 attains the same bound")
    if abs(vf - v0) <= 1e-12 * scale:
        r = 4.0 * (sf - s0 - v0)
        return DICriticalSolution(case_tag="a_ii", a_c=abs(r), t_c=0.5, r=r,
                                  u_before=r, u_after=-r)
    # quadratic in the switching time:
    #   (vf - v0) t^2 + 2 (sf - s0 - vf) t + (v0 + vf)/2 - (sf - s0) = 0
    qa = vf - v0
    qb = 2.0 * (sf - s0 - vf)
    qc = mean_velocity - displacement
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0:
        raise AnalyticCaseError("switching-time quadratic has no real root")
    sq = math.sqrt(disc)
    # stable quadratic roots
    if qb >= 0:
        r1 = (-qb - sq) / (2.0 * qa)
    else:
        r1 = (-qb + sq) / (2.0 * qa)
    r2 = qc / (qa * r1) if r1 != 0.0 else (-qb) / qa
    candidates = []
    for t_c in sorted({r1, r2}):
        if not (0.0 < t_c < 1.0) or abs(2.0 * t_c - 1.0) <= 1e-14:
            continue
        r = (vf - v0) / (2.0 * t_c - 1.0)
        end = _simulated_position_end(s0, v0, r, t_c)
        if abs(end - sf) <= 1e-9 * scale:
            candidates.append((abs(r), t_c, r))
    if not candidates:
        raise AnalyticCaseError(
            f"no root of the switching-time quadratic in (0, 1) reproduces the "
            f"boundary data (s0={s0}, sf={sf}, v0={v0}, vf={vf})")
    candidates.sort()
    a_c, t_c, r = candidates[0]
    alternative = None
    if len(candidates) > 1:
        alternative = (f"second verified root t_c={candidates[1][1]:.12g} with "
                       f"bound {candidates[1][0]:.12g}")
    return DICriticalSolution(case_tag="a_i", a_c=a_c, t_c=t_c, r=r,
                              u_before=r, u_after=-r, alternative=alternative)
