"""Critical feasibility: the smallest symmetric bound a_c for which the
boundary-value set meets the box, reported as a certified bracket, plus
the closed-form double-integrator solution used as an oracle.

a_c is the minimum-effort value min |u|_inf subject to G u = xi.  In the
orthonormal form {u : Qt u = c} of the affine set (``AffineData.basis``)
a multiplier s certifies a_c >= |c.s| / |Qt^T s|_1 by weak duality
(Neustadt, J. SIAM Control 1, 1962), and a control u certifies a_c <=
max |u - Qt^T s|, s = Qt u - c, as its affine projection is feasible.
The distance d(a) between the box |u| <= a and the affine set is convex,
decreasing and zero from a_c on, and its Newton step at a < a_c is the
lower end of the gap problem's optimal multiplier at a.  The search takes
these steps from the left, one gap solve each (Dinkelbach's iteration for
the ratio, Management Sci. 13, 1967); every end is certified however
inexact the solve, and the steps converge superlinearly as d'(a_c-) !=
0.  After each step a minimum-energy solve just above the new lower end
gives a verdict: its control u_c certifies the upper end, or its
multiplier a higher lower end, from which the next step starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analyze
from .controllability import kalman_rank
from .discretize import AffineData, ControlTrajectory, build_affine
from .errors import (AnalyticCaseError, BracketError, ConsistencyError,
                     InfeasibleIntersectionError, UncontrollableGridError)
from .gapsolve import solve_gap
from .model import BoundarySpec, Bounds, Grid, LinearSystem
from .project import ROUNDING, ProjectionStats, dykstra_min_energy


# Narrowest relative bracket width the search can reach: ``_certified_ends``
# widens the ends so that hi / lo >= (1 + ROUNDING)^2 / (1 - ROUNDING), more
# than 1 + 3 ROUNDING, whatever the probes find.
TOL_A_FLOOR = 3 * ROUNDING


@dataclass(frozen=True)
class Probe:
    """One gap solve of the search at bound ``a`` and the ends
    lower <= a_c <= upper that its box iterate certifies."""

    a: float
    lower: float
    upper: float
    iterations: int


@dataclass(frozen=True)
class CriticalResult:
    """Certified bracket on the critical bound, the minimum-energy control
    in the box |u| <= a of the last step, a <= a_c = hi, with the stats of
    that solve, and the gap solves of the search.  ``converged`` says
    whether the bracket reached the relative width ``tol_a`` and that
    solve converged."""

    a_c: float
    u_c: ControlTrajectory
    switch_times: list[float]
    bracket: tuple[float, float]
    converged: bool
    probes: tuple[Probe, ...]
    stats: ProjectionStats


def _lower_end(aff: AffineData, s: np.ndarray) -> float:
    """a_c >= |c.s| / |Qt^T s|_1 for the multiplier ``s``, widened by
    ``ROUNDING``: a lower end from a nearly optimal multiplier can
    otherwise land a few ulps above a_c."""
    Qt, c, _ = aff.basis
    l1 = float(np.abs(Qt.T @ s).sum())
    return abs(float(c @ s)) / l1 * (1.0 - ROUNDING) / (1.0 + ROUNDING) if l1 > 0.0 else 0.0


def _certified_ends(aff: AffineData, u: np.ndarray) -> tuple[float, float]:
    """Ends lower <= a_c <= upper certified by the control ``u`` (flat),
    each widened by ``ROUNDING``."""
    Qt, c, _ = aff.basis
    s = Qt @ u - c
    return _lower_end(aff, s), float(np.abs(u - Qt.T @ s).max()) * (1.0 + ROUNDING)


def critical_bound(system: LinearSystem, grid: Grid, boundary: BoundarySpec,
                   tol_a: float = 1e-8, aff: AffineData | None = None) -> CriticalResult:
    """Certified bracket [lo, hi] on the critical symmetric bound.

    [lo, hi] starts at the ends of the zero control.  Each round runs, while
    hi - lo > ``tol_a`` (1 + hi), a ``Probe``, the default gap solve at a =
    lo, and sets lo = max(lo, lower) and hi = min(hi, upper) from the ends
    of its box iterate; then ``dykstra_min_energy`` at a = min(hi, lo +
    ``tol_a`` (1 + lo) / 2) gives the verdict.  If it certifies
    infeasibility, the lower end of its multiplier becomes lo and the next
    round starts; if it converges, hi = min(hi, max(a, upper end of its
    control)) and the search ends, converged once hi - lo <= ``tol_a`` (1 +
    hi); if it does neither, the search ends unconverged.  ``tol_a`` must
    be finite and at least ``TOL_A_FLOOR``.  Returns a_c = hi and, as u_c,
    the last verdict's control.  ``aff``, when given, is the transcription
    of (system, grid, boundary), used instead of building it again.
    """
    if not TOL_A_FLOOR <= tol_a < math.inf:
        raise ValueError(f"tol_a must be finite and at least {TOL_A_FLOOR:g}, the "
                         f"narrowest bracket the rounding allowance leaves, got {tol_a}")
    if aff is None:
        aff = build_affine(system, grid, boundary)
    if not aff.controllable:
        raise UncontrollableGridError(
            "cannot search for a critical bound: the discrete system is "
            "uncontrollable on this grid")
    if system.is_lti and not kalman_rank(system.A, system.B).controllable:
        raise UncontrollableGridError(
            "cannot search for a critical bound: the system fails the "
            "constant-matrix rank test")
    if not np.any(aff.xi):
        raise BracketError("the zero control reaches xf, so a_c = 0 and no "
                           "box with interior is critical")

    lo, hi = _certified_ends(aff, np.zeros(grid.N * aff.m))
    probes: list[Probe] = []
    while True:
        if hi - lo > tol_a * (1.0 + hi):
            res = solve_gap(aff, Bounds.symmetric(lo))
            lower, upper = _certified_ends(aff, res.uB.flat)
            probes.append(Probe(a=lo, lower=lower, upper=upper, iterations=res.iterations))
            lo, hi = max(lo, lower), min(hi, upper)
        a = min(hi, lo + 0.5 * tol_a * (1.0 + lo))
        try:
            u_c, stats = dykstra_min_energy(aff, Bounds.symmetric(a))
        except InfeasibleIntersectionError as exc:
            # the margin test that raised puts this end above a >= lo
            if (lower := _lower_end(aff, exc.multiplier)) <= lo:
                raise ConsistencyError(f"infeasibility certified at a={a!r} with a "
                                       f"lower end {lower!r} <= lo={lo!r}") from exc
            lo = lower
            continue
        if stats.converged:
            hi = min(hi, max(a, _certified_ends(aff, u_c.flat)[1]))
        break

    profile = analyze.extract_switchings(u_c, grid, reference="control")
    return CriticalResult(
        a_c=hi,
        u_c=u_c,
        switch_times=profile.switch_times,
        bracket=(lo, hi),
        converged=stats.converged and hi - lo <= tol_a * (1.0 + hi),
        probes=tuple(probes),
        stats=stats)


@dataclass(frozen=True)
class DICriticalSolution:
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
