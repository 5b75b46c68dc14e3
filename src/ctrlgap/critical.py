"""Critical feasibility: the smallest symmetric bound for which the
boundary-value set meets the box, found by bisection on the gap, plus the
closed-form double-integrator solution used as an oracle.

The gap is nonincreasing in the bound, which makes bisection robust; each
probe is a warm-started gap solve that may exit early once the gap is
certified on the decisive side of the feasibility tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import analyze
from .controllability import kalman_rank
from .discretize import AffineData, ControlTrajectory, build_affine
from .errors import (AnalyticCaseError, BracketError, ConsistencyError,
                     UncontrollableGridError)
from .gapsolve import GapResult, SolveOptions, solve_gap
from .model import BoundarySpec, Bounds, Grid, LinearSystem


@dataclass(frozen=True)
class CriticalOptions:
    """Bisection controls.

    ``tol_a`` is relative on the bracket width; ``feas_tol`` classifies a
    probe as feasible (None selects 1e-6 * (1 + |xi|)); ``a_init`` seeds
    the doubling/halving bracket search.
    """

    tol_a: float = 1e-4
    feas_tol: Optional[float] = None
    a_init: float = 1.0
    solver: str = "fast"
    gap_tol: float = 1e-9
    max_iter: int = 2_000_000

    def __post_init__(self):
        if self.a_init <= 0:
            raise ValueError(f"a_init must be positive, got {self.a_init}")
        if self.tol_a <= 0:
            raise ValueError(f"tol_a must be positive, got {self.tol_a}")


@dataclass(frozen=True)
class Probe:
    """One gap evaluation of the bracket search."""

    a: float
    gap: float
    feasible: bool
    iterations: int


@dataclass(frozen=True)
class CriticalResult:
    """Critical bound, the control attaining it, and the search record."""

    a_c: float
    u_c: ControlTrajectory
    switch_times: list[float]
    bracket: tuple[float, float]
    evaluations: int
    feas_tol: float
    gap_at_hi: float
    gap_at_lo: float
    probes: tuple[Probe, ...]
    final: GapResult


def _probe(aff: AffineData, a: float, warm: Optional[ControlTrajectory],
           opts: CriticalOptions, feas_tol: float) -> GapResult:
    solve_opts = SolveOptions(
        tol=opts.gap_tol,
        max_iter=opts.max_iter,
        solver=opts.solver,
        warm_start=warm,
        gap_below=0.5 * feas_tol)
    return solve_gap(aff, Bounds.symmetric(a), solve_opts)


def critical_bound(system: LinearSystem, grid: Grid, boundary: BoundarySpec,
                   opts: CriticalOptions | None = None) -> CriticalResult:
    """Bisection on the gap for the critical symmetric bound.

    Doubles ``a_init`` until the gap drops to the feasibility tolerance,
    halves until it rises above, then bisects until the bracket is
    narrower than ``tol_a * (1 + a_hi)``.  Returns a_c = a_hi together
    with the near-critical control from a final accurate gap solve at
    a_hi.  That final solve starts cold: near criticality the feasible set
    has many points whose distance is below the feasibility tolerance, and
    a cold start selects the reproducible representative anchored at the
    zero control instead of inheriting microstructure from the infeasible
    probes.
    """
    opts = opts or CriticalOptions()
    aff = build_affine(system, grid, boundary)
    if not aff.controllable:
        raise UncontrollableGridError(
            "cannot search for a critical bound: the discrete system is "
            "uncontrollable on this grid")
    if system.is_lti and not kalman_rank(system.A, system.B).controllable:
        raise UncontrollableGridError(
            "cannot search for a critical bound: the system fails the "
            "constant-matrix rank test")
    feas_tol = opts.feas_tol
    if feas_tol is None:
        feas_tol = 1e-6 * (1.0 + float(np.linalg.norm(aff.xi)))

    probes: list[Probe] = []
    warm: Optional[ControlTrajectory] = None

    def evaluate(a: float) -> bool:
        nonlocal warm
        res = _probe(aff, a, warm, opts, feas_tol)
        warm = res.uB
        feasible = res.gap_norm <= feas_tol
        probes.append(Probe(a=a, gap=res.gap_norm, feasible=feasible,
                            iterations=res.iterations))
        return feasible

    cap = 1e6 * opts.a_init
    a = opts.a_init
    if evaluate(a):
        a_hi = a
        while True:
            a *= 0.5
            if a < 1e-6 * opts.a_init:
                raise BracketError(
                    f"still feasible at a={a:g}; the endpoint data appears "
                    f"reachable with an arbitrarily small bound")
            if not evaluate(a):
                a_lo = a
                break
            a_hi = a
    else:
        a_lo = a
        while True:
            a *= 2.0
            if a > cap:
                raise BracketError(
                    f"no feasible bound found up to a={cap:g}; the endpoint "
                    f"data may be unreachable on this grid")
            if evaluate(a):
                a_hi = a
                break
            a_lo = a

    while a_hi - a_lo > opts.tol_a * (1.0 + a_hi):
        mid = 0.5 * (a_lo + a_hi)
        if evaluate(mid):
            a_hi = mid
        else:
            a_lo = mid

    # gap(a) is nonincreasing in a; verify on the probe record (feasible
    # probes sit at the tolerance floor, hence the feas_tol slack).
    by_a = sorted(probes, key=lambda p: p.a)
    for smaller, larger in zip(by_a, by_a[1:]):
        if larger.gap > smaller.gap + 0.5 * feas_tol:
            raise ConsistencyError(
                f"gap failed to decrease with the bound: gap({larger.a})="
                f"{larger.gap:g} > gap({smaller.a})={smaller.gap:g}")

    final = solve_gap(aff, Bounds.symmetric(a_hi), SolveOptions(
        tol=min(opts.gap_tol, 1e-10),
        max_iter=opts.max_iter,
        solver=opts.solver))
    profile = analyze.extract_switchings(final.uB, grid, reference="control")
    gap_lo = max((p.gap for p in probes if not p.feasible and p.a == a_lo),
                 default=max((p.gap for p in probes if not p.feasible), default=0.0))
    return CriticalResult(
        a_c=a_hi,
        u_c=final.uB,
        switch_times=profile.switch_times,
        bracket=(a_lo, a_hi),
        evaluations=len(probes),
        feas_tol=feas_tol,
        gap_at_hi=final.gap_norm,
        gap_at_lo=gap_lo,
        probes=tuple(probes),
        final=final)


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

    def as_trajectory(self, grid: Grid) -> ControlTrajectory:
        values = np.where(grid.left_nodes < self.t_c, self.u_before, self.u_after)
        return ControlTrajectory(values=values.reshape(-1, 1), grid=grid)


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
