"""Best-approximation (gap) solver for the infeasible box/affine pair.

``solve_gap`` computes the pair (uA, uB) minimizing the step-weighted
distance between the boundary-value affine set and the box by proximal
point steps on phi(u) = r.W^{-1} r / 2, r = G u - xi, over the box
(Rockafellar, SIAM J. Control Optim. 14, 1976).  Each step is solved on
its n-dimensional dual (Li, Sun and Toh, SIAM J. Optim. 28, 2018) by
``project.dual_newton``, the semismooth Newton kernel whose other caller
is the minimum-energy control.  phi(u) is |P_affine(u) - u|^2 / 2, so its
minimizer over the box is uB.

The affine set is represented by the orthonormal basis
``AffineData.basis`` = (Qt, c) of range(G^T): P_affine(u) = u + Qt^T s
with s = c - Qt u, and phi(u) = |Qt u - c|^2 / 2.  The solver, its
certificate and its finish run on that basis alone; no solve here reads
G or W.  The paper's alternating projections, Douglas-Rachford splitting
and the restarted accelerated projection of O'Donoghue and Candes (Found.
Comput. Math. 15, 2015) are not solvers here; the tests replay them in
plain numpy as oracles that must land in the certified interval below.

Any box point certifies an interval for the true gap: its own gap |v|,
v = P_affine(u) - u, is an upper end, and ``project.gap_lower_bound`` of
its multiplier Qt u - c a lower end, ``gap_lower``.  The solver stops on
that certificate alone: converged once gap - gap_lower <= tol gap, or once
the gap itself is at most tol sqrt(h) (1 + |D^{-1} xi|) with D =
sqrt(diag W), the floor that lets a feasible box, whose lower end is 0,
end too.  Every proximal iterate first goes through one verified
primal-dual active-set step (Hintermueller, Ito and Kunisch, SIAM J.
Optim. 13, 2003): the nodes where it lies strictly inside the box are
solved for exactly with the others held at their bounds, and the result is
kept only if it passes the optimality checks.  ``diagnostics["finish"]``
records the outcome for the returned pair; only when it reads ``"exact"``
is that pair the exact discrete optimum, up to rounding.  The solve tests
its stop after every Newton step, on the best certified box iterate so far.

The solve starts from the clipped zero control at eps = 1 below 16,384
control coordinates (N*m).  From that size up it first solves the same
problem restricted to controls constant on blocks of 64 nodes,
``AffineData.coarse``, with the blockwise intersection of the box, and
starts from that box iterate, each block's value repeated over its nodes,
at eps = 1e5.  The answer is bang-bang with the gap vector as its
switching function, so the coarse answer places every switch to within a
block and the fine proximal steps start near their answer (nested
iteration: Briggs, Henson and McCormick, A Multigrid Tutorial,
SIAM 2000, ch. 3).  The coarse solve runs the same loop at the same tol;
its Newton steps are ``diagnostics["coarse_iterations"]`` and count
neither toward ``iterations`` nor toward ``max_iter``.  An uncontrollable
coarse grid, or a block whose box intersection is empty, leaves the cold
start.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .discretize import COARSE_BLOCK, AffineData, ControlTrajectory, weighted_norm
from .model import Bounds
from .project import dual_newton, gap_lower_bound


@dataclass(frozen=True)
class SolveOptions:
    """Knobs of the gap solver.

    ``tol`` bounds the certified relative duality gap (gap - gap_lower) /
    gap of the answer, with the absolute floor for feasible boxes given in
    the module docstring; it must be positive and finite.  ``max_iter``
    caps the Newton steps on the given grid; the steps of the coarse solve
    that starts a solve of 16,384 control coordinates or more (module
    docstring) do not count.  On 80 builtin solves at N = 1e3 to 2e5 and
    bounds from well below to above a_c, the steps on the given grid
    numbered 1 to 52 and those of the coarse solve 8 to 52, so the default
    cap ends a stall quickly.
    """

    tol: float = 1e-9
    max_iter: int = 1_000

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class GapResult:
    """Best-approximation pair, gap vector and solve diagnostics.

    ``v`` is formed as ``uA - uB`` with uA = uB - Qt^T s, s = Qt uB - c,
    so v equals -Qt^T s up to rounding and lies in the range of G^T;
    ``uB`` is inside the box exactly; ``uA`` satisfies the affine
    constraint to projection accuracy.  The pair is the exact discrete
    best approximation, up to rounding, when
    ``diagnostics["finish"] == "exact"``; otherwise it is the solver's
    answer, accurate only as far as the stop implies (``"skipped"`` when
    no finish was tried, or the reason the active-set finish was rejected:
    ``"rejected_size"``, ``"rejected_singular"``, ``"rejected_box"`` or
    ``"rejected_sign"``).  ``gap_lower`` is the certified dual lower bound
    ``gap_lower_bound`` on the true gap (0 when the bound is vacuous or
    within rounding), so the true gap lies in [gap_lower, gap_norm].
    ``diagnostics["stop"]`` is ``"certified"``, ``"stalled"`` or
    ``"max_iter"``, and ``converged`` is true exactly after a
    ``"certified"`` stop, when the certificate of the module docstring
    holds.  ``diagnostics["gap_history"]``, an ``array('d')``, holds the
    gap of the best certified box iterate after every Newton step.  From
    the coarse start, ``diagnostics["coarse_iterations"]`` counts the Newton
    steps of the coarse solve.  ``solver`` tags the method: ``"newton"``
    here, ``"oracle"`` for ``brute_force_gap``.
    """

    uA: ControlTrajectory
    uB: ControlTrajectory
    v: ControlTrajectory
    gap_norm: float
    iterations: int
    converged: bool
    solver: str
    gap_lower: float = 0.0
    diagnostics: dict = field(default_factory=dict)


class _Workspace:
    """The affine data and the box as flat per-coordinate bounds."""

    def __init__(self, aff: AffineData, lo: np.ndarray, hi: np.ndarray):
        self.aff = aff
        self.h = aff.grid.h
        self.lo = lo.reshape(-1)
        self.hi = hi.reshape(-1)


def feasible_floor(aff: AffineData, tol: float) -> float:
    """The gap tol sqrt(h) (1 + |D^{-1} xi|), D = sqrt(diag W), at or below
    which a solve at ``tol`` ends certified (module docstring)."""
    _, c, Rhat = aff.basis
    return tol * np.sqrt(aff.h) * (1.0 + float(np.linalg.norm(Rhat.T @ c)))


# Sign-check slack relative to the largest |v|.  The entries of v that an
# exact finish makes vanish come out at most 1e-13 of the largest on the
# builtin instances, so a larger wrong-signed entry is not rounding.
_SIGN_SLACK = 1e-12


def _active_set_finish(ws: _Workspace, u: np.ndarray,
                       Z: np.ndarray) -> tuple[np.ndarray, str, tuple]:
    """One primal-dual active-set step from the box-feasible iterate ``u``.

    The nodes strictly inside the box form the interior set ``Z``, as given;
    every other node stays on the bound it sits on.  The optimality
    conditions for that pattern make v vanish on Z, that is u_Z minimizes
    |Qt u - c| with the other nodes held, a least-squares problem on the
    columns Qt_Z.  It has one solution only if Qt_Z has full column rank,
    which needs |Z| <= n.  The solution replaces ``u`` only if u_Z lies in
    the box and the new gap vector v = -Qt^T s, s = Qt u - c, has the sign
    of the bound at every fixed node; otherwise ``u`` comes back unchanged
    with the reason.  Returns the point kept, the outcome and the point's
    ``_certify`` tuple, which reuses the products that the sign test formed.
    """
    Qt, c, _ = ws.aff.basis
    if Z.size > c.size:
        return u, "rejected_size", _certify(ws, u)
    u_new = u.copy()
    u_new[Z] = 0.0
    if Z.size:
        u_Z, _, rank, _ = np.linalg.lstsq(Qt.take(Z, axis=1), c - Qt @ u_new, rcond=None)
        if rank < Z.size:
            return u, "rejected_singular", _certify(ws, u)
        if np.any(u_Z < ws.lo[Z]) or np.any(u_Z > ws.hi[Z]):
            return u, "rejected_box", _certify(ws, u)
        u_new[Z] = u_Z
    s = Qt @ u_new - c
    g = Qt.T @ s
    slack = _SIGN_SLACK * float(np.max(np.abs(g), initial=0.0))
    if np.any((u >= ws.hi) & (g > slack)) or np.any((u <= ws.lo) & (g < -slack)):
        return u, "rejected_sign", _certify(ws, u)
    return u_new, "exact", _certify(ws, u_new, s, g)


def _certify(ws: _Workspace, u: np.ndarray, s: np.ndarray | None = None,
             g: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The pair through the box point ``u``: uA = P_affine(u), v = uA - u,
    the gap |v| (an upper bound on the true gap) and the dual floor
    ``gap_lower_bound`` of the multiplier s = Qt u - c (a lower one).
    ``s`` and g = Qt^T s are formed here unless the caller has formed them."""
    if s is None:
        Qt, c, _ = ws.aff.basis
        s = Qt @ u - c
        g = Qt.T @ s
    uA = u - g
    # subtract so the reported identity v == uA - uB holds bitwise
    v = uA - u
    return uA, v, weighted_norm(v, ws.h), gap_lower_bound(ws.aff, ws.lo, ws.hi, s, g)


# Newton steps allowed in one proximal step, and proximal steps in a row that
# may end without halving the best certified excess gap - gap_lower before
# the solve stops as stalled.
_INNER_STEPS = 50
_STALL_STEPS = 5


def _proximal_newton(ws: _Workspace, u: np.ndarray, eps: float, opts: SolveOptions,
                     diagnostics: dict) -> tuple[np.ndarray, tuple]:
    """Proximal point steps u <- argmin over the box of phi + |. - u|^2 / (2 eps),
    phi(u) = |Qt u - c|^2 / 2, from the box point ``u``, each by
    ``project.dual_newton`` with weight 1.

    The weight makes each dual smooth and strictly concave.  A proximal
    step ends when the kernel ends or after ``_INNER_STEPS`` Newton steps;
    the next one starts from its multiplier, the first from y = 0.  eps
    starts at the given value (1, the scale of phi's Hessian, the projector
    onto range(G^T), from a cold start) and grows tenfold after a proximal
    step whose iterate has a new interior set or that did not halve the
    best certified excess; after one that does neither it is held, since a
    larger eps then only makes the Newton matrix worse conditioned.  From
    the coarse start the interior set can repeat while the excess stalls
    (machine_tool at N=2e5 and a=1774.9, the double integrator at N=5e4 and
    a=2.414).  A proximal step cut at ``_INNER_STEPS`` divides eps by ten
    instead: the kernel did not resolve the dual at that eps, and a larger
    one only makes it harder (machine_tool at N=2e5 and a=1774.7 with tol
    1e-9 reached eps = 1e12 from the coarse start and stalled).  From the
    cold start no builtin solve measured took either branch.

    Every proximal iterate goes through ``_active_set_finish``, which
    certifies the point it keeps.  After each Newton step the stop is
    tested on the iterate with the smallest certified excess gap -
    gap_lower so far, so the next proximal step starts only when the solve
    goes on: ``"certified"`` by the module docstring, ``"stalled"`` after
    ``_STALL_STEPS`` proximal steps in a row that do not halve the best
    excess, or ``"max_iter"``.  Returns that iterate and its ``_certify``
    tuple and fills the diagnostics that ``GapResult`` describes.
    """
    Qt, c, _ = ws.aff.basis
    floor = feasible_floor(ws.aff, opts.tol)
    certificate = _certify(ws, u)
    best = certificate[2] - certificate[3], u, certificate
    history = diagnostics["gap_history"] = array("d")
    diagnostics["finish"] = "skipped"
    y, interior, stale = np.zeros_like(c), None, 0
    while True:
        steps = dual_newton(Qt, c, ws.lo, ws.hi, u, eps, 1.0, y)
        u_y = next(steps)[1]
        for inner in range(1, _INNER_STEPS + 1):
            step = next(steps, None)
            if step is not None:
                y, u_y, _, exact, _ = step
            end = step is None or exact or inner == _INNER_STEPS
            if end:
                Z = np.flatnonzero((u_y > ws.lo) & (u_y < ws.hi))
                u, finish, certificate = _active_set_finish(ws, u_y, Z)
                excess = certificate[2] - certificate[3]
                stale = 0 if excess <= 0.5 * best[0] else stale + 1
                if excess < best[0]:
                    best = excess, u, certificate
                    diagnostics["finish"] = finish
                if step is not None and not exact and inner == _INNER_STEPS:
                    eps /= 10.0
                elif stale or interior is None or not np.array_equal(Z, interior):
                    eps *= 10.0
                interior = Z
            best_excess, _, (_, _, gap, _) = best
            history.append(gap)
            stop = ("certified" if best_excess <= opts.tol * gap or gap <= floor
                    else "stalled" if stale >= _STALL_STEPS
                    else "max_iter" if len(history) == opts.max_iter else None)
            if stop:
                diagnostics["stop"] = stop
                return best[1:]
            if end:
                break


# The solve starts from the coarse solve from _COARSE_MIN_COORDS
# control coordinates up, at proximal weight eps = _COARSE_EPS (module
# docstring).  At 4,096 and 8,192 coordinates the coarse start made the
# builtin gaps as often slower as faster, by a few milliseconds either way.
_COARSE_MIN_COORDS = 16_384
_COARSE_EPS = 1e5


def _newton_start(ws: _Workspace, tol: float, diagnostics: dict) -> tuple[np.ndarray, float]:
    """The start (u, eps) of the proximal steps: below _COARSE_MIN_COORDS
    coordinates, or when the coarse grid is uncontrollable or a block's box
    is empty, the cold start at eps = 1; else the box iterate that
    ``_proximal_newton`` returns on ``AffineData.coarse`` with the blockwise
    intersection of the box, at ``tol`` and the default ``max_iter``, each
    block's value repeated over its nodes, at eps = _COARSE_EPS.
    ``diagnostics["coarse_iterations"]`` counts that solve's Newton steps."""
    m, N = ws.aff.m, ws.aff.grid.N
    if ws.lo.size >= _COARSE_MIN_COORDS and ws.aff.coarse.controllable:
        starts = np.arange(0, N, COARSE_BLOCK)
        lo = np.maximum.reduceat(ws.lo.reshape(-1, m), starts)
        hi = np.minimum.reduceat(ws.hi.reshape(-1, m), starts)
        if np.all(lo < hi):
            coarse, coarse_diagnostics = _Workspace(ws.aff.coarse, lo, hi), {}
            u, _ = _proximal_newton(coarse, *_newton_start(coarse, tol, coarse_diagnostics),
                                    SolveOptions(tol=tol), coarse_diagnostics)
            diagnostics["coarse_iterations"] = len(coarse_diagnostics["gap_history"])
            sizes = np.diff(starts, append=N)
            return np.repeat(u.reshape(-1, m), sizes, axis=0).reshape(-1), _COARSE_EPS
    # the zero control clipped into the box: np.clip with array bounds costs
    # about 2.5x as much as maximum then minimum
    return np.minimum(np.maximum(0.0, ws.lo), ws.hi), 1.0


def solve_gap(aff: AffineData, bounds: Bounds,
              opts: SolveOptions | None = None) -> GapResult:
    """Run the proximal Newton steps until the certificate, a stall or
    ``opts.max_iter`` stops them.

    The returned pair is the best certified box iterate uB and its
    projection uA onto the affine set, so uB is box-feasible exactly and uA
    satisfies the affine constraint to solver precision.
    """
    opts = opts or SolveOptions()
    ws = _Workspace(aff, *bounds.sample(aff.grid, aff.m))
    diagnostics = {}
    uB, (uA, v, gap, gap_lower) = _proximal_newton(
        ws, *_newton_start(ws, opts.tol, diagnostics), opts, diagnostics)
    uA, uB, v = (ControlTrajectory.from_flat(x, aff.grid, aff.m) for x in (uA, uB, v))
    return GapResult(uA=uA, uB=uB, v=v, gap_norm=gap,
                     iterations=len(diagnostics["gap_history"]),
                     converged=diagnostics["stop"] == "certified", solver="newton",
                     gap_lower=gap_lower, diagnostics=diagnostics)
