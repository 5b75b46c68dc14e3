"""Best-approximation (gap) solvers for the infeasible box/affine pair.

Four methods compute the pair (uA, uB) minimizing the step-weighted
distance between the boundary-value affine set and the box.  They share
one driver, ``solve_gap``, and differ only in the step rule it iterates:

``newton`` (the default) proximal point steps on phi(u) = r.W^{-1} r / 2,
          r = G u - xi, over the box (Rockafellar, SIAM J. Control Optim.
          14, 1976), each solved on its n-dimensional dual (Li, Sun and
          Toh, SIAM J. Optim. 28, 2018) by ``project.dual_newton``, the
          semismooth Newton kernel whose other caller is the minimum-energy
          control.  phi(u) is |P_affine(u) - u|^2 / 2, so its minimizer
          over the box is uB.
``map``   alternating projections uB <- clip(P_affine(uB)); monotone in the
          gap.
``fast``  the same projection step with momentum: restarted accelerated
          projected gradient (Beck and Teboulle, SIAM J. Imaging Sci. 2,
          2009) on q(u) = |P_affine(u) - u|^2 / 2 over the box, restarted
          whenever the gap grows (O'Donoghue and Candes, Found. Comput.
          Math. 15, 2015).  ``map`` is this rule with zero momentum.
``dr``    Douglas-Rachford splitting; its shadow sequence reaches the same
          pair even though the governing iterate drifts without bound on
          infeasible problems.

The projection step carries uA = P_affine(u).  P_affine is affine, so the
extrapolated point projects to uA + beta (uA - uA_prev).  ``map``,
``fast`` and ``dr`` project in the orthonormal basis ``AffineData.basis``
= (Qt, c) of range(G^T): P_affine(u) = u + Qt^T s with s = c - Qt u, so
a step is one product with Qt and one with Qt^T and solves no Gram
system: u = clip(uA + beta (uA - uA_prev)), s = c - Qt u, uA = u + Qt^T s.
Qt has orthonormal rows, so the gap |v| = |s| and the change |v - v_prev|
= |s - s_prev| are norms of n-vectors and v itself is never formed.  A
``map`` or ``fast`` step allocates no array of length N*m: u, uA and
uA_prev are made once per solve and written with ``out=``, the momentum
point in place (uA - uA_prev, times beta, plus uA) and the clip as a
maximum with the lower bound then a minimum with the upper.  What a solve
reports is checked against G itself, not against the basis: the
certificate below, the finish and ``newton`` all work on G and W.

Every step yields the box iterate uB it would return, its gap |v|, v =
uA - uB (for ``dr`` the shadow pair, whose gap is the drift of the
governing iterate), and the change |v - v_prev|, which each rule computes
itself (inf at the first step; ``newton`` yields None).  ``solve_gap``
always records every step's gap in ``diagnostics["gap_history"]``, or for
``dr`` in ``diagnostics["drift_history"]``, whose last entry is the drift
of the returned pair; the history is an ``array('d')``, 8 bytes a step.
Any box point certifies an interval for the true gap: its own gap |v| is
an upper end, and ``project.gap_lower_bound`` of its multiplier w =
W^{-1}(G uB - xi) a lower end, ``gap_lower``.

``newton`` stops on that certificate: converged once gap - gap_lower <=
tol gap, or once the gap itself is at most tol sqrt(h) (1 + |D^{-1} xi|)
with D = sqrt(diag W), the floor that lets a feasible box, whose lower
end is 0, end too.  The other three stop at ``max_iter`` or on the
successive change of v, which is the quantity with a uniqueness
guarantee; uB itself may be non-unique wherever v vanishes.  That change
bounds the step between two iterates, not the distance to the optimum,
so a stop on ``tol`` is followed by one verified primal-dual active-set
step (Hintermueller, Ito and Kunisch, SIAM J. Optim. 13, 2003): the nodes
where uB lies strictly inside the box are solved for exactly with the
others held at their bounds, and the result is kept only if it passes
the optimality checks.  ``newton`` tries the same step on every proximal
iterate.  ``diagnostics["finish"]`` records the outcome for the returned
pair; only when it reads ``"exact"`` is that pair the exact discrete
optimum, up to rounding.  The critical-bound search needs no such
guarantee: it certifies its bracket from whatever uB a solve returns.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, Optional

import numpy as np

from .discretize import AffineData, ControlTrajectory, weighted_norm
from .model import Bounds
from .project import dual_newton, gap_lower_bound, refined_multiplier

SOLVERS = ("newton", "map", "dr", "fast")


@dataclass(frozen=True)
class SolveOptions:
    """Knobs shared by the gap solvers.

    For ``newton``, ``tol`` bounds the certified relative duality gap
    (gap - gap_lower) / gap of the answer, with the absolute floor for
    feasible boxes given in the module docstring.  For ``map``, ``fast``
    and ``dr`` it bounds the step-weighted successive change of the gap
    vector, a change between iterates and not the error of the last one;
    a stop on it is followed by the verified active-set finish.
    ``tol`` must be positive and finite.  ``max_iter`` caps Newton steps
    for ``newton`` and steps otherwise.
    """

    tol: float = 1e-9
    max_iter: int = 2_000_000
    solver: str = "newton"
    warm_start: Optional[ControlTrajectory] = None

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")


@dataclass(frozen=True)
class GapResult:
    """Best-approximation pair, gap vector and solve diagnostics.

    ``v`` equals ``uA - uB`` entrywise and is formed as -G^T w, so it lies
    in the range of G^T by construction; ``uB`` is inside the box exactly;
    ``uA`` satisfies the affine constraint to projection accuracy.  The
    pair is the exact discrete best approximation, up to rounding, when
    ``diagnostics["finish"] == "exact"``; otherwise it is the solver's
    answer, accurate only as far as the stop implies (``"skipped"`` when
    no finish was tried, or the reason the active-set finish was rejected:
    ``"rejected_size"``, ``"rejected_singular"``, ``"rejected_box"`` or
    ``"rejected_sign"``).  ``gap_lower`` is the certified dual lower bound
    ``gap_lower_bound`` on the true gap (0 when the bound is vacuous or
    within rounding), so the true gap lies in [gap_lower, gap_norm].
    ``diagnostics["stop"]`` is ``"certified"`` or ``"stalled"`` for
    ``newton``, ``"tol"`` for the others, or ``"max_iter"``.  ``converged``
    is true after a ``"certified"`` or ``"tol"`` stop: for ``newton`` the
    certificate holds, for the others only the iterate change was small.
    ``diagnostics["gap_history"]`` holds the gap of every step, or for
    ``dr`` ``diagnostics["drift_history"]`` the drift, whose last entry is
    the drift of the returned pair.
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
    """Flattened views shared by the step rules."""

    def __init__(self, aff: AffineData, bounds: Bounds):
        self.aff = aff
        self.G = aff.G
        self.xi = aff.xi
        self.h = aff.grid.h
        self.solve = aff.Wfact.solve
        lo, hi = bounds.sample(aff.grid, aff.m)
        self.lo = lo.reshape(-1)
        self.hi = hi.reshape(-1)

    def start(self, opts: SolveOptions) -> np.ndarray:
        if opts.warm_start is not None:
            w = opts.warm_start
            if w.grid != self.aff.grid or w.m != self.aff.m:
                raise ValueError("warm start does not match the affine data's grid")
            u0 = w.flat
        else:
            u0 = np.zeros(self.G.shape[1])
        return self.clip(u0)

    def clip(self, u: np.ndarray) -> np.ndarray:
        # maximum then minimum: np.clip with array bounds costs about 2.5x
        out = np.maximum(u, self.lo)
        return np.minimum(out, self.hi, out=out)


# Sign-check slack relative to the largest |v|.  The entries of v that an
# exact finish makes vanish come out at most 1e-13 of the largest on the
# builtin instances, so a larger wrong-signed entry is not rounding.
_SIGN_SLACK = 1e-12


def _active_set_finish(ws: _Workspace, u: np.ndarray) -> tuple[np.ndarray, str]:
    """One primal-dual active-set step from the box-feasible iterate ``u``.

    The nodes strictly inside the box form the interior set Z; every other
    node stays on the bound it sits on.  The optimality conditions for
    that pattern are the KKT system

        [[W, -G_Z], [G_Z^T, 0]] [w; u_Z] = [G_F u_F - xi; 0],

    solved here by eliminating w through the factored W.  It is
    nonsingular only if G_Z has full column rank, which needs |Z| <= n.
    The solution replaces ``u`` only if u_Z lies in the box and the new
    gap vector v = -G^T w, with w the multiplier of the new u refined
    against G as in ``_certify``, has the sign of the bound at every fixed
    node; otherwise ``u`` comes back unchanged with the reason.
    """
    Z = np.flatnonzero((u > ws.lo) & (u < ws.hi))
    if Z.size > ws.G.shape[0]:
        return u, "rejected_size"
    u_new = u.copy()
    u_new[Z] = 0.0
    if Z.size:
        GZ = ws.G[:, Z]
        r = ws.G @ u_new - ws.xi
        # Schur complement S = G_Z^T W^{-1} G_Z, equilibrated to unit diagonal
        S = GZ.T @ np.column_stack([ws.solve(g) for g in GZ.T])
        diag = np.diag(S)
        if np.any(diag <= 0.0):
            return u, "rejected_singular"
        d = np.sqrt(diag)
        Ss = S / np.outer(d, d)
        sv = np.linalg.svd(Ss, compute_uv=False)
        if sv[-1] <= np.finfo(float).eps * sv[0]:
            return u, "rejected_singular"
        u_Z = -np.linalg.solve(Ss, (GZ.T @ ws.solve(r)) / d) / d
        if np.any(u_Z < ws.lo[Z]) or np.any(u_Z > ws.hi[Z]):
            return u, "rejected_box"
        u_new[Z] = u_Z
    v = -(ws.G.T @ refined_multiplier(ws.aff, u_new))
    slack = _SIGN_SLACK * float(np.max(np.abs(v), initial=0.0))
    if np.any((u >= ws.hi) & (v < -slack)) or np.any((u <= ws.lo) & (v > slack)):
        return u, "rejected_sign"
    return u_new, "exact"


def _certify(ws: _Workspace, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The pair through the box point ``u``: uA = P_affine(u), v = uA - u,
    the gap |v| (an upper bound on the true gap) and the dual floor
    ``gap_lower_bound`` of the multiplier W^{-1}(G u - xi) (a lower one).
    The multiplier is refined against G, so that both ends carry the
    accuracy of G even where W is badly conditioned."""
    w = refined_multiplier(ws.aff, u)
    uA = u - ws.G.T @ w
    # subtract so the reported identity v == uA - uB holds bitwise
    v = uA - u
    return uA, v, weighted_norm(v, ws.h), gap_lower_bound(ws.aff, ws.lo, ws.hi, w)


def _finish(ws: _Workspace, uB_flat: np.ndarray, iterations: int, converged: bool,
            solver: str, diagnostics: dict) -> GapResult:
    grid, m = ws.aff.grid, ws.aff.m
    if diagnostics["stop"] == "tol":
        uB_flat, diagnostics["finish"] = _active_set_finish(ws, uB_flat)
    else:
        diagnostics.setdefault("finish", "skipped")
    uA_flat, v_flat, gap, gap_lower = _certify(ws, uB_flat)
    return GapResult(
        uA=ControlTrajectory.from_flat(uA_flat, grid, m),
        uB=ControlTrajectory.from_flat(uB_flat, grid, m),
        v=ControlTrajectory.from_flat(v_flat, grid, m),
        gap_norm=gap,
        iterations=iterations,
        converged=converged,
        solver=solver,
        gap_lower=gap_lower,
        diagnostics=diagnostics)


_Steps = Iterator[tuple[np.ndarray, float, Optional[float]]]


def _projection_steps(ws: _Workspace, u: np.ndarray, momentum: bool,
                      diagnostics: dict) -> _Steps:
    """Projected gradient steps clip(P_affine(y)) on q(u) = |P_affine(u) - u|^2 / 2.

    q has the orthogonal projector onto range(G^T) as its Hessian, so the
    unit step from y is one alternating projection sweep.  Without
    momentum y is the last box iterate; with it y is extrapolated along
    the last step and the momentum is restarted whenever the gap grows,
    which is the test q > q_prev because q = |v|^2 / 2.  Yields (u, gap,
    change) for v = P_affine(u) - u = Qt^T s, s = c - Qt u, with change
    the step-weighted norm of v - v_prev (inf at the first step); Qt has
    orthonormal rows, so both are norms of n-vectors, |s| and |s - s_prev|.
    ``u`` is the start array and is overwritten step by step, like uA and
    uA_prev: a yielded u holds its values until the next step.
    """
    (Qt, c), lo, hi, h = ws.aff.basis, ws.lo, ws.hi, ws.h
    # ndarray.dot makes the same BLAS call as @ with less dispatch per call,
    # which is a tenth of a step on short vectors
    QtT = Qt.T
    uA, uA_prev = np.empty_like(u), np.empty_like(u)
    s = c - Qt.dot(u)
    QtT.dot(s, out=uA)
    uA += u
    uA_prev[:] = uA
    t, beta, gap_prev, change = 1.0, 0.0, math.inf, math.inf
    if momentum:
        diagnostics["restarts"] = 0
    while True:
        if beta:
            np.subtract(uA, uA_prev, out=u)
            u *= beta
            u += uA
            np.maximum(u, lo, out=u)
        else:
            np.maximum(uA, lo, out=u)
        np.minimum(u, hi, out=u)
        s_prev, s = s, c - Qt.dot(u)
        uA, uA_prev = uA_prev, uA
        QtT.dot(s, out=uA)
        uA += u
        gap = math.sqrt(h * float(s.dot(s)))
        if gap_prev < math.inf:  # s_prev is a step's, not the start's
            ds = s - s_prev
            change = math.sqrt(h * float(ds.dot(ds)))
        yield u, gap, change
        if momentum and gap > gap_prev:
            t, beta = 1.0, 0.0
            diagnostics["restarts"] += 1
        elif momentum:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            t = t_next
        gap_prev = gap


def _dr_steps(ws: _Workspace, z: np.ndarray) -> _Steps:
    """Douglas-Rachford iteration z <- z + P_affine(2 P_box(z) - z) - P_box(z).

    The shadows uB = P_box(z) and uA = P_affine(2 uB - z) converge to the
    best-approximation pair.  On infeasible problems z drifts by the gap
    vector v = uA - uB each step, so the yielded gap |v| is the drift;
    the yielded change is the norm of v - v_prev (inf at the first step).
    """
    Qt, c = ws.aff.basis
    v_prev, change = None, math.inf
    while True:
        uB = ws.clip(z)
        reflected = 2.0 * uB - z
        uA = reflected + Qt.T @ (c - Qt @ reflected)
        v = uA - uB
        z = z + v
        if v_prev is not None:
            change = weighted_norm(v - v_prev, ws.h)
        yield uB, weighted_norm(v, ws.h), change
        v_prev = v


# Newton steps allowed in one proximal step, and proximal steps in a row that
# may end without halving the best certified excess gap - gap_lower before
# the ``newton`` rule stops as stalled.
_INNER_STEPS = 50
_STALL_STEPS = 5


def _newton_steps(ws: _Workspace, u: np.ndarray, tol: float, diagnostics: dict) -> _Steps:
    """Proximal point steps u <- argmin over the box of phi + |. - u|^2 / (2 eps),
    phi(u) = r.W^{-1} r / 2 with r = G u - xi, each by ``project.dual_newton``.

    phi is r.What^{-1} r / 2 in the kernel's scaled residual, with What =
    D^{-1} W D^{-1} positive definite, so each dual is smooth and strictly
    concave.  A proximal step ends when the kernel ends or after
    ``_INNER_STEPS`` Newton steps; the next one starts from its multiplier.
    eps starts at 1, the scale of phi's Hessian (the projector onto
    range(G^T)), and grows tenfold after a proximal step whose iterate has
    a new interior set; after one that repeats the last interior set it is
    held, since a larger eps then only makes the Newton matrix worse
    conditioned.

    Every proximal iterate goes through ``_active_set_finish`` and is
    certified by ``_certify``.  The iterate with the smallest certified
    excess gap - gap_lower so far is yielded after every Newton step, so
    ``max_iter`` caps Newton steps and a cut returns that iterate.  The
    rule returns with ``diagnostics["stop"]`` set to ``"certified"`` once
    that iterate meets the stop in the module docstring, or ``"stalled"``
    after ``_STALL_STEPS`` proximal steps in a row that do not halve the
    best excess.
    """
    _, _, gap, lower = _certify(ws, u)
    best = (gap - lower, u, gap)
    d = ws.aff.Wfact.scale
    W_hat = ws.aff.W / np.outer(d, d)
    floor = tol * np.sqrt(ws.h) * (1.0 + float(np.linalg.norm(ws.xi / d)))

    def proximal_step(center, eps, y):
        steps = dual_newton(ws.aff, ws.lo, ws.hi, center, eps, W_hat, y)
        return steps, next(steps)[1]

    y = np.zeros_like(d)
    eps, interior, inner, stale = 1.0, None, 0, 0
    steps, u_y = proximal_step(u, eps, y)
    while True:
        step = next(steps, None)
        inner += 1
        if step is not None:
            y, u_y, _, exact = step
        if step is None or exact or inner == _INNER_STEPS:
            Z = np.flatnonzero((u_y > ws.lo) & (u_y < ws.hi))
            u, finish = _active_set_finish(ws, u_y)
            _, _, gap, lower = _certify(ws, u)
            stale = 0 if gap - lower <= 0.5 * best[0] else stale + 1
            if gap - lower < best[0]:
                best = (gap - lower, u, gap)
                diagnostics["finish"] = finish
            if interior is None or not np.array_equal(Z, interior):
                eps *= 10.0
            interior, inner = Z, 0
            steps, u_y = proximal_step(u, eps, y)
        excess, u_best, gap_best = best
        # set before the yield: the driver may take no further step
        stop = ("certified" if excess <= tol * gap_best or gap_best <= floor
                else "stalled" if stale >= _STALL_STEPS else None)
        if stop:
            diagnostics["stop"] = stop
        yield u_best, gap_best, None
        if stop:
            return


def solve_gap(aff: AffineData, bounds: Bounds,
              opts: SolveOptions | None = None) -> GapResult:
    """Iterate the step rule of ``opts.solver`` until a stop fires.

    The returned pair re-projects the box iterate uB onto the affine set
    (the last one, or for ``newton`` the best certified one), so uB is
    box-feasible exactly and uA satisfies the affine constraint to solver
    precision.
    """
    opts = opts or SolveOptions()
    ws = _Workspace(aff, bounds)
    diagnostics = {"stop": "max_iter"}
    dr = opts.solver == "dr"
    if opts.solver == "newton":
        steps = _newton_steps(ws, ws.start(opts), opts.tol, diagnostics)
    elif dr:
        steps = _dr_steps(ws, ws.start(opts))
    else:
        steps = _projection_steps(ws, ws.start(opts), opts.solver == "fast", diagnostics)
    history = array("d")
    diagnostics["drift_history" if dr else "gap_history"] = history
    it = 0
    for it, (uB, gap, change) in enumerate(islice(steps, opts.max_iter), start=1):
        history.append(gap)
        if change is not None and change <= opts.tol:
            diagnostics["stop"] = "tol"
            break
    return _finish(ws, uB, it, diagnostics["stop"] in ("tol", "certified"), opts.solver,
                   diagnostics)
