"""Best-approximation (gap) solvers for the infeasible box/affine pair.

Two step rules compute the pair (uA, uB) minimizing the step-weighted
distance between the boundary-value affine set and the box.  They share
one driver, ``solve_gap``:

``newton`` (the default) proximal point steps on phi(u) = r.W^{-1} r / 2,
          r = G u - xi, over the box (Rockafellar, SIAM J. Control Optim.
          14, 1976), each solved on its n-dimensional dual (Li, Sun and
          Toh, SIAM J. Optim. 28, 2018) by ``project.dual_newton``, the
          semismooth Newton kernel whose other caller is the minimum-energy
          control.  phi(u) is |P_affine(u) - u|^2 / 2, so its minimizer
          over the box is uB.  It stops on a certificate.
``fast``  restarted accelerated projected gradient (Beck and Teboulle,
          SIAM J. Imaging Sci. 2, 2009) on q(u) = |P_affine(u) - u|^2 / 2
          over the box, restarted whenever the gap grows (O'Donoghue and
          Candes, Found. Comput. Math. 15, 2015): an alternating projection
          step from a point extrapolated along the last step.  It remains
          because the benchmark times it.

The paper's alternating projections and Douglas-Rachford splitting are
not step rules here; the tests replay them in plain numpy as oracles for
both rules.

The projection step carries uA = P_affine(u).  P_affine is affine, so the
extrapolated point projects to uA + beta (uA - uA_prev).  ``fast``
projects in the orthonormal basis ``AffineData.basis`` = (Qt, c) of
range(G^T): P_affine(u) = u + Qt^T s with s = c - Qt u, so a step is
one product with Qt and one with Qt^T and solves no Gram system:
u = clip(uA + beta (uA - uA_prev)), s = c - Qt u, uA = u + Qt^T s.
Qt has orthonormal rows, so the gap |v| = |s| and the change |v - v_prev|
= |s - s_prev| are norms of n-vectors and v itself is never formed.  The
certificate below, the finish and ``newton`` run on the same basis: it
is the one representation of the set, and no solve here reads G or W.

A ``fast`` step over all N*m coordinates, a full step, writes u, uA
and uA_prev in place and makes no new array of that length, yet
near a bang-bang answer almost every node sits on a bound, so most steps
run on a working set U of nodes instead.  The next momentum point at a
node on a bound b is b + beta (b - u_prev) + q^T sigma, with q the node's
column of Qt and sigma = (1 + beta) s - beta s_prev.  The middle term
points out of the box (beta >= 0), so the clip holds the node at b while
q^T sigma has the sign of the bound (+ at the upper one), and after one
such step its momentum term is zero.  After a full step with multiplier
sigma_r, a node on a bound is fixed (put in V) when its margin
rho = +-q^T sigma_r / |q| exceeds the radius R.  U holds the rest: the
free nodes, the bound nodes with rho <= 0 and the 256 of least positive
margin, and R is the margin of the last of them.  The clip sees only the
sign of q^T sigma, so by Cauchy-Schwarz every node in V stays on its bound
while some positive multiple of sigma lies within R of sigma_r (safe
screening: Ndiaye, Fercoq, Gramfort and Salmon, JMLR 18, 2017), that is
while sigma.sigma_r > 0 and |sigma_r|^2 - (sigma.sigma_r)^2 / |sigma|^2 <
R^2.  Until then each step runs the full step's arithmetic on U alone,
with s = c_V - Qt_U u_U and c_V = c - Qt_V u_V formed once; the gap, the
change, the restart test and the stop are the same n-vector quantities,
and the yielded u is the full iterate with U written back.  Once the test
fails, or after 32 N*m / |U| steps, uA and uA_prev are rebuilt on all
coordinates and the next step is a full step, which picks the next
working set.  Working sets are tried only from 4,096 coordinates up and
kept only when U holds at most an eighth of them (else tried again 32
full steps later); below that size every step is a full step, with the
arithmetic and results of a plain loop.  ``diagnostics["full_steps"]``
counts the full steps.

Every step yields the box iterate uB it would return, its gap |v|, v =
uA - uB, and the change |v - v_prev| (inf at the first step; ``newton``
yields None).  ``solve_gap`` records every step's gap in
``diagnostics["gap_history"]``, an ``array('d')``, 8 bytes a step.
Any box point certifies an interval for the true gap: its own gap |v| is
an upper end, and ``project.gap_lower_bound`` of its multiplier Qt uB - c
a lower end, ``gap_lower``.

``newton`` stops on that certificate: converged once gap - gap_lower <=
tol gap, or once the gap itself is at most tol sqrt(h) (1 + |D^{-1} xi|)
with D = sqrt(diag W), the floor that lets a feasible box, whose lower
end is 0, end too.  ``fast`` stops at ``max_iter`` or on the
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
optimum, up to rounding.
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
from .project import dual_newton, gap_lower_bound

SOLVERS = ("newton", "fast")


@dataclass(frozen=True)
class SolveOptions:
    """Knobs shared by the gap solvers.

    For ``newton``, ``tol`` bounds the certified relative duality gap
    (gap - gap_lower) / gap of the answer, with the absolute floor for
    feasible boxes given in the module docstring.  For ``fast`` it bounds
    the step-weighted successive change of the gap vector, a change
    between iterates and not the error of the last one; a stop on it is
    followed by the verified active-set finish.  ``tol`` must be positive
    and finite.  ``max_iter`` caps Newton steps for ``newton`` and steps
    for ``fast``.  Both start from the zero control clipped into the box.
    """

    tol: float = 1e-9
    max_iter: int = 2_000_000
    solver: str = "newton"

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
    ``diagnostics["stop"]`` is ``"certified"`` or ``"stalled"`` for
    ``newton``, ``"tol"`` for ``fast``, or ``"max_iter"``.  ``converged``
    is true after a ``"certified"`` or ``"tol"`` stop: for ``newton`` the
    certificate holds, for ``fast`` only the iterate change was small.
    ``diagnostics["gap_history"]`` holds the gap of every step.  For
    ``fast``, ``diagnostics["restarts"]`` counts momentum restarts and
    ``diagnostics["full_steps"]`` the steps over all N*m coordinates.
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
        self.h = aff.grid.h
        lo, hi = bounds.sample(aff.grid, aff.m)
        self.lo = lo.reshape(-1)
        self.hi = hi.reshape(-1)


# Sign-check slack relative to the largest |v|.  The entries of v that an
# exact finish makes vanish come out at most 1e-13 of the largest on the
# builtin instances, so a larger wrong-signed entry is not rounding.
_SIGN_SLACK = 1e-12


def _active_set_finish(ws: _Workspace, u: np.ndarray) -> tuple[np.ndarray, str]:
    """One primal-dual active-set step from the box-feasible iterate ``u``.

    The nodes strictly inside the box form the interior set Z; every other
    node stays on the bound it sits on.  The optimality conditions for
    that pattern make v vanish on Z, that is u_Z minimizes |Qt u - c| with
    the other nodes held, a least-squares problem on the columns Qt_Z.  It
    has one solution only if Qt_Z has full column rank, which needs |Z| <=
    n.  The solution replaces ``u`` only if u_Z lies in the box and the new
    gap vector v = Qt^T (c - Qt u) has the sign of the bound at every fixed
    node; otherwise ``u`` comes back unchanged with the reason.
    """
    Qt, c, _ = ws.aff.basis
    Z = np.flatnonzero((u > ws.lo) & (u < ws.hi))
    if Z.size > c.size:
        return u, "rejected_size"
    u_new = u.copy()
    u_new[Z] = 0.0
    if Z.size:
        u_Z, _, rank, _ = np.linalg.lstsq(Qt[:, Z], c - Qt @ u_new, rcond=None)
        if rank < Z.size:
            return u, "rejected_singular"
        if np.any(u_Z < ws.lo[Z]) or np.any(u_Z > ws.hi[Z]):
            return u, "rejected_box"
        u_new[Z] = u_Z
    v = Qt.T @ (c - Qt @ u_new)
    slack = _SIGN_SLACK * float(np.max(np.abs(v), initial=0.0))
    if np.any((u >= ws.hi) & (v < -slack)) or np.any((u <= ws.lo) & (v > slack)):
        return u, "rejected_sign"
    return u_new, "exact"


def _certify(ws: _Workspace, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The pair through the box point ``u``: uA = P_affine(u), v = uA - u,
    the gap |v| (an upper bound on the true gap) and the dual floor
    ``gap_lower_bound`` of the multiplier s = Qt u - c (a lower one)."""
    Qt, c, _ = ws.aff.basis
    s = Qt @ u - c
    uA = u - Qt.T @ s
    # subtract so the reported identity v == uA - uB holds bitwise
    v = uA - u
    return uA, v, weighted_norm(v, ws.h), gap_lower_bound(ws.aff, ws.lo, ws.hi, s)


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

# The working-set rule of ``_projection_steps`` (module docstring).  A working
# set may hold at most 1/_WS_SHARE of the coordinates and holds the
# _WS_MARGIN bound nodes of least margin.  It is tried only from
# _WS_MIN_COORDS coordinates up: below that the margin nodes alone fill half
# the share, and on machine_tool at N=1000 and 2000 no working set formed
# while the tries slowed the solve.
_WS_SHARE = 8
_WS_MARGIN = 256
_WS_MIN_COORDS = 2 * _WS_SHARE * _WS_MARGIN
# Full steps to run after a working set came out too large before the next
# try; a try costs about half a full step.
_WS_RETRY = 32
# A working set runs for at most _WS_WORK full steps' worth of its own steps
# (_WS_WORK N*m / |U| steps) before a full step picks a fresh one, so that a
# set chosen while many nodes still moved does not outlive them; a change of
# working set costs about five full steps.
_WS_WORK = 32


def _working_set(u: np.ndarray, lo: np.ndarray, hi: np.ndarray, QtT: np.ndarray,
                 sigma: np.ndarray,
                 inv_qnorm: np.ndarray) -> Optional[tuple[np.ndarray, float]]:
    """The indices of the working set U after a full step to ``u`` and the
    radius R, or None when U would hold more than 1/_WS_SHARE of the
    coordinates.  ``sigma`` is the multiplier (1 + beta) s - beta s_prev of
    the next momentum point; the module docstring has the rule.
    """
    upper, lower = u >= hi, u <= lo
    size = u.size // _WS_SHARE
    if u.size - np.count_nonzero(upper) - np.count_nonzero(lower) + _WS_MARGIN > size:
        return None
    rho = QtT.dot(sigma)
    rho *= inv_qnorm
    # free nodes get rho = 0
    rho *= np.subtract(upper, lower, dtype=float)
    k = np.count_nonzero(rho <= 0.0) + _WS_MARGIN
    if k > size:
        return None
    radius = float(np.partition(rho, k - 1)[k - 1])
    index = np.flatnonzero(~(rho > radius))
    return (index, radius) if index.size <= size else None


def _projection_steps(ws: _Workspace, u: np.ndarray, diagnostics: dict) -> _Steps:
    """Projected gradient steps clip(P_affine(y)) on q(u) = |P_affine(u) - u|^2 / 2.

    q has the orthogonal projector onto range(G^T) as its Hessian, so the
    unit step from y is one alternating projection sweep.  y is
    extrapolated along the last step, and the momentum is restarted
    whenever the gap grows, which is the test q > q_prev because q =
    |v|^2 / 2.  Yields (u, gap,
    change) for v = P_affine(u) - u = Qt^T s, s = c - Qt u, with change
    the step-weighted norm of v - v_prev (inf at the first step); Qt has
    orthonormal rows, so both are norms of n-vectors, |s| and |s - s_prev|.
    ``u`` is the start array and is overwritten step by step, like uA and
    uA_prev: a yielded u holds its values until the next step.

    The step runs on whatever u, uA, uA_prev, lo, hi, Qt and c name: the
    arrays over all coordinates on a full step, their rows (columns of Qt)
    in the working set U otherwise, with c less Qt_V u_V (module
    docstring).  ``full`` keeps the full arrays while U runs.
    """
    (Qt, c, _), lo, hi, h = ws.aff.basis, ws.lo, ws.hi, ws.h
    # ndarray.dot makes the same BLAS call as @ with less dispatch per call,
    # which is a tenth of a step on short vectors
    QtT = Qt.T
    uA, uA_prev = np.empty_like(u), np.empty_like(u)
    s = c - Qt.dot(u)
    QtT.dot(s, out=uA)
    uA += u
    uA_prev[:] = uA
    u_out, full, inv_qnorm = u, None, None
    if u.size >= _WS_MIN_COORDS:
        qnorm = np.sqrt(np.einsum("ij,ij->j", Qt, Qt))
        # a zero column has rho = 0 and stays in the working set
        inv_qnorm = np.divide(1.0, qnorm, out=np.zeros_like(qnorm), where=qnorm > 0)
    t, beta, gap_prev, change, wait = 1.0, 0.0, math.inf, math.inf, 0
    diagnostics["restarts"] = diagnostics["full_steps"] = 0
    while True:
        if full is not None:
            sigma = (1.0 + beta) * s - beta * s_prev
            along = float(sigma.dot(sigma_r))
            budget -= 1
            # the radius test of the module docstring, slack = |sigma_r|^2 - R^2
            if (budget < 0 or along <= 0.0
                    or along * along <= slack * float(sigma.dot(sigma))):
                # back to all coordinates: the fixed ones kept u, and their uA
                # moved with s alone
                uA_U, uA_prev_U = uA, uA_prev
                u, uA, uA_prev, lo, hi, Qt, QtT, c = full
                for dst, s_k, src in ((uA, s, uA_U), (uA_prev, s_prev, uA_prev_U)):
                    QtT.dot(s_k, out=dst)
                    dst += u
                    dst[index] = src
                full = None
        np.subtract(uA, uA_prev, out=u)
        u *= beta
        u += uA
        np.maximum(u, lo, out=u)
        np.minimum(u, hi, out=u)
        s_prev, s = s, c - Qt.dot(u)
        uA, uA_prev = uA_prev, uA
        QtT.dot(s, out=uA)
        uA += u
        if full is None:
            diagnostics["full_steps"] += 1
        else:
            u_out[index] = u
        gap = math.sqrt(h * float(s.dot(s)))
        if gap_prev < math.inf:  # s_prev is a step's, not the start's
            ds = s - s_prev
            change = math.sqrt(h * float(ds.dot(ds)))
        yield u_out, gap, change
        if gap > gap_prev:
            t, beta = 1.0, 0.0
            diagnostics["restarts"] += 1
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            t = t_next
        gap_prev = gap
        if full is None and inv_qnorm is not None:
            wait -= 1
            if wait <= 0:
                sigma_r = (1.0 + beta) * s - beta * s_prev
                found = _working_set(u, lo, hi, QtT, sigma_r, inv_qnorm)
                if found is None:
                    wait = _WS_RETRY
                else:
                    index, radius = found
                    slack = float(sigma_r.dot(sigma_r)) - radius * radius
                    budget = _WS_WORK * u.size // index.size
                    full = u, uA, uA_prev, lo, hi, Qt, QtT, c
                    u_V = u.copy()
                    u_V[index] = 0.0
                    c = c - Qt.dot(u_V)
                    Qt = Qt[:, index]
                    QtT = Qt.T
                    u, uA, uA_prev, lo, hi = (a[index] for a in (u, uA, uA_prev, lo, hi))


# Newton steps allowed in one proximal step, and proximal steps in a row that
# may end without halving the best certified excess gap - gap_lower before
# the ``newton`` rule stops as stalled.
_INNER_STEPS = 50
_STALL_STEPS = 5


def _newton_steps(ws: _Workspace, u: np.ndarray, tol: float, diagnostics: dict) -> _Steps:
    """Proximal point steps u <- argmin over the box of phi + |. - u|^2 / (2 eps),
    phi(u) = |Qt u - c|^2 / 2, each by ``project.dual_newton`` with weight 1.

    The weight makes each dual smooth and strictly concave.  A proximal
    step ends when the kernel ends or after ``_INNER_STEPS`` Newton steps;
    the next one starts from its multiplier.
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
    Qt, c, Rhat = ws.aff.basis
    floor = tol * np.sqrt(ws.h) * (1.0 + float(np.linalg.norm(Rhat.T @ c)))

    def proximal_step(center, eps, y):
        steps = dual_newton(Qt, c, ws.lo, ws.hi, center, eps, 1.0, y)
        return steps, next(steps)[1]

    y = np.zeros_like(c)
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
    # the zero control clipped into the box; np.clip with array bounds costs
    # about 2.5x as much as maximum then minimum
    u = np.minimum(np.maximum(0.0, ws.lo), ws.hi)
    diagnostics = {"stop": "max_iter"}
    if opts.solver == "newton":
        steps = _newton_steps(ws, u, opts.tol, diagnostics)
    else:
        steps = _projection_steps(ws, u, diagnostics)
    history = diagnostics["gap_history"] = array("d")
    it = 0
    for it, (uB, gap, change) in enumerate(islice(steps, opts.max_iter), start=1):
        history.append(gap)
        if change is not None and change <= opts.tol:
            diagnostics["stop"] = "tol"
            break
    return _finish(ws, uB, it, diagnostics["stop"] in ("tol", "certified"), opts.solver,
                   diagnostics)
