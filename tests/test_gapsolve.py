import json
import math
from pathlib import Path

import numpy as np
import pytest

from ctrlgap import (BUILTIN_NAMES, BoundarySpec, Bounds, ControlTrajectory, SolveOptions,
                     UncontrollableGridError, build_affine, builtin_instance,
                     brute_force_gap, check_bang_bang, critical, critical_bound,
                     extract_switchings, gapsolve, make_lti_system, make_ltv_system,
                     solve_gap)
from ctrlgap.project import dual_newton

from conftest import gram, gram_solve, random_tiny_problem, scalar_integrator


def assert_basis_step_matches_gram_solve(aff, u):
    """The basis step Qt^T (c - Qt u) of the affine projection equals the
    normal-equations step -G^T W^{-1}(G u - xi) to 1e-12 of its length."""
    Qt, c, _ = aff.basis
    step = Qt.T @ (c - Qt @ u)
    gram = -(aff.G.T @ gram_solve(aff, aff.G @ u - aff.xi))
    assert np.linalg.norm(step - gram) <= 1e-12 * np.linalg.norm(step)


@pytest.fixture(scope="module")
def di():
    inst = builtin_instance("double_integrator")
    grid = inst.system.grid(2000)
    return grid, build_affine(inst.system, grid, inst.boundary)


@pytest.fixture(scope="module")
def mt200():
    inst = builtin_instance("machine_tool")
    grid = inst.system.grid(200)
    return grid, build_affine(inst.system, grid, inst.boundary), Bounds.symmetric(1770.0)


class TestMap:
    """The best-approximation pair that the paper's method of alternating
    projections (MAP) converges to, from the default solver."""

    def test_feasible_instance_gap_vanishes(self, di):
        _, aff = di
        res = solve_gap(aff, Bounds.symmetric(3.0))
        assert res.gap_norm <= 1e-6
        assert res.converged

    def test_infeasible_gap_and_linear_gap_vector(self, di):
        grid, aff = di
        res = solve_gap(aff, Bounds.symmetric(1.0))
        assert res.gap_norm > 0.5
        # the gap vector is the negated adjoint column, linear in time for
        # the double integrator; check an exact straight-line fit
        t = grid.left_nodes
        v = res.v.values[:, 0]
        coef = np.polyfit(t, v, 1)
        assert np.max(np.abs(np.polyval(coef, t) - v)) <= 1e-9 * (1 + np.max(np.abs(v)))

    def test_result_invariants(self, di):
        grid, aff = di
        lo, hi = Bounds.symmetric(1.0).sample(grid, 1)
        res = solve_gap(aff, Bounds.symmetric(1.0))
        np.testing.assert_array_equal(res.v.values, res.uA.values - res.uB.values)
        assert np.all(res.uB.values >= lo) and np.all(res.uB.values <= hi)
        feas = np.linalg.norm(aff.G @ res.uA.flat - aff.xi)
        assert feas <= 1e-10 * (1 + np.linalg.norm(aff.xi))

    def test_complementarity_at_optimum(self, di):
        _, aff = di
        opts = SolveOptions(tol=1e-10)
        res = solve_gap(aff, Bounds.symmetric(1.0), opts)
        rep = check_bang_bang(res.uB, res.v, Bounds.symmetric(1.0),
                              tau=10 * opts.tol)
        assert rep.agreement == 1.0
        assert rep.tested > 0

    def test_unconverged_result_populated(self, di):
        _, aff = di
        res = solve_gap(aff, Bounds.symmetric(1.0), SolveOptions(max_iter=3))
        assert not res.converged
        assert res.iterations == 3
        assert np.isfinite(res.gap_norm)
        assert res.diagnostics["stop"] == "max_iter"

    def test_singular_gram_raises(self):
        inst = builtin_instance("double_integrator")
        grid = inst.system.grid(1)
        aff = build_affine(inst.system, grid, inst.boundary)
        with pytest.raises(UncontrollableGridError):
            solve_gap(aff, Bounds.symmetric(1.0))

    def test_tiny_instance_matches_enumeration(self):
        sys_ = scalar_integrator()
        grid = sys_.grid(3)
        aff = build_affine(sys_, grid, BoundarySpec(x0=[0.0], xf=[1.0]))
        bounds = Bounds.symmetric(0.1)  # mean control must be 1: infeasible
        res = solve_gap(aff, bounds, SolveOptions(tol=1e-12))
        ref = brute_force_gap(aff, bounds)
        assert res.gap_norm == pytest.approx(ref.gap_norm, abs=1e-9)
        obj = 0.5 * res.gap_norm ** 2
        assert obj == pytest.approx(ref.diagnostics["objective"], abs=1e-9)


class TestProjectionOracles:
    """The paper's alternating projections (MAP), Douglas-Rachford splitting
    (DR) and MAP with restarted momentum, replayed in plain numpy, land in
    the certified interval [gap_lower, gap_norm] of the default solver."""

    @pytest.mark.parametrize("name,a", [("double_integrator", 1.0),
                                        ("damped_oscillator", 0.3)])
    @pytest.mark.parametrize("rule", ["map", "dr", "restarted"])
    def test_replay_lands_in_the_certified_interval(self, name, a, rule):
        inst = builtin_instance(name)
        aff = build_affine(inst.system, inst.system.grid(2000), inst.boundary)
        bounds = Bounds.symmetric(a)
        res = solve_gap(aff, bounds)
        assert res.converged
        if rule == "dr":
            u, gaps = replay_douglas_rachford(aff, bounds, 4000)
        else:
            u, restarts, gaps = replay_projection_steps(aff, bounds, 4000, rule == "restarted",
                                                        np.zeros(aff.grid.N))
            if rule == "map":  # MAP never raises the gap
                assert np.all(np.diff(gaps) <= 1e-14)
            else:  # the momentum steps do, and restart
                assert restarts > 0
        # every replayed iterate is a box point, so its gap bounds the true gap
        assert res.gap_lower <= min(gaps)
        assert gaps[-1] <= res.gap_norm * (1 + 1e-7)
        assert_basis_step_matches_gram_solve(aff, u)

    @pytest.mark.parametrize("rule", ["map", "restarted"])
    def test_replay_lands_in_the_certified_interval_on_machine_tool(self, mt200, rule):
        _, aff, bounds = mt200
        res = solve_gap(aff, bounds)
        assert res.converged
        u0 = np.zeros(aff.grid.N)
        if rule == "map":
            # MAP from zero is still 4% above the gap here after 4,000 steps,
            # so it starts where 1,000 restarted steps end, 4e-6 above it
            u0, _, _ = replay_projection_steps(aff, bounds, 1000, True, u0)
        u, _, gaps = replay_projection_steps(aff, bounds, 4000, rule == "restarted", u0)
        assert res.gap_lower <= min(gaps)
        assert gaps[-1] <= res.gap_norm * (1 + 1e-6)
        assert_basis_step_matches_gram_solve(aff, u)


def replay_projection_steps(aff, bounds, steps, momentum, u0):
    """``steps`` alternating projection steps u <- clip(P_affine(u)) from the
    box point u0 in plain numpy, with momentum from a point extrapolated
    along the last step and restarted whenever the gap grows (O'Donoghue
    and Candes, Found. Comput. Math. 15, 2015); returns the last iterate,
    the restart count and the gap of every step."""
    lo, hi = (b.reshape(-1) for b in bounds.sample(aff.grid, aff.m))
    Qt, c, _ = aff.basis

    def project(u):
        s = c - Qt @ u
        return u + Qt.T @ s, np.sqrt(aff.grid.h * (s @ s))

    uA, _ = project(u0)
    uA_prev, u = uA, u0
    t, beta, gap_prev, restarts, gaps = 1.0, 0.0, np.inf, 0, []
    for _ in range(steps):
        u = np.clip(uA + beta * (uA - uA_prev), lo, hi)
        uA_prev, (uA, gap) = uA, project(u)
        if momentum and gap > gap_prev:
            t, beta = 1.0, 0.0
            restarts += 1
        elif momentum:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            t, beta = t_next, (t - 1.0) / t_next
        gap_prev = gap
        gaps.append(gap)
    return u, restarts, gaps


def replay_douglas_rachford(aff, bounds, steps):
    """``steps`` Douglas-Rachford steps z <- z + P_affine(2 uB - z) - uB,
    uB = clip(z), from z = 0 in plain numpy; returns the last reflected
    point 2 uB - z and the gap |P_affine(uB) - uB| of every shadow uB."""
    lo, hi = (b.reshape(-1) for b in bounds.sample(aff.grid, aff.m))
    Qt, c, _ = aff.basis
    z, gaps = np.zeros(aff.grid.N * aff.m), []
    for _ in range(steps):
        uB = np.clip(z, lo, hi)
        reflected = 2.0 * uB - z
        z = z + reflected + Qt.T @ (c - Qt @ reflected) - uB
        s = c - Qt @ uB
        gaps.append(np.sqrt(aff.grid.h * (s @ s)))
    return reflected, gaps


def two_input_problem(N):
    """A double integrator driven through two inputs, with bounds that vary
    from node to node and channel to channel; infeasible, bang-bang uB."""
    system = make_lti_system([[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.4], [1.0, 0.3]], 0.0, 1.0)
    grid = system.grid(N)
    aff = build_affine(system, grid, BoundarySpec(x0=[0.0, 0.0], xf=[1.0, 0.0]))
    t = grid.left_nodes
    lower = np.column_stack([-0.8 - 0.2 * np.sin(3 * t), -0.5 + 0.1 * t])
    upper = np.column_stack([0.9 + 0.1 * np.cos(2 * t), 0.4 + 0.05 * t])
    return aff, Bounds(lower=lower, upper=upper)


class TestBuffers:
    @pytest.mark.parametrize("nodes", [200, 16_384], ids=["cold", "coarse"])
    def test_results_share_no_memory(self, nodes):
        inst = builtin_instance("machine_tool")
        aff = build_affine(inst.system, inst.system.grid(nodes), inst.boundary)
        bounds, opts = Bounds.symmetric(1770.0), SolveOptions(max_iter=50)
        first, second = solve_gap(aff, bounds, opts), solve_gap(aff, bounds, opts)
        arrays = [t.values for res in (first, second) for t in (res.uA, res.uB, res.v)]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        np.testing.assert_array_equal(first.uB.values, second.uB.values)


class TestCrossSolver:
    @pytest.mark.parametrize("name,a,tol", [
        ("double_integrator", 1.0, 1e-9),
        ("damped_oscillator", 0.3, 1e-9),
        ("machine_tool", 1500.0, 1e-7),
    ])
    def test_three_way_agreement(self, name, a, tol):
        # the solver, the restarted momentum replay and that replay after the
        # active-set finish
        inst = builtin_instance(name)
        grid = inst.system.grid(2000)
        aff = build_affine(inst.system, grid, inst.boundary)
        bounds = Bounds.symmetric(a)
        newton = solve_gap(aff, bounds, SolveOptions(tol=tol))
        assert newton.converged
        assert newton.gap_norm - newton.gap_lower <= tol * newton.gap_norm
        ws = gapsolve._Workspace(aff, bounds)
        u, _, _ = replay_projection_steps(aff, bounds, 2000, True, np.zeros(grid.N))
        finished, _ = gapsolve._active_set_finish(ws, u)
        gaps, lowers = [newton.gap_norm], [newton.gap_lower]
        for point in (u, finished):
            _, _, gap, lower = gapsolve._certify(ws, point)
            gaps.append(gap)
            lowers.append(lower)
        for g1 in gaps:
            for g2 in gaps:
                assert abs(g1 - g2) <= 1e-6 * (1 + g1)
        # each answer certifies [gap_lower, gap_norm] around the one true gap
        assert max(lowers) <= min(gaps) * (1 + 1e-12)


class TestActiveSetFinish:
    @pytest.mark.parametrize("name,a,solvers", [
        ("double_integrator", 1.0, ("newton", "restarted_replay")),
        ("damped_oscillator", 0.3, ("newton", "restarted_replay")),
    ])
    def test_solvers_agree_on_switch_times(self, name, a, solvers):
        # the solver's answer and 2,000 restarted momentum replay steps after
        # the active-set finish are both the exact optimum
        inst = builtin_instance(name)
        grid = inst.system.grid(2000)
        aff = build_affine(inst.system, grid, inst.boundary)
        bounds = Bounds.symmetric(a)
        res = solve_gap(aff, bounds, SolveOptions(tol=1e-9))
        assert res.diagnostics["finish"] == "exact"
        u, _, _ = replay_projection_steps(aff, bounds, 2000, True, np.zeros(grid.N))
        replayed, finish = gapsolve._active_set_finish(gapsolve._Workspace(aff, bounds), u)
        assert finish == "exact"
        answers = {"newton": res.uB,
                   "restarted_replay": ControlTrajectory.from_flat(replayed, grid, aff.m)}
        times = {s: extract_switchings(answers[s], grid).switch_times for s in solvers}
        ref = times[solvers[0]]
        assert ref
        for s in solvers[1:]:
            assert len(times[s]) == len(ref)
            assert np.max(np.abs(np.subtract(times[s], ref))) <= 1e-10

    def test_rejected_finish_keeps_loop_iterate(self):
        # 7,917 restarted steps leave 7 nodes inside the box, and their
        # least-squares solution leaves it
        inst = builtin_instance("machine_tool")
        grid = inst.system.grid(1000)
        aff = build_affine(inst.system, grid, inst.boundary)
        bounds = Bounds.symmetric(1770.0)
        u, _, gaps = replay_projection_steps(aff, bounds, 7917, True, np.zeros(grid.N))
        kept = u.copy()
        ws = gapsolve._Workspace(aff, bounds)
        out, finish = gapsolve._active_set_finish(ws, u)
        assert finish == "rejected_box"
        assert out is u
        np.testing.assert_array_equal(u, kept)
        _, _, gap, _ = gapsolve._certify(ws, out)
        assert gap == pytest.approx(gaps[-1], rel=1e-12)

    def test_feasible_problem_rejected_on_size(self, di):
        _, aff = di
        bounds = Bounds.symmetric(3.0)
        res = solve_gap(aff, bounds)
        assert res.diagnostics["stop"] == "certified"
        # the feasible answer keeps many nodes inside the box, more than the
        # n = 2 that the exact step can solve for
        assert res.diagnostics["finish"] == "rejected_size"
        ws = gapsolve._Workspace(aff, bounds)
        out, finish = gapsolve._active_set_finish(ws, res.uB.flat)
        assert finish == "rejected_size"
        np.testing.assert_array_equal(out, res.uB.flat)

    def test_exact_finish_matches_enumeration(self, rng):
        with_interior = 0
        for _ in range(30):
            problem = random_tiny_problem(rng, max_coords=6)
            if problem is None:
                continue
            grid, aff, bounds = problem
            ref = brute_force_gap(aff, bounds)
            lo, hi = bounds.sample(grid, aff.m)
            newton = solve_gap(aff, bounds, SolveOptions(tol=1e-9))
            assert newton.converged
            assert newton.gap_lower * (1 - 1e-12) <= ref.gap_norm
            assert ref.gap_norm <= newton.gap_norm * (1 + 1e-12) + 1e-14
            if newton.diagnostics["finish"] != "exact":
                continue
            assert newton.gap_norm == pytest.approx(ref.gap_norm, rel=1e-12, abs=1e-14)
            uB = newton.uB.values
            with_interior += bool(np.any((uB > lo) & (uB < hi)))
        assert with_interior > 0


REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "references.json").read_text())


def _feasible_floor(aff, tol):
    """The absolute gap below which ``newton`` ends on a feasible box."""
    d = np.sqrt(np.diag(gram(aff)))
    return tol * np.sqrt(aff.h) * (1 + np.linalg.norm(aff.xi / d))


class TestNewton:
    @pytest.mark.parametrize("key", sorted(k for k in REFERENCES if k.startswith("gap:")))
    def test_matches_certified_references(self, key):
        _, name, nodes, bound = key.split(":")
        inst = builtin_instance(name)
        grid = inst.system.grid(int(nodes))
        aff = build_affine(inst.system, grid, inst.boundary)
        # at tol=1e-10 the certificate alone guarantees the match
        res = solve_gap(aff, Bounds.symmetric(float(bound)), SolveOptions(tol=1e-10))
        assert res.solver == "newton"
        assert res.converged
        expected = REFERENCES[key]["gap_norm"]
        assert abs(res.gap_norm - expected) <= 1e-10 * expected

    def test_feasible_box_ends_on_the_floor(self, di):
        _, aff = di
        tol = 1e-9
        res = solve_gap(aff, Bounds.symmetric(3.0), SolveOptions(tol=tol))
        assert res.converged
        assert res.diagnostics["stop"] == "certified"
        assert res.gap_lower == 0.0
        assert res.gap_norm <= _feasible_floor(aff, tol)

    def test_unreachable_tol_stops_within_a_bounded_number_of_steps(self):
        inst = builtin_instance("machine_tool")
        grid = inst.system.grid(1000)
        aff = build_affine(inst.system, grid, inst.boundary)
        bounds = Bounds.symmetric(1770.0)
        for tol in (1e-12, 1e-16):
            res = solve_gap(aff, bounds, SolveOptions(tol=tol))
            assert res.iterations <= 200
            excess = res.gap_norm - res.gap_lower
            if res.converged:
                assert excess <= tol * res.gap_norm
            else:
                assert res.diagnostics["stop"] == "stalled"
            # certified or not, the answer is the reference to its certificate
            expected = REFERENCES["gap:machine_tool:1000:1770"]["gap_norm"]
            assert abs(res.gap_norm - expected) <= max(excess, 1e-12 * expected)

    def test_max_iter_caps_newton_steps_and_keeps_the_best_iterate(self, di):
        _, aff = di
        bounds = Bounds.symmetric(1.0)
        res = solve_gap(aff, bounds, SolveOptions(max_iter=4))
        assert not res.converged
        assert res.iterations == 4
        assert res.diagnostics["stop"] == "max_iter"
        history = res.diagnostics["gap_history"]
        assert len(history) == 4
        assert res.gap_norm == pytest.approx(min(history), rel=1e-12)
        lo, hi = bounds.sample(aff.grid, 1)
        assert np.all(res.uB.values >= lo) and np.all(res.uB.values <= hi)
        # a cap that falls on the certifying step still reports it
        full = solve_gap(aff, bounds)
        assert full.converged
        capped = solve_gap(aff, bounds, SolveOptions(max_iter=full.iterations))
        assert capped.converged
        assert capped.gap_norm == full.gap_norm

    def test_certificate_ends_never_cross_on_ill_conditioned_gramians(self):
        # random 4-state systems whose scaled W reaches cond 3e10: a
        # projection through the rounded W alone lost up to 7e-6 of the gap
        # and reported gaps below their own certified lower ends
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            for _ in range(60):
                A, B = rng.normal(0, 2, (4, 4)), rng.normal(0, 1, (4, 1))
                N = int(rng.integers(20, 300))
                x0, xf = rng.normal(0, 1, 4), rng.normal(0, 1, 4)
                system = make_lti_system(A, B, 0.0, 1.0)
                aff = build_affine(system, system.grid(N), BoundarySpec(x0=x0, xf=xf))
                if not aff.controllable:
                    continue
                a = 0.3 * np.max(np.abs(aff.G.T @ gram_solve(aff, aff.xi)))
                res = solve_gap(aff, Bounds.symmetric(a), SolveOptions(tol=1e-8))
                assert res.converged
                assert res.gap_lower <= res.gap_norm * (1 + 1e-12), (seed, N)


class TestHomogeneity:
    def test_joint_scaling(self, rng):
        inst = builtin_instance("double_integrator")
        system = inst.system
        grid = system.grid(400)
        base_aff = build_affine(system, grid, inst.boundary)
        base = solve_gap(base_aff, Bounds.symmetric(1.0), SolveOptions(tol=1e-11))
        tau = 1e-6 * np.max(np.abs(base.v.values))
        for s in rng.uniform(0.2, 5.0, 5):
            boundary = BoundarySpec(x0=s * inst.boundary.x0, xf=s * inst.boundary.xf)
            aff = build_affine(system, grid, boundary)
            scaled = solve_gap(aff, Bounds.symmetric(s * 1.0), SolveOptions(tol=1e-11))
            assert scaled.gap_norm == pytest.approx(s * base.gap_norm, rel=1e-6)
            mask = np.abs(base.v.values) > tau
            assert np.array_equal(np.sign(scaled.v.values[mask]),
                                  np.sign(base.v.values[mask]))


def replay_cold_newton(aff, bounds, tol):
    """The ``newton`` rule as it ran at every size before the coarse start,
    on the package's kernel and certificate: from the clipped zero control
    at eps = 1, eps growing tenfold only after a proximal step with a new
    interior set.  Returns the gap after every Newton step and the returned
    box iterate."""
    ws = gapsolve._Workspace(aff, bounds)
    Qt, c, Rhat = aff.basis
    floor = tol * np.sqrt(ws.h) * (1.0 + float(np.linalg.norm(Rhat.T @ c)))
    u = np.minimum(np.maximum(0.0, ws.lo), ws.hi)
    _, _, gap, lower = gapsolve._certify(ws, u)
    best, history = (gap - lower, u, gap), []
    y, eps, interior, stale = np.zeros_like(c), 1.0, None, 0
    while True:
        steps = dual_newton(Qt, c, ws.lo, ws.hi, u, eps, 1.0, y)
        u_y = next(steps)[1]
        for inner in range(1, gapsolve._INNER_STEPS + 1):
            step = next(steps, None)
            if step is not None:
                y, u_y, _, exact = step
            end = step is None or exact or inner == gapsolve._INNER_STEPS
            if end:
                Z = np.flatnonzero((u_y > ws.lo) & (u_y < ws.hi))
                u, _ = gapsolve._active_set_finish(ws, u_y)
                _, _, gap, lower = gapsolve._certify(ws, u)
                stale = 0 if gap - lower <= 0.5 * best[0] else stale + 1
                if gap - lower < best[0]:
                    best = (gap - lower, u, gap)
                if interior is None or not np.array_equal(Z, interior):
                    eps *= 10.0
                interior = Z
            history.append(best[2])
            if (best[0] <= tol * best[2] or best[2] <= floor
                    or stale >= gapsolve._STALL_STEPS):
                return history, best[1]
            if end:
                break


def alternating_scalar_integrator(N):
    """x' = b(t) u with b = +-1 alternating from node to node: controllable
    on the grid, while every block column sum of G, over an even number of
    nodes, is 0."""
    return make_ltv_system(lambda t: np.zeros((1, 1)),
                           lambda t: np.array([[(-1.0) ** round(t * N)]]), 1, 1, 0.0, 1.0)


class TestCoarseStart:
    """From ``gapsolve._COARSE_MIN_COORDS`` control coordinates up, ``newton``
    starts from the solve on ``AffineData.coarse``; below, every iterate is
    the cold rule's."""

    @staticmethod
    def cold(aff, bounds, tol=1e-8):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gapsolve, "_COARSE_MIN_COORDS", math.inf)
            return solve_gap(aff, bounds, SolveOptions(tol=tol))

    def assert_certified_inside_the_cold_interval(self, aff, bounds, tol=1e-8):
        res = solve_gap(aff, bounds, SolveOptions(tol=tol))
        assert res.diagnostics["coarse_iterations"] > 0
        assert res.converged
        cold = self.cold(aff, bounds, tol)
        assert cold.converged
        assert "coarse_iterations" not in cold.diagnostics
        # the two certified intervals [gap_lower, gap_norm] overlap
        assert max(res.gap_lower, cold.gap_lower) <= min(res.gap_norm, cold.gap_norm) * (1 + 1e-12)
        lo, hi = bounds.sample(aff.grid, aff.m)
        assert np.all(res.uB.values >= lo) and np.all(res.uB.values <= hi)

    def assert_takes_the_cold_path(self, aff, bounds):
        res = solve_gap(aff, bounds, SolveOptions(tol=1e-8))
        cold = self.cold(aff, bounds)
        assert "coarse_iterations" not in res.diagnostics
        assert bytes(res.diagnostics["gap_history"]) == bytes(cold.diagnostics["gap_history"])
        np.testing.assert_array_equal(res.uB.values, cold.uB.values)

    def test_below_the_floor_every_iterate_is_the_cold_rules(self, monkeypatch):
        solves = []

        def recorded(aff, bounds, opts=None):
            res = solve_gap(aff, bounds, opts)
            solves.append((aff, bounds, (opts or SolveOptions()).tol, res))
            return res

        monkeypatch.setattr(critical, "solve_gap", recorded)
        for name in BUILTIN_NAMES:
            inst = builtin_instance(name)
            critical_bound(inst.system, inst.system.grid(1000), inst.boundary)
        inst = builtin_instance("machine_tool")
        aff = build_affine(inst.system, inst.system.grid(1000), inst.boundary)
        recorded(aff, Bounds.symmetric(1770.0), SolveOptions(tol=1e-8))
        assert len(solves) == 5
        for aff, bounds, tol, res in solves:
            history, uB = replay_cold_newton(aff, bounds, tol)
            assert "coarse_iterations" not in res.diagnostics
            assert bytes(res.diagnostics["gap_history"]) == np.array(history).tobytes()
            assert res.uB.flat.tobytes() == uB.tobytes()

    @pytest.mark.parametrize("name,a", [("machine_tool", 1770.0), ("machine_tool", 1774.5),
                                        ("machine_tool", 1774.8),
                                        ("double_integrator", 2.414),
                                        ("damped_oscillator", 0.47)])
    def test_builtins_near_a_c(self, name, a):
        inst = builtin_instance(name)
        aff = build_affine(inst.system, inst.system.grid(20_000), inst.boundary)
        self.assert_certified_inside_the_cold_interval(aff, Bounds.symmetric(a))

    def test_time_varying_system_on_uneven_blocks(self):
        system = make_ltv_system(lambda t: np.array([[0.0, 1.0], [-4.0 * t, -0.5]]),
                                 lambda t: np.array([[0.0], [1.0 + 0.5 * t]]),
                                 2, 1, 0.0, 1.0)
        N = 16_400  # 256 blocks of 64 nodes and one of 16
        aff = build_affine(system, system.grid(N),
                           BoundarySpec(x0=[0.0, 1.0], xf=[0.0, 0.0]))
        assert aff.coarse.grid.N == 257
        self.assert_certified_inside_the_cold_interval(aff, Bounds.symmetric(1.0))

    def test_two_inputs_with_per_node_bounds_on_uneven_blocks(self):
        aff, bounds = two_input_problem(8250)
        assert aff.coarse.G.shape == (2, 2 * 129)
        self.assert_certified_inside_the_cold_interval(aff, bounds)

    def test_uncontrollable_coarse_grid_takes_the_cold_path(self):
        N = 16_384
        system = alternating_scalar_integrator(N)
        aff = build_affine(system, system.grid(N), BoundarySpec(x0=[0.0], xf=[1.0]))
        assert aff.controllable and not aff.coarse.controllable
        self.assert_takes_the_cold_path(aff, Bounds.symmetric(0.5))

    def test_empty_block_box_takes_the_cold_path(self):
        inst = builtin_instance("double_integrator")
        N = 16_384
        aff = build_affine(inst.system, inst.system.grid(N), inst.boundary)
        # boxes [-1, -0.5] and [0.5, 1] on alternate nodes: no control is
        # constant on a block
        odd = np.arange(N) % 2 == 1
        bounds = Bounds(lower=np.where(odd, 0.5, -1.0), upper=np.where(odd, 1.0, -0.5))
        self.assert_takes_the_cold_path(aff, bounds)

    def test_stale_proximal_steps_grow_eps(self):
        # From the coarse start the interior set can repeat while the excess
        # does not halve; holding eps there stalls this solve at excess 8e-3.
        inst = builtin_instance("double_integrator")
        aff = build_affine(inst.system, inst.system.grid(50_000), inst.boundary)
        res = solve_gap(aff, Bounds.symmetric(2.414), SolveOptions(tol=1e-8))
        assert res.diagnostics["stop"] == "certified"
        assert res.gap_norm - res.gap_lower <= 1e-8 * res.gap_norm

    def test_a_cut_proximal_step_shrinks_eps(self):
        # From the coarse start this solve reaches eps = 1e12, where the
        # kernel does not converge in a proximal step; growing eps further
        # stalled it after 288 Newton steps at excess 4.9e-9.
        inst = builtin_instance("machine_tool")
        aff = build_affine(inst.system, inst.system.grid(200_000), inst.boundary)
        res = solve_gap(aff, Bounds.symmetric(1774.7), SolveOptions(tol=1e-9))
        assert res.diagnostics["coarse_iterations"] > 0
        assert res.diagnostics["stop"] == "certified"
        assert res.gap_norm - res.gap_lower <= 1e-9 * res.gap_norm
