import json
from pathlib import Path

import numpy as np
import pytest

from ctrlgap import (BoundarySpec, Bounds, ControlTrajectory, SolveOptions,
                     UncontrollableGridError, build_affine, builtin_instance,
                     brute_force_gap, check_bang_bang, extract_switchings,
                     make_lti_system, solve_gap)

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
    """The paper's alternating projections (MAP) and Douglas-Rachford
    splitting (DR), replayed in plain numpy, land in the certified interval
    [gap_lower, gap_norm] of the default solver."""

    @pytest.mark.parametrize("name,a", [("double_integrator", 1.0),
                                        ("damped_oscillator", 0.3)])
    @pytest.mark.parametrize("rule", ["map", "dr"])
    def test_replay_lands_in_the_certified_interval(self, name, a, rule):
        inst = builtin_instance(name)
        aff = build_affine(inst.system, inst.system.grid(2000), inst.boundary)
        bounds = Bounds.symmetric(a)
        res = solve_gap(aff, bounds)
        assert res.converged
        if rule == "map":
            u, _, gaps = replay_projection_steps(aff, bounds, 4000, False,
                                                 np.zeros(aff.grid.N))
            # MAP never raises the gap
            assert np.all(np.diff(gaps) <= 1e-14)
        else:
            u, gaps = replay_douglas_rachford(aff, bounds, 4000)
        # every replayed iterate is a box point, so its gap bounds the true gap
        assert res.gap_lower <= min(gaps)
        assert gaps[-1] <= res.gap_norm * (1 + 1e-7)
        assert_basis_step_matches_gram_solve(aff, u)


class TestFast:
    def test_fast_reproduces_restarted_momentum_steps(self, mt200):
        _, aff, bounds = mt200
        steps = 400
        u, restarts, _ = replay_projection_steps(aff, bounds, steps, True,
                                                 np.zeros(aff.grid.N))
        res = solve_gap(aff, bounds, SolveOptions(solver="fast", tol=1e-30, max_iter=steps))
        assert restarts >= 1
        assert res.diagnostics["restarts"] == restarts
        np.testing.assert_array_equal(res.uB.flat, u)
        assert_basis_step_matches_gram_solve(aff, u)

    def test_feasible_gap_vanishes(self, di):
        _, aff = di
        res = solve_gap(aff, Bounds.symmetric(3.0), SolveOptions(solver="fast"))
        assert res.gap_norm <= 1e-6

    def test_certified_bounds_bracket_gap(self, di):
        _, aff = di
        bounds = Bounds.symmetric(1.0)
        res = solve_gap(aff, bounds, SolveOptions(solver="fast", tol=1e-11))
        # at optimality the dual bound is tight
        assert res.gap_lower <= res.gap_norm + 1e-12
        assert res.gap_lower >= res.gap_norm * (1 - 1e-6) - 1e-9


def replay_projection_steps(aff, bounds, steps, momentum, u0):
    """``steps`` alternating projection steps u <- clip(P_affine(u)) (or,
    with momentum, restarted ``fast`` steps) from the box point u0 over all
    coordinates, the arithmetic of a full step in plain numpy; returns the
    last iterate, the restart count and the gap of every step."""
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


@pytest.fixture(scope="module")
def mt10k():
    inst = builtin_instance("machine_tool")
    grid = inst.system.grid(10_000)
    aff = build_affine(inst.system, grid, inst.boundary)
    bounds = Bounds.symmetric(1770.0)
    return aff, bounds, solve_gap(aff, bounds, SolveOptions(solver="fast", tol=1e-8))


class TestWorkingSet:
    """Steps on a working set must follow the full steps to rounding."""

    @staticmethod
    def assert_replays(aff, bounds, steps, rtol=1e-12):
        opts = SolveOptions(solver="fast", tol=1e-30, max_iter=steps)
        res = solve_gap(aff, bounds, opts)
        u, restarts, _ = replay_projection_steps(aff, bounds, steps, True,
                                                 np.zeros(aff.grid.N * aff.m))
        assert res.diagnostics["full_steps"] < steps  # the working set was used
        assert res.diagnostics["restarts"] == restarts
        assert np.max(np.abs(res.uB.flat - u)) <= rtol * np.max(np.abs(u))

    def test_fast_on_machine_tool(self, mt10k):
        aff, bounds, _ = mt10k
        self.assert_replays(aff, bounds, 1000)

    def test_epochs_end_when_the_multiplier_leaves_the_radius(self):
        # Just below a_c the switch times keep moving for thousands of steps;
        # an epoch that ran past its radius would hold nodes on a bound they
        # leave in a full step, 1e-6 of |u| away.  The free nodes amplify
        # rounding here, to 2e-12 of |u| after 4,000 steps.
        inst = builtin_instance("machine_tool")
        grid = inst.system.grid(4096)
        aff = build_affine(inst.system, grid, inst.boundary)
        self.assert_replays(aff, Bounds.symmetric(1774.5), 4000, rtol=1e-10)

    def test_two_inputs_with_per_node_bounds(self):
        aff, bounds = two_input_problem(4000)
        self.assert_replays(aff, bounds, 150)

    def test_default_tol_keeps_the_full_step_solve(self, mt10k):
        _, _, res = mt10k
        assert res.iterations == 9196
        assert res.diagnostics["restarts"] == 2
        assert res.diagnostics["full_steps"] < res.iterations / 10
        # the gap of the same solve with every step a full step
        assert res.gap_norm == pytest.approx(0.849703656360455, rel=1e-10)


class TestBuffers:
    @pytest.mark.parametrize("solver", ["newton", "fast"])
    def test_results_share_no_memory(self, mt200, solver):
        _, aff, bounds = mt200
        opts = SolveOptions(solver=solver, max_iter=50)
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
        inst = builtin_instance(name)
        grid = inst.system.grid(2000)
        aff = build_affine(inst.system, grid, inst.boundary)
        bounds = Bounds.symmetric(a)
        results = {s: solve_gap(aff, bounds, SolveOptions(tol=tol, solver=s))
                   for s in ("newton", "fast")}
        gaps = {s: res.gap_norm for s, res in results.items()}
        for s1 in gaps:
            for s2 in gaps:
                assert abs(gaps[s1] - gaps[s2]) <= 1e-6 * (1 + gaps[s1])
        # each answer certifies [gap_lower, gap_norm] around the one true gap
        lower = max(res.gap_lower for res in results.values())
        assert lower <= min(gaps.values()) * (1 + 1e-12)
        newton = results["newton"]
        assert newton.converged
        assert newton.gap_norm - newton.gap_lower <= tol * newton.gap_norm


class TestActiveSetFinish:
    @pytest.mark.parametrize("name,a,solvers", [
        ("double_integrator", 1.0, ("newton", "fast")),
        ("damped_oscillator", 0.3, ("newton", "fast")),
    ])
    def test_solvers_agree_on_switch_times(self, name, a, solvers):
        inst = builtin_instance(name)
        grid = inst.system.grid(2000)
        aff = build_affine(inst.system, grid, inst.boundary)
        times = {}
        for s in solvers:
            res = solve_gap(aff, Bounds.symmetric(a), SolveOptions(tol=1e-9, solver=s))
            assert res.diagnostics["finish"] == "exact"
            times[s] = extract_switchings(res.uB, grid).switch_times
        ref = times[solvers[0]]
        assert ref
        for s in solvers[1:]:
            assert len(times[s]) == len(ref)
            assert np.max(np.abs(np.subtract(times[s], ref))) <= 1e-10

    def test_rejected_finish_keeps_loop_iterate(self):
        inst = builtin_instance("machine_tool")
        grid = inst.system.grid(1000)
        aff = build_affine(inst.system, grid, inst.boundary)
        bounds = Bounds.symmetric(1770.0)
        res = solve_gap(aff, bounds, SolveOptions(solver="fast", tol=1e-8))
        assert res.diagnostics["stop"] == "tol"
        assert res.diagnostics["finish"].startswith("rejected_")
        # the same iterate, reached by a stop that runs no finish
        loop = solve_gap(aff, bounds, SolveOptions(solver="fast", tol=1e-30,
                                                   max_iter=res.iterations))
        assert loop.diagnostics["finish"] == "skipped"
        np.testing.assert_array_equal(res.uB.values, loop.uB.values)
        lo, hi = bounds.sample(grid, aff.m)
        assert np.all(res.uB.values >= lo) and np.all(res.uB.values <= hi)
        np.testing.assert_array_equal(res.v.values, res.uA.values - res.uB.values)
        before = res.diagnostics["gap_history"][-1]
        assert res.gap_norm == pytest.approx(before, rel=1e-4)

    def test_feasible_problem_rejected_on_size(self, di):
        _, aff = di
        res = solve_gap(aff, Bounds.symmetric(3.0), SolveOptions(solver="fast"))
        assert res.diagnostics["stop"] == "tol"
        assert res.diagnostics["finish"] == "rejected_size"

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
            for solver in ("newton", "fast"):
                res = solve_gap(aff, bounds, SolveOptions(tol=1e-9, solver=solver))
                if res.diagnostics["finish"] != "exact":
                    continue
                assert res.gap_norm == pytest.approx(ref.gap_norm, rel=1e-12, abs=1e-14)
                uB = res.uB.values
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
