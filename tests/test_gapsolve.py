import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from ctrlgap import (BoundarySpec, Bounds, ControlTrajectory, LinearSystem,
                     UncontrollableGridError, build_affine, builtin_instance,
                     brute_force_gap, dykstra_min_energy, extract_switchings, gapsolve,
                     solve_gap)

from conftest import gram, gram_solve, random_tiny_problem, scalar_integrator


class BangBangReport(NamedTuple):
    """Share of band-exempt nodes where the control sits on the bound that
    the sign of the gap vector selects."""

    agreement: float
    tested: int
    violations: int


def check_bang_bang(uB: ControlTrajectory, v: ControlTrajectory, bounds: Bounds,
                    tau: float) -> BangBangReport:
    """The sign rule: where the gap vector clears the tau band, uB must sit
    on the upper bound when v >= 0 and on the lower bound when v < 0.  Nodes
    inside the band are exempt (the rule leaves them undetermined)."""
    lo, hi = bounds.sample(uB.grid, uB.m)
    tested_mask = np.abs(v.values) > tau
    selected = np.where(v.values >= 0.0, hi, lo)
    ok = np.abs(uB.values - selected) <= 1e-9 * (1.0 + np.abs(selected))
    tested = int(np.sum(tested_mask))
    violations = int(np.sum(tested_mask & ~ok))
    agreement = 1.0 if tested == 0 else 1.0 - violations / tested
    return BangBangReport(agreement=agreement, tested=tested, violations=violations)


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
        assert "v" not in res._fields  # formed from the pair, not stored
        assert np.all(res.uB.values >= lo) and np.all(res.uB.values <= hi)
        feas = np.linalg.norm(aff.G @ res.uA.flat - aff.xi)
        assert feas <= 1e-10 * (1 + np.linalg.norm(aff.xi))

    def test_complementarity_at_optimum(self, di):
        _, aff = di
        tol = 1e-10
        res = solve_gap(aff, Bounds.symmetric(1.0), tol=tol)
        rep = check_bang_bang(res.uB, res.v, Bounds.symmetric(1.0), tau=10 * tol)
        assert rep.agreement == 1.0
        assert rep.tested > 0

    @pytest.mark.parametrize("kwargs, message", [
        ({"tol": 0.0}, "tol must be positive and finite, got 0.0"),
        ({"tol": math.inf}, "tol must be positive and finite"),
        ({"max_iter": 0}, "max_iter must be at least 1, got 0")],
        ids=["tol_0", "tol_inf", "max_iter_0"])
    @pytest.mark.parametrize("solver", [solve_gap, dykstra_min_energy],
                             ids=["gap", "min_energy"])
    def test_options_are_checked(self, di, solver, kwargs, message):
        # both solvers run the one check, before any work
        with pytest.raises(ValueError, match=message):
            solver(di[1], Bounds.symmetric(1.0), **kwargs)

    def test_unconverged_result_populated(self, di):
        _, aff = di
        res = solve_gap(aff, Bounds.symmetric(1.0), max_iter=3)
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
        res = solve_gap(aff, bounds, tol=1e-12)
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


def workspace(aff, bounds):
    return gapsolve._Workspace(aff, *bounds.sample(aff.grid, aff.m))


def exact_finish(aff, bounds, u):
    """One primal-dual active-set step from the box point ``u`` in plain
    numpy, an oracle for the solver's optimum: the nodes strictly inside the
    box are solved for by least squares with the others held, and the
    result is returned only if it stays in the box and the gap vector has
    the sign of the bound at every held node; else None."""
    lo, hi = (b.reshape(-1) for b in bounds.sample(aff.grid, aff.m))
    Qt, c, _ = aff.basis
    Z = np.flatnonzero((u > lo) & (u < hi))
    if Z.size > c.size:
        return None
    held = u.copy()
    held[Z] = 0.0
    held[Z] = np.linalg.lstsq(Qt[:, Z], c - Qt @ held, rcond=None)[0]
    g = Qt.T @ (Qt @ held - c)
    slack = 1e-12 * np.max(np.abs(g))
    if (np.any(held < lo) or np.any(held > hi) or np.any((u >= hi) & (g > slack))
            or np.any((u <= lo) & (g < -slack))):
        return None
    return held


def two_input_problem(N):
    """A double integrator driven through two inputs, with bounds that vary
    from node to node and channel to channel; infeasible, bang-bang uB."""
    system = LinearSystem([[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.4], [1.0, 0.3]], 0.0, 1.0)
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
        bounds = Bounds.symmetric(1770.0)
        first, second = (solve_gap(aff, bounds, max_iter=50) for _ in range(2))
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
        # the solver, the restarted momentum replay and that replay after an
        # exact active-set step
        inst = builtin_instance(name)
        grid = inst.system.grid(2000)
        aff = build_affine(inst.system, grid, inst.boundary)
        bounds = Bounds.symmetric(a)
        res = solve_gap(aff, bounds, tol=tol)
        assert res.converged
        assert res.gap_norm - res.gap_lower <= tol * res.gap_norm
        ws = workspace(aff, bounds)
        u, _, _ = replay_projection_steps(aff, bounds, 2000, True, np.zeros(grid.N))
        finished = exact_finish(aff, bounds, u)
        gaps, lowers = [res.gap_norm], [res.gap_lower]
        for point in (u, u if finished is None else finished):
            _, gap, lower = gapsolve._certify(ws, point)
            gaps.append(gap)
            lowers.append(lower)
        for g1 in gaps:
            for g2 in gaps:
                assert abs(g1 - g2) <= 1e-6 * (1 + g1)
        # each answer certifies [gap_lower, gap_norm] around the one true gap
        assert max(lowers) <= min(gaps) * (1 + 1e-12)


class TestExactAnswer:
    @pytest.mark.parametrize("name,a", [("double_integrator", 1.0),
                                        ("damped_oscillator", 0.3)])
    def test_solver_and_finished_replay_agree_on_switch_times(self, name, a):
        # the solver's answer and 2,000 restarted momentum replay steps after
        # an exact active-set step are both the exact optimum
        inst = builtin_instance(name)
        grid = inst.system.grid(2000)
        aff = build_affine(inst.system, grid, inst.boundary)
        bounds = Bounds.symmetric(a)
        res = solve_gap(aff, bounds, tol=1e-9)
        assert res.diagnostics["finish"] == "exact"
        u, _, _ = replay_projection_steps(aff, bounds, 2000, True, np.zeros(grid.N))
        replayed = exact_finish(aff, bounds, u)
        assert replayed is not None
        times = [extract_switchings(x).switch_times
                 for x in (res.uB, ControlTrajectory.from_flat(replayed, grid, aff.m))]
        assert times[0] and len(times[1]) == len(times[0])
        assert np.max(np.abs(np.subtract(times[1], times[0]))) <= 1e-10

    @pytest.mark.parametrize("name,N,a", [("double_integrator", 1000, 1.0),
                                          ("machine_tool", 1000, 1500.0),
                                          ("double_integrator", 10_000, 2.414),
                                          ("damped_oscillator", 10_000, 0.3)])
    def test_the_floor_of_an_exact_answer_stays_below_its_gap(self, name, N, a):
        # the answer's own gap bounds the true gap; on these four the floor
        # from the margin as computed lay above it, by up to 5e-15 of it
        inst = builtin_instance(name)
        aff = build_affine(inst.system, inst.system.grid(N), inst.boundary)
        res = solve_gap(aff, Bounds.symmetric(a))
        assert res.converged and res.diagnostics["finish"] == "exact"
        assert 0.0 < res.gap_lower <= res.gap_norm

    def test_feasible_box_returns_the_critical_control(self, di):
        # a >= a_c: the vertex control, in the box and on the affine set
        _, aff = di
        res = solve_gap(aff, Bounds.symmetric(3.0))
        assert res.diagnostics["stop"] == "certified"
        assert res.diagnostics["finish"] == "exact"
        assert res.iterations == res.diagnostics["pivots"]
        assert np.max(np.abs(res.uB.values)) <= 3.0
        assert res.gap_norm <= _feasible_floor(aff, 1e-9)

    def test_box_centred_on_the_affine_set(self):
        # x' = u from 0 to 0: the centre u = 0 of a symmetric box steers the
        # system, so it is the answer without a pivot
        system = scalar_integrator()
        aff = build_affine(system, system.grid(40), BoundarySpec(x0=[0.0], xf=[0.0]))
        res = solve_gap(aff, Bounds.symmetric(1.0))
        assert res.converged and res.iterations == 0
        np.testing.assert_array_equal(res.uB.values, 0.0)
        assert res.gap_norm == 0.0

    def test_copies_of_one_column_share_their_kink(self):
        # x' = (u1 + y, u2) for the state (x, y): every node of u1 has the
        # same column, so at a vertex the nodes off the bound are all of
        # them or none; a descent that kinks one copy at a time took 1,000
        # steps here
        system = LinearSystem([[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], 0.0, 1.0)
        aff = build_affine(system, system.grid(300), BoundarySpec(x0=[0.0, 1.0], xf=[0.0, 0.0]))
        res = solve_gap(aff, Bounds.symmetric(0.5), tol=1e-8)
        assert res.converged and res.diagnostics["finish"] == "exact"
        assert res.iterations <= 10

    def test_exact_answer_matches_enumeration(self, rng):
        with_interior = 0
        for _ in range(30):
            problem = random_tiny_problem(rng, max_coords=6)
            if problem is None:
                continue
            grid, aff, bounds = problem
            ref = brute_force_gap(aff, bounds)
            lo, hi = bounds.sample(grid, aff.m)
            res = solve_gap(aff, bounds, tol=1e-9)
            assert res.converged and res.diagnostics["finish"] == "exact"
            assert res.gap_lower * (1 - 1e-12) <= ref.gap_norm
            assert ref.gap_norm <= res.gap_norm * (1 + 1e-12) + 1e-14
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
        res = solve_gap(aff, Bounds.symmetric(float(bound)), tol=1e-10)
        assert res.converged
        expected = REFERENCES[key]["gap_norm"]
        assert abs(res.gap_norm - expected) <= 1e-10 * expected

    def test_feasible_box_ends_on_the_floor(self, di):
        _, aff = di
        tol = 1e-9
        res = solve_gap(aff, Bounds.symmetric(3.0), tol=tol)
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
            res = solve_gap(aff, bounds, tol=tol)
            assert res.iterations <= 200
            excess = res.gap_norm - res.gap_lower
            if res.converged:
                assert excess <= tol * res.gap_norm
            else:
                assert res.diagnostics["stop"] == "rounding"
                assert res.diagnostics["finish"] == "exact"
            # certified or not, the answer is the reference to its certificate
            expected = REFERENCES["gap:machine_tool:1000:1770"]["gap_norm"]
            assert abs(res.gap_norm - expected) <= max(excess, 1e-12 * expected)

    def test_max_iter_caps_pivots_and_steps_and_keeps_a_box_point(self, di):
        _, aff = di
        bounds = Bounds.symmetric(1.0)
        full = solve_gap(aff, bounds)
        assert full.converged and full.iterations > 3
        res = solve_gap(aff, bounds, max_iter=3)
        assert not res.converged
        assert res.iterations == 3
        assert res.diagnostics["stop"] == "max_iter"
        assert res.diagnostics["finish"] == "cut"
        lo, hi = bounds.sample(aff.grid, 1)
        assert np.all(res.uB.values >= lo) and np.all(res.uB.values <= hi)
        assert res.gap_lower <= full.gap_norm * (1 + 1e-12) <= res.gap_norm * (1 + 2e-12)
        # a cap that falls on the last step still reports it
        capped = solve_gap(aff, bounds, max_iter=full.iterations)
        assert capped.converged
        assert capped.gap_norm == full.gap_norm

    def test_max_iter_cuts_the_exchange_on_the_blocks(self):
        inst = builtin_instance("machine_tool")
        aff = build_affine(inst.system, inst.system.grid(16_384), inst.boundary)
        bounds = Bounds.symmetric(1770.0)
        res = solve_gap(aff, bounds, max_iter=3)
        assert (res.iterations, res.diagnostics["pivots"]) == (3, 3)
        assert res.diagnostics["stop"] == "max_iter"
        lo, hi = bounds.sample(aff.grid, 1)
        assert np.all(res.uB.values >= lo) and np.all(res.uB.values <= hi)
        assert res.gap_lower <= res.gap_norm

    def test_an_exchange_cut_short_below_the_cap_stops_on_rounding(self, monkeypatch):
        # an exchange that ends untested below max_iter, as on dependent
        # vertex columns, here after one pivot: the feasible box's clipped
        # control misses the set, and the stop names rounding, not the cap
        critical_vertex = gapsolve.critical_vertex
        monkeypatch.setattr(gapsolve, "critical_vertex",
                            lambda Qt, b, w, max_pivots, s=None: critical_vertex(Qt, b, w, 1, s))
        inst = builtin_instance("machine_tool")
        aff = build_affine(inst.system, inst.system.grid(1000), inst.boundary)
        res = solve_gap(aff, Bounds.symmetric(1800.0))
        assert res.iterations == res.diagnostics["pivots"] == 1
        assert not res.converged
        assert (res.diagnostics["stop"], res.diagnostics["finish"]) == ("rounding", "cut")

    def test_descent_ends_only_where_the_box_holds_every_interior_value(self):
        # machine_tool at N=1e3, a=1770: the vertex's interior set is not the
        # answer's, so the descent releases nodes that leave the box before
        # its optimality test passes
        inst = builtin_instance("machine_tool")
        aff = build_affine(inst.system, inst.system.grid(1000), inst.boundary)
        res = solve_gap(aff, Bounds.symmetric(1770.0))
        assert res.converged
        assert res.iterations - res.diagnostics["pivots"] >= 2
        u = res.uB.flat
        interior = np.flatnonzero(np.abs(u) < 1770.0)
        assert 0 < interior.size <= aff.n
        # uB is the exact optimum: its gap vector vanishes on the interior
        # nodes and has the sign of the bound elsewhere
        v = res.v.flat
        scale = np.max(np.abs(v))
        assert np.all(np.abs(v[interior]) <= 1e-9 * scale)
        held = np.abs(u) == 1770.0
        assert np.all(v[held] * np.sign(u[held]) >= -1e-12 * scale)

    @pytest.mark.parametrize("name,nodes,a", [("double_integrator", 50_000, 1.0),
                                              ("machine_tool", 10_000, 1774.5),
                                              ("double_integrator", 50_000, 2.414)])
    def test_certifies_at_tol_1e9_where_a_switch_node_sits_at_rounding(self, name, nodes, a):
        # the gap of a fine_grid benchmark operation and a machine_tool gap
        # just below a_c, where a descent that holds a node whose g is at
        # rounding level on a bound ends at excess 3.6e-9 and 7.3e-7; and the
        # double integrator just below a_c
        inst = builtin_instance(name)
        aff = build_affine(inst.system, inst.system.grid(nodes), inst.boundary)
        res = solve_gap(aff, Bounds.symmetric(a), tol=1e-9)
        assert res.diagnostics["stop"] == "certified"
        assert res.gap_norm - res.gap_lower <= 1e-9 * res.gap_norm

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
                system = LinearSystem(A, B, 0.0, 1.0)
                aff = build_affine(system, system.grid(N), BoundarySpec(x0=x0, xf=xf))
                if not aff.controllable:
                    continue
                a = 0.3 * np.max(np.abs(aff.G.T @ gram_solve(aff, aff.xi)))
                res = solve_gap(aff, Bounds.symmetric(a), tol=1e-8)
                assert res.converged
                assert res.gap_lower <= res.gap_norm * (1 + 1e-12), (seed, N)


class TestHomogeneity:
    def test_joint_scaling(self, rng):
        inst = builtin_instance("double_integrator")
        system = inst.system
        grid = system.grid(400)
        base_aff = build_affine(system, grid, inst.boundary)
        base = solve_gap(base_aff, Bounds.symmetric(1.0), tol=1e-11)
        tau = 1e-6 * np.max(np.abs(base.v.values))
        for s in rng.uniform(0.2, 5.0, 5):
            boundary = BoundarySpec(x0=s * inst.boundary.x0, xf=s * inst.boundary.xf)
            aff = build_affine(system, grid, boundary)
            scaled = solve_gap(aff, Bounds.symmetric(s * 1.0), tol=1e-11)
            assert scaled.gap_norm == pytest.approx(s * base.gap_norm, rel=1e-6)
            mask = np.abs(base.v.values) > tau
            assert np.array_equal(np.sign(scaled.v.values[mask]),
                                  np.sign(base.v.values[mask]))


def alternating_scalar_integrator(N):
    """x' = -2N x + u on [0, 1], N a power of 2: the Euler step 1 - 2Nh is
    -1 exactly, so the columns of G alternate between +h and -h from node to
    node: controllable on the grid, while every block column sum of Qt, over
    an even number of nodes, is 0."""
    return LinearSystem([[-2.0 * N]], [[1.0]], 0.0, 1.0)


class TestBlockStart:
    """From ``gapsolve._BLOCK_MIN_COORDS`` control coordinates up, the
    exchange starts from the vertex on block-constant controls; the answer
    is certified like the one from the cold exchange."""

    @staticmethod
    def cold(aff, bounds, tol=1e-8):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gapsolve, "_BLOCK_MIN_COORDS", math.inf)
            return solve_gap(aff, bounds, tol=tol)

    def assert_certified_inside_the_cold_interval(self, aff, bounds, tol=1e-8):
        res = solve_gap(aff, bounds, tol=tol)
        assert res.converged
        cold = self.cold(aff, bounds, tol)
        assert cold.converged
        # the two certified intervals [gap_lower, gap_norm] overlap
        assert max(res.gap_lower, cold.gap_lower) <= min(res.gap_norm, cold.gap_norm) * (1 + 1e-12)
        lo, hi = bounds.sample(aff.grid, aff.m)
        assert np.all(res.uB.values >= lo) and np.all(res.uB.values <= hi)

    @pytest.mark.parametrize("name,a", [("machine_tool", 1770.0), ("machine_tool", 1774.5),
                                        ("machine_tool", 1774.8),
                                        ("double_integrator", 2.414),
                                        ("damped_oscillator", 0.47)])
    def test_builtins_near_a_c(self, name, a):
        inst = builtin_instance(name)
        aff = build_affine(inst.system, inst.system.grid(20_000), inst.boundary)
        self.assert_certified_inside_the_cold_interval(aff, Bounds.symmetric(a))

    def test_the_largest_grid_near_a_c_at_tol_1e9(self):
        # from the block start, just below a_c
        inst = builtin_instance("machine_tool")
        aff = build_affine(inst.system, inst.system.grid(200_000), inst.boundary)
        res = solve_gap(aff, Bounds.symmetric(1774.7), tol=1e-9)
        assert res.diagnostics["stop"] == "certified"
        assert res.gap_norm - res.gap_lower <= 1e-9 * res.gap_norm

    def test_per_node_bounds_on_uneven_blocks(self):
        inst = builtin_instance("double_integrator")
        grid = inst.system.grid(16_400)  # 256 blocks of 64 nodes and one of 16
        aff = build_affine(inst.system, grid, inst.boundary)
        a = 1.0 + 0.5 * grid.left_nodes
        self.assert_certified_inside_the_cold_interval(aff, Bounds(lower=-a, upper=a))

    def test_two_inputs_with_per_node_bounds_on_uneven_blocks(self):
        aff, bounds = two_input_problem(8250)  # 128 blocks of 64 nodes and one of 58
        self.assert_certified_inside_the_cold_interval(aff, bounds)

    def test_blocks_whose_columns_cancel(self):
        N = 16_384
        system = alternating_scalar_integrator(N)
        aff = build_affine(system, system.grid(N), BoundarySpec(x0=[0.0], xf=[1.0]))
        Qt = aff.basis[0]
        assert not np.any(np.add.reduceat(Qt, np.arange(0, N, gapsolve._BLOCK), axis=1))
        self.assert_certified_inside_the_cold_interval(aff, Bounds.symmetric(0.5))

    def test_empty_block_box_takes_the_cold_exchange(self):
        inst = builtin_instance("double_integrator")
        N = 16_384
        aff = build_affine(inst.system, inst.system.grid(N), inst.boundary)
        # boxes [-1, -0.5] and [0.5, 1] on alternate nodes: no control is
        # constant on a block
        odd = np.arange(N) % 2 == 1
        bounds = Bounds(lower=np.where(odd, 0.5, -1.0), upper=np.where(odd, 1.0, -0.5))
        res = solve_gap(aff, bounds, tol=1e-8)
        cold = self.cold(aff, bounds)
        assert res.diagnostics == cold.diagnostics
        np.testing.assert_array_equal(res.uB.values, cold.uB.values)
