import numpy as np
import pytest

from ctrlgap import (BoundarySpec, Bounds, ControlTrajectory,
                     InfeasibleIntersectionError, SolveOptions,
                     UncontrollableGridError, build_affine, builtin_instance,
                     dykstra_min_energy, l2_norm, make_lti_system,
                     project_affine, project_box, solve_gap, weighted_norm)
from ctrlgap.critical import _lower_end

from conftest import (LP_A_C_1000, gram_solve, ill_conditioned_affines, scaled_residual,
                      scalar_integrator)


@pytest.fixture(scope="module")
def di():
    inst = builtin_instance("double_integrator")
    grid = inst.system.grid(2000)
    return grid, build_affine(inst.system, grid, inst.boundary)


def random_control(grid, rng, scale=2.0, m=1):
    return ControlTrajectory(values=rng.normal(0, scale, (grid.N, m)), grid=grid)


class TestProjectBox:
    def test_inside_unchanged(self, di, rng):
        grid, _ = di
        u = ControlTrajectory(values=rng.uniform(-1, 1, (grid.N, 1)), grid=grid)
        out = project_box(u, Bounds.symmetric(1.0))
        np.testing.assert_array_equal(out.values, u.values)

    def test_clamps(self):
        grid = scalar_integrator().grid(3)
        u = ControlTrajectory(values=np.array([[3.0], [-2.0], [0.5]]), grid=grid)
        out = project_box(u, Bounds.symmetric(1.0))
        np.testing.assert_array_equal(out.values, [[1.0], [-1.0], [0.5]])

    def test_time_varying_bounds(self):
        # clamp a unit control to the widening box [-t, t] (horizon kept
        # away from zero so lower < upper holds everywhere)
        grid = scalar_integrator(0.5, 1.5).grid(4)
        b = Bounds(lower=lambda t: np.array([-t]), upper=lambda t: np.array([t]))
        u = ControlTrajectory(values=np.ones((4, 1)), grid=grid)
        out = project_box(u, b)
        np.testing.assert_allclose(out.values[:, 0],
                                   np.minimum(1.0, grid.left_nodes))

    def test_idempotent(self, di, rng):
        grid, _ = di
        u = random_control(grid, rng)
        b = Bounds.symmetric(0.7)
        once = project_box(u, b)
        twice = project_box(once, b)
        np.testing.assert_array_equal(once.values, twice.values)


class TestProjectAffine:
    def test_fixed_point_unchanged(self, di):
        grid, aff = di
        u0 = project_affine(ControlTrajectory.zeros(grid, 1), aff)
        again = project_affine(u0, aff)
        assert np.max(np.abs(again.values - u0.values)) <= \
            1e-12 * (1 + np.max(np.abs(u0.values)))

    def test_minimum_norm_control_converges(self, di):
        grid, aff = di
        out = project_affine(ControlTrajectory.zeros(grid, 1), aff)
        # compare against the closed-form control on the step midpoints it
        # represents; first-order transcription bias is ~3h there
        mids = grid.left_nodes + grid.h / 2
        err = np.max(np.abs(out.values[:, 0] - (6 * mids - 4)))
        assert err <= 5 * grid.h

    def test_scalar_least_norm_is_constant(self):
        sys_ = scalar_integrator()
        grid = sys_.grid(4)
        aff = build_affine(sys_, grid, BoundarySpec(x0=[0.0], xf=[1.0]))
        out = project_affine(ControlTrajectory.zeros(grid, 1), aff)
        np.testing.assert_allclose(out.values, np.ones((4, 1)), atol=1e-12)

    def test_displacement_in_row_space(self, di, rng):
        grid, aff = di
        u = random_control(grid, rng)
        out = project_affine(u, aff)
        move = out.flat - u.flat
        _, res, *_ = np.linalg.lstsq(aff.G.T, move, rcond=None)
        denom = max(np.linalg.norm(move), 1e-30)
        assert np.sqrt(res[0]) / denom <= 1e-10 if res.size else True

    def test_nonexpansive(self, di, rng):
        grid, aff = di
        for _ in range(5):
            a = random_control(grid, rng)
            b = random_control(grid, rng)
            pa, pb = project_affine(a, aff), project_affine(b, aff)
            lhs = weighted_norm(pa.values - pb.values, grid.h)
            rhs = weighted_norm(a.values - b.values, grid.h)
            assert lhs <= rhs * (1 + 1e-12)

    def test_box_nonexpansive(self, di, rng):
        grid, _ = di
        bounds = Bounds.symmetric(0.5)
        for _ in range(5):
            a = random_control(grid, rng)
            b = random_control(grid, rng)
            lhs = weighted_norm(project_box(a, bounds).values
                                - project_box(b, bounds).values, grid.h)
            rhs = weighted_norm(a.values - b.values, grid.h)
            assert lhs <= rhs * (1 + 1e-12)

    def test_singular_gram_refused(self):
        inst = builtin_instance("double_integrator")
        grid = inst.system.grid(1)
        aff = build_affine(inst.system, grid, inst.boundary)
        with pytest.raises(UncontrollableGridError):
            project_affine(ControlTrajectory.zeros(grid, 1), aff)

    def test_affine_residual_on_ill_conditioned_gramians(self, rng):
        # through the rounded W the scaled residual reached 6.7e-9 here
        for aff in ill_conditioned_affines():
            u = random_control(aff.grid, rng)
            assert scaled_residual(aff, project_affine(u, aff).flat) <= 1e-11


class TestDykstra:
    def test_wide_box_reaches_unconstrained_optimum(self, di):
        grid, aff = di
        u, stats = dykstra_min_energy(aff, Bounds.symmetric(10.0))
        mids = grid.left_nodes + grid.h / 2
        assert np.max(np.abs(u.values[:, 0] - (6 * mids - 4))) <= 5 * grid.h
        assert stats.converged and stats.residual <= 1e-9 * (1 + np.linalg.norm(aff.xi))

    def test_huge_box_equals_affine_projection(self, di):
        grid, aff = di
        u, _ = dykstra_min_energy(aff, Bounds.symmetric(1e6))
        direct = project_affine(ControlTrajectory.zeros(grid, 1), aff)
        assert np.max(np.abs(u.values - direct.values)) <= 1e-10

    def test_three_piece_structure_near_critical(self, di):
        # low bang, linear ramp, high bang; junction values are not pinned
        grid, aff = di
        a = 2.5
        u, stats = dykstra_min_energy(aff, Bounds.symmetric(a))
        vals = u.values[:, 0]
        at_lower = vals <= -a + 1e-9
        at_upper = vals >= a - 1e-9
        interior = ~(at_lower | at_upper)
        assert at_lower[0] and at_upper[-1]
        assert at_lower.sum() > 10 and at_upper.sum() > 10 and interior.sum() > 10
        idx = np.flatnonzero(interior)
        assert np.all(np.diff(idx) == 1)  # single contiguous ramp
        t = grid.left_nodes[idx]
        coef = np.polyfit(t, vals[idx], 1)
        assert np.max(np.abs(np.polyval(coef, t) - vals[idx])) <= 1e-8
        assert coef[0] > 0

    def test_two_piece_structure_when_upper_inactive(self, di):
        # at a=3 the re-optimized ramp peaks below the bound, so only the
        # lower bang survives
        grid, aff = di
        u, _ = dykstra_min_energy(aff, Bounds.symmetric(3.0))
        vals = u.values[:, 0]
        assert vals[0] <= -3.0 + 1e-9
        assert np.max(vals) < 3.0 - 1e-6
        idx = np.flatnonzero(np.abs(vals) < 3.0 - 1e-9)
        coef = np.polyfit(grid.left_nodes[idx], vals[idx], 1)
        assert np.max(np.abs(np.polyval(coef, grid.left_nodes[idx]) - vals[idx])) <= 1e-8

    def test_box_exact_and_weakly_optimal(self):
        # the minimum-norm feasible control beats the feasible point of a
        # cold gap solve
        inst = builtin_instance("double_integrator")
        grid = inst.system.grid(200)
        aff = build_affine(inst.system, grid, inst.boundary)
        bounds = Bounds.symmetric(3.0)
        u, stats = dykstra_min_energy(aff, bounds)
        lo, hi = bounds.sample(grid, 1)
        assert np.all(u.values >= lo) and np.all(u.values <= hi)
        res = solve_gap(aff, bounds, SolveOptions(tol=1e-10))
        assert res.converged and res.gap_norm <= 1e-6  # feasible instance
        assert l2_norm(u) <= l2_norm(res.uB) + 1e-9

    def test_infeasible_detected(self, di):
        _, aff = di
        with pytest.raises(InfeasibleIntersectionError):
            dykstra_min_energy(aff, Bounds.symmetric(1.0))

    def test_verdicts_on_ill_conditioned_gramians(self):
        # random systems whose scaled W reaches cond 3e10, at bounds around
        # the largest entry of the minimum-norm control G^T W^{-1} xi: a
        # converged control lies in the box and on the affine set to tol,
        # and every certified infeasibility is one the gap solver certifies
        tol, verdicts = 1e-9, {"converged": 0, "infeasible": 0}
        for aff in ill_conditioned_affines():
            peak = np.max(np.abs(aff.G.T @ gram_solve(aff, aff.xi)))
            for share in (0.6, 0.8, 1.0, 1.2):
                bounds = Bounds.symmetric(share * peak)
                try:
                    u, stats = dykstra_min_energy(aff, bounds, tol=tol)
                except InfeasibleIntersectionError:
                    res = solve_gap(aff, bounds)
                    assert res.converged and res.gap_lower > 0.0
                    verdicts["infeasible"] += 1
                    continue
                if stats.converged:
                    assert np.abs(u.values).max() <= share * peak
                    assert scaled_residual(aff, u.flat) <= tol
                    verdicts["converged"] += 1
        assert min(verdicts.values()) > 0

    def test_exact_step_meets_tol_on_an_ill_conditioned_gramian(self):
        # n=4, N=62, scaled cond(W) = 5.8e9: with the multiplier solved
        # through W the exact step kept a scaled residual of 1.2-4 tol from
        # the rounding of the scaled Gram matrix, and each solve here ended
        # unconverged
        rng = np.random.default_rng(1)
        for _ in range(4):
            n = int(rng.integers(1, 5))
            A, B = rng.normal(0, 2, (n, n)), rng.normal(0, 1, (n, 1))
            N = int(rng.integers(20, 300))
            x0, xf = rng.normal(0, 1, n), rng.normal(0, 1, n)
        system = make_lti_system(A, B, 0.0, 1.0)
        aff = build_affine(system, system.grid(N), BoundarySpec(x0=x0, xf=xf))
        peak = np.max(np.abs(aff.G.T @ gram_solve(aff, aff.xi)))
        for share in (0.6, 0.8, 1.0):
            u, stats = dykstra_min_energy(aff, Bounds.symmetric(share * peak), tol=1e-9)
            assert stats.converged
            assert scaled_residual(aff, u.flat) <= 1e-9

    def test_unconverged_flag(self, di):
        _, aff = di
        u, stats = dykstra_min_energy(aff, Bounds.symmetric(2.5), tol=1e-14,
                                      max_iter=3)
        assert not stats.converged and stats.iterations == 3


@pytest.fixture(scope="module")
def affine_1000():
    out = {}
    for name in LP_A_C_1000:
        inst = builtin_instance(name)
        grid = inst.system.grid(1000)
        out[name] = build_affine(inst.system, grid, inst.boundary)
    return out


class TestMinEnergyNearCritical:
    def test_feasible_machine_tool_converges_in_the_box(self, affine_1000):
        aff = affine_1000["machine_tool"]
        bounds = Bounds.symmetric(1.001 * LP_A_C_1000["machine_tool"])
        u, stats = dykstra_min_energy(aff, bounds)
        lo, hi = bounds.sample(aff.grid, aff.m)
        assert stats.converged
        assert np.all(u.values >= lo) and np.all(u.values <= hi)
        residual = np.linalg.norm(aff.G @ u.flat - aff.xi)
        assert residual <= 1e-9 * (1 + np.linalg.norm(aff.xi))
        assert stats.residual == pytest.approx(residual, abs=1e-15)

    @pytest.mark.parametrize("name", ["double_integrator", "damped_oscillator"])
    def test_just_above_critical_converges(self, affine_1000, name):
        aff = affine_1000[name]
        _, stats = dykstra_min_energy(aff, Bounds.symmetric((1 + 1e-5) * LP_A_C_1000[name]))
        assert stats.converged
        assert stats.residual <= 1e-9 * (1 + np.linalg.norm(aff.xi))

    @pytest.mark.parametrize("name", ["double_integrator", "damped_oscillator"])
    def test_just_below_critical_certified_infeasible(self, affine_1000, name):
        aff = affine_1000[name]
        with pytest.raises(InfeasibleIntersectionError, match="separates"):
            dykstra_min_energy(aff, Bounds.symmetric((1 - 1e-5) * LP_A_C_1000[name]))

    @pytest.mark.parametrize("name", sorted(LP_A_C_1000))
    def test_inside_rounding_of_critical_never_claims_convergence(self, affine_1000, name):
        # 1e-8 below a_c the gap is too small to certify and the control
        # cannot meet the residual tolerance: the solve must say so quickly
        aff = affine_1000[name]
        bounds = Bounds.symmetric((1 - 1e-8) * LP_A_C_1000[name])
        try:
            _, stats = dykstra_min_energy(aff, bounds, max_iter=10_000)
        except InfeasibleIntersectionError:
            return
        assert not stats.converged
        assert stats.iterations <= 100

    def test_converges_where_the_free_nodes_span_too_few_directions(self):
        # machine_tool at N=300, 1e-8 above a_c: the Newton steps reach a clip
        # pattern with 6 free nodes for 7 dual directions, on which the dual
        # rises along the seventh until one more node comes free
        inst = builtin_instance("machine_tool")
        aff = build_affine(inst.system, inst.system.grid(300), inst.boundary)
        bounds = Bounds.symmetric(1779.49875)
        u, stats = dykstra_min_energy(aff, bounds)
        assert stats.converged
        assert np.abs(u.values).max() <= 1779.49875
        assert scaled_residual(aff, u.flat) <= 1e-9

    def test_a_ray_that_meets_no_clipped_node_certifies_infeasibility(self):
        # double integrator at N=200, 7.0e-6 below the certified lower end
        # 2.4227947401: an exact step's Newton matrix is singular and the dual
        # rises along its ray without bound; ending there, the solve once
        # stopped after 13 steps neither converged nor certified
        inst = builtin_instance("double_integrator")
        aff = build_affine(inst.system, inst.system.grid(200), inst.boundary)
        a = 2.4227777746
        with pytest.raises(InfeasibleIntersectionError, match="separates") as err:
            dykstra_min_energy(aff, Bounds.symmetric(a))
        assert _lower_end(aff, err.value.multiplier) > a

    def test_separating_multiplier_bounds_the_critical_bound(self, affine_1000):
        # weak duality: the multiplier that certifies infeasibility gives the
        # lower end |c.y| / |Qt^T y|_1 of the critical bound
        aff = affine_1000["double_integrator"]
        a_c = LP_A_C_1000["double_integrator"]
        with pytest.raises(InfeasibleIntersectionError) as err:
            dykstra_min_energy(aff, Bounds.symmetric(0.999 * a_c))
        Qt, c, _ = aff.basis
        y = err.value.multiplier
        lower = abs(float(c @ y)) / float(np.abs(Qt.T @ y).sum())
        assert 0.0 < lower <= a_c

    def test_separating_multiplier_bounds_the_gap(self, affine_1000):
        # the floor in the error message lies under the gap a tight solve finds
        aff = affine_1000["damped_oscillator"]
        bounds = Bounds.symmetric(0.9 * LP_A_C_1000["damped_oscillator"])
        with pytest.raises(InfeasibleIntersectionError) as err:
            dykstra_min_energy(aff, bounds)
        floor = float(str(err.value).split("at least ")[1].split()[0])
        gap = solve_gap(aff, bounds, SolveOptions(tol=1e-11)).gap_norm
        assert 0.0 < floor <= gap * (1 + 1e-9)
