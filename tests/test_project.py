from collections import Counter

import numpy as np
import pytest

from ctrlgap import (BoundarySpec, Bounds, InfeasibleIntersectionError, LinearSystem,
                     build_affine, builtin_instance, dykstra_min_energy,
                     l2_norm, project, solve_gap)
from ctrlgap.project import dual_newton

from conftest import (LP_A_C_1000, counting, gram_solve, ill_conditioned_affines,
                      scaled_residual, two_input_draw)


@pytest.fixture(scope="module")
def di():
    inst = builtin_instance("double_integrator")
    grid = inst.system.grid(2000)
    return grid, build_affine(inst.system, grid, inst.boundary)


class TestDykstra:
    def test_wide_box_reaches_unconstrained_optimum(self, di):
        grid, aff = di
        u, stats = dykstra_min_energy(aff, Bounds.symmetric(10.0))
        mids = grid.left_nodes + grid.h / 2
        assert np.max(np.abs(u.values[:, 0] - (6 * mids - 4))) <= 5 * grid.h
        assert stats.converged and aff.residual(u.flat) <= 1e-9 * (1 + np.linalg.norm(aff.xi))

    def test_huge_box_equals_affine_projection(self, di):
        # the projection of 0 onto {u : Qt u = c} is Qt^T c
        _, aff = di
        u, _ = dykstra_min_energy(aff, Bounds.symmetric(1e6))
        Qt, c, _ = aff.basis
        assert np.max(np.abs(u.flat - Qt.T @ c)) <= 1e-10

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
        res = solve_gap(aff, bounds, tol=1e-10)
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
        system = LinearSystem(A, B, 0.0, 1.0)
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
        assert aff.residual(u.flat) == pytest.approx(residual, abs=1e-15)

    @pytest.mark.parametrize("name", ["double_integrator", "damped_oscillator"])
    def test_just_above_critical_converges(self, affine_1000, name):
        aff = affine_1000[name]
        u, stats = dykstra_min_energy(aff, Bounds.symmetric((1 + 1e-5) * LP_A_C_1000[name]))
        assert stats.converged
        assert aff.residual(u.flat) <= 1e-9 * (1 + np.linalg.norm(aff.xi))

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
        Qt, c, _ = aff.basis
        y = err.value.multiplier
        assert abs(float(c @ y)) / float(np.abs(Qt.T @ y).sum()) > a

    @pytest.mark.parametrize("share", [1 - 1e-8, 1 + 1e-9, 1 + 3e-9, 1 + 5e-9, 1 + 1e-8,
                                       1 + 1e-7, 1 + 1e-6])
    def test_the_23rd_two_input_draw_ends_with_a_verdict(self, share):
        # n=3, N=601, a_c = 4.036452888090692: at each of these bounds the
        # kernel once found no step that passed an Armijo test after 17
        # iterates, and the solve ended neither converged nor certified
        system, grid, boundary = two_input_draw(23)
        aff = build_affine(system, grid, boundary)
        try:
            _, stats = dykstra_min_energy(aff, Bounds.symmetric(share * 4.036452888090692))
        except InfeasibleIntersectionError:
            return
        assert stats.converged

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
        gap = solve_gap(aff, bounds, tol=1e-11).gap_norm
        assert 0.0 < floor <= gap * (1 + 1e-9)


def shorter_steps(Qt, c, lo, hi, iterates):
    """The number of steps between the ``iterates`` that stop short of the
    full Newton step.  With the dual's slope along the Newton direction p
    recomputed from y, such a step must end at the slope's root, to
    rounding, and a full step where the slope is not negative or the clip
    pattern is kept.  Steps from an exact iterate follow a ray and are not
    checked."""
    shorter = 0
    for (y, u, grad, exact, _), (y_next, *_) in zip(iterates, iterates[1:]):
        if exact:
            continue
        QF = Qt[:, (lo < u) & (u < hi)]
        p = np.linalg.lstsq(QF @ QF.T, grad, rcond=None)[0]
        t = (y_next - y) @ p / (p @ p)
        u_next = np.clip(-(Qt.T @ y_next), lo, hi)
        slope = float(p @ (Qt @ u_next - c))
        rounding = 1e-11 * float(np.abs(p) @ (np.abs(Qt) @ np.abs(u_next) + np.abs(c)))
        if t == pytest.approx(1.0, rel=1e-6):
            assert slope >= -rounding or (np.array_equal(u_next <= lo, u <= lo)
                                          and np.array_equal(u_next >= hi, u >= hi))
        else:
            assert 0.0 < t < 1.0 and abs(slope) <= rounding
            shorter += 1
    return shorter


def kernel_calls(aff, monkeypatch, wrap=lambda Qt, lo: (Qt, lo)):
    """The (lo, hi, iterates) of every ``dual_newton`` call of two
    minimum-energy solves on the machine_tool N=1e3 ``aff``, 1e-8 below
    a_c, certified infeasible, and 1e-8 above, converged; ``wrap`` may
    replace the Qt and lo that the kernel gets."""
    calls = []

    def recorded(Qt, c, lo, hi, y):
        calls.append((lo, hi, []))
        Qt_k, lo_k = wrap(Qt, lo)
        for iterate in dual_newton(Qt_k, c, lo_k, hi, y):
            calls[-1][2].append(iterate)
            yield iterate

    monkeypatch.setattr(project, "dual_newton", recorded)
    a_c = LP_A_C_1000["machine_tool"]
    with pytest.raises(InfeasibleIntersectionError):
        dykstra_min_energy(aff, Bounds.symmetric((1 - 1e-8) * a_c))
    assert dykstra_min_energy(aff, Bounds.symmetric((1 + 1e-8) * a_c))[1].converged
    return calls


class TestDualNewton:
    def test_rejected_trials_take_no_product_with_qt(self, affine_1000, monkeypatch):
        # minimum-energy solves either side of the machine_tool N=1e3 a_c: a
        # step that stops short of the full step forms its control from Qt^T
        # y carried along the step, and at most one control besides the full
        # step's
        counts = Counter()
        Counting = counting(counts)
        calls = kernel_calls(affine_1000["machine_tool"], monkeypatch,
                                    lambda Qt, lo: (Qt.view(Counting), lo.view(Counting)))
        steps = sum(len(iterates) for *_, iterates in calls) - len(calls)
        # the start's clip, then per step the full step's and a shorter one's
        assert len(calls) + steps < counts["evaluations"] <= len(calls) + 2 * steps
        # the start's two products, then per step the full step's two and
        # the gradient of a shorter one
        assert counts["products"] <= 2 * len(calls) + 3 * steps

    @pytest.mark.parametrize("share", [0.99, 1.01])
    def test_min_energy_forms_no_product_with_qt_outside_the_kernel(self, affine_1000,
                                                                    monkeypatch, share):
        # the kernel yields Qt^T y with every iterate, so the certificate of an
        # unconverged one, or of the ray, takes no product of its own; the
        # kernel gets Qt as a plain array, so only products outside it count
        counts = Counter()
        aff = affine_1000["machine_tool"]
        Qt, c, Rhat = aff.basis
        monkeypatch.setitem(aff.__dict__, "basis", (Qt.view(counting(counts)), c, Rhat))
        monkeypatch.setattr(project, "dual_newton",
                            lambda Qt, *args: dual_newton(Qt.view(np.ndarray), *args))
        bounds = Bounds.symmetric(share * LP_A_C_1000["machine_tool"])
        if share < 1.0:
            with pytest.raises(InfeasibleIntersectionError):
                dykstra_min_energy(aff, bounds)
        else:
            _, stats = dykstra_min_energy(aff, bounds)
            assert stats.converged and stats.iterations > 1
        assert counts["products"] == 0

    def test_each_step_ends_where_the_dual_stops_rising(self, affine_1000, monkeypatch):
        # minimum-energy solves either side of the machine_tool N=1e3 a_c,
        # where on each side a few full steps overshoot
        Qt, c, _ = affine_1000["machine_tool"].basis
        calls = kernel_calls(affine_1000["machine_tool"], monkeypatch)
        assert len(calls) == 2
        assert all(shorter_steps(Qt, c, lo, hi, iterates) >= 1 for lo, hi, iterates in calls)
