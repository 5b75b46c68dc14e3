import math
from collections import Counter
from itertools import islice

import numpy as np
import pytest

from ctrlgap import (BoundarySpec, Bounds, InfeasibleIntersectionError,
                     SolveOptions, build_affine, builtin_instance, critical,
                     critical_bound, dykstra_min_energy, gapsolve, l2_norm,
                     make_lti_system, project, solve_gap)
from ctrlgap.critical import _lower_end
from ctrlgap.project import dual_newton

from conftest import LP_A_C_1000, gram_solve, ill_conditioned_affines, scaled_residual


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
        assert stats.converged and stats.residual <= 1e-9 * (1 + np.linalg.norm(aff.xi))

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


def counting(counts):
    """An ndarray subclass whose views count, in ``counts``, their products
    with a vector and, through lo, the dual evaluations, each of which clips
    once against it."""

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            inputs = [x.view(np.ndarray) if isinstance(x, Counting) else x for x in inputs]
            if ufunc is np.matmul and min(np.ndim(x) for x in inputs) == 1:
                counts["products"] += 1
            elif ufunc is np.maximum:
                counts["evaluations"] += 1
            return getattr(ufunc, method)(*inputs, **kwargs)

    return Counting


class TestDualNewton:
    def test_rejected_trials_take_no_product_with_qt(self, affine_1000, monkeypatch):
        # the gap at machine_tool N=1e3, a=1770 makes 112 dual evaluations in
        # 47 Newton steps (178 with plain halving); each evaluation once
        # formed Qt^T y and Qt u, now a rejected Armijo trial forms neither
        counts = Counter()
        Counting = counting(counts)

        def counted(Qt, c, lo, hi, *args):
            counts["calls"] += 1
            for iterate in dual_newton(Qt.view(Counting), c, lo.view(Counting), hi, *args):
                counts["iterates"] += 1
                yield iterate

        monkeypatch.setattr(gapsolve, "dual_newton", counted)
        assert solve_gap(affine_1000["machine_tool"], Bounds.symmetric(1770.0)).converged
        steps = counts["iterates"] - counts["calls"]
        rejected = counts["evaluations"] - counts["iterates"]
        assert rejected > steps
        # the start's two products, then per step the full trial's two and
        # the gradient of a shorter accepted one
        assert counts["products"] <= 2 * counts["calls"] + 3 * steps

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

    def test_verdict_lower_ends_form_no_product_with_qt(self, affine_1000, monkeypatch):
        # the machine_tool N=1e3 search: each infeasible verdict raises with
        # the kernel's Qt^T y, from which its lower end is read
        counts, ends, raised = Counter(), {}, []
        aff = affine_1000["machine_tool"]
        Qt, c, Rhat = aff.basis
        monkeypatch.setitem(aff.__dict__, "basis", (Qt.view(counting(counts)), c, Rhat))

        def lower_end(aff, s, g=None):
            before = counts["products"]
            end = ends[id(s)] = _lower_end(aff, s, g)
            assert counts["products"] == before
            return end

        def verdict(*args):
            try:
                return dykstra_min_energy(*args)
            except InfeasibleIntersectionError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(critical, "_lower_end", lower_end)
        monkeypatch.setattr(critical, "dykstra_min_energy", verdict)
        inst = builtin_instance("machine_tool")
        res = critical_bound(inst.system, aff.grid, inst.boundary, aff=aff)
        assert res.converged and raised
        # the end read from the kernel's g is the one Qt^T y gives, to rounding
        for exc in raised:
            assert ends[id(exc.multiplier)] == pytest.approx(_lower_end(aff, exc.multiplier),
                                                             rel=1e-12)

    def test_reaches_an_exact_step_at_a_large_eps(self, affine_1000):
        # double_integrator at N=1e3, a = 0.99 a_c, center 0 and y = 0: at
        # eps = 1e8 a step rule that accepts shorter steps than halving took
        # 406 Newton steps to an exact step, against 98
        aff = affine_1000["double_integrator"]
        Qt, c, _ = aff.basis
        lo, hi = (b.reshape(-1) for b in Bounds.symmetric(0.99 * LP_A_C_1000["double_integrator"])
                  .sample(aff.grid, aff.m))
        exact = [step[3] for step in islice(dual_newton(Qt, c, lo, hi, 0.0, 1e8, 1.0,
                                                        np.zeros_like(c)), 99)]
        assert exact[-1]

    @pytest.mark.parametrize("eps, most", [(1e6, 4), (1e8, 7)])
    def test_backtracking_takes_the_halving_step_in_few_trials(self, affine_1000, eps, most):
        # machine_tool at N=1e3, a=1770, center 0 and y = 0, where most full
        # steps are rejected: every step meets the Armijo rule with the dual
        # recomputed from y, and is the longest 2^-k that does, so halving
        # would have taken it, after k + 1 trials; where that is 10 or more,
        # the kernel takes at most ``most``, and over the steps that backtrack
        # it takes at most half as many
        aff = affine_1000["machine_tool"]
        Qt, c, _ = aff.basis
        lo, hi = (b.reshape(-1) for b in Bounds.symmetric(1770.0).sample(aff.grid, aff.m))

        def dual(y):
            u = np.clip(-eps * (Qt.T @ y), lo, hi)
            terms = (y @ (Qt @ u), -(y @ c), -0.5 * (y @ y), (u @ u) / (2.0 * eps))
            return sum(terms), project._DUAL_SLACK * sum(abs(term) for term in terms)

        counts = Counter()
        iterates, evaluations = [], []
        for step in dual_newton(Qt, c, lo.view(counting(counts)), hi, 0.0, eps, 1.0,
                                np.zeros_like(c)):
            iterates.append(step)
            evaluations.append(counts["evaluations"])
        halving, trials = [], np.diff(evaluations)
        for (y, u, grad, _, _), (y_next, *_) in zip(iterates, iterates[1:]):
            QF = Qt[:, (lo < u) & (u < hi)]
            direction = np.linalg.solve(np.eye(c.size) + eps * (QF @ QF.T), grad)
            t = (y_next - y) @ direction / (direction @ direction)
            level = round(-math.log2(t))
            assert t == pytest.approx(0.5 ** level, rel=1e-6)
            (value, slack), slope = dual(y), float(grad @ direction)
            assert dual(y_next)[0] >= value + 1e-4 * 0.5 ** level * slope - slack
            if level:
                longer = 0.5 ** (level - 1)
                assert dual(y + longer * direction)[0] < value + 1e-4 * longer * slope - slack
            halving.append(level + 1)
        halving = np.array(halving)
        assert iterates[-1][3] and np.count_nonzero(halving >= 10) >= 2
        assert np.all(trials[halving >= 10] <= most)
        backtracked = halving > 1
        assert trials[backtracked].sum() <= 0.5 * halving[backtracked].sum()

    @pytest.mark.parametrize("name", sorted(LP_A_C_1000))
    @pytest.mark.parametrize("share", [0.99, 1.01])
    def test_weighted_steps_solve_directly_and_follow_no_ray(self, affine_1000, monkeypatch,
                                                             name, share):
        # weight I + eps Qt_F Qt_F^T is regular for weight 1: its direct solve
        # is the least-squares step to rounding, and the iteration ends at its
        # first exact step with no ray after it
        aff = affine_1000[name]
        Qt, c, _ = aff.basis
        lo, hi = (b.reshape(-1) for b in Bounds.symmetric(share * LP_A_C_1000[name])
                  .sample(aff.grid, aff.m))
        solve, solves = np.linalg.solve, []

        def recorded(M, b):
            solves.append((M, b, solve(M, b)))
            return solves[-1][2]

        monkeypatch.setattr(np.linalg, "solve", recorded)
        for eps in (1.0, 1e4, 1e8):
            exact = [step[3] for step in dual_newton(Qt, c, lo, hi, 0.0, eps, 1.0,
                                                         np.zeros_like(c))]
            assert exact == [False] * (len(exact) - 1) + [True]
        assert solves
        for M, b, x in solves:
            ref = np.linalg.lstsq(M, b, rcond=None)[0]
            assert np.linalg.norm(x - ref) <= 1e-14 * np.linalg.cond(M) * np.linalg.norm(x)
