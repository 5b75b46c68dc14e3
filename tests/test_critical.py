import math

import numpy as np
import pytest

from ctrlgap import (BoundarySpec, Bounds, build_affine, builtin_instance, critical_bound,
                     di_critical_analytic, make_lti_system, solve_gap)
from ctrlgap.critical import _certified_ends

from conftest import LP_A_C_1000, gram


def _critical(name, nodes, **kwargs):
    inst = builtin_instance(name)
    return critical_bound(inst.system, inst.system.grid(nodes), inst.boundary, **kwargs)


@pytest.mark.parametrize("name", sorted(LP_A_C_1000))
def test_bracket_contains_exact_critical_bound(name):
    inst = builtin_instance(name)
    grid = inst.system.grid(1000)
    aff = build_affine(inst.system, grid, inst.boundary)
    res = critical_bound(inst.system, grid, inst.boundary, aff=aff)
    lo, hi = res.bracket
    assert res.converged
    assert lo <= LP_A_C_1000[name] <= hi
    assert res.a_c == hi
    assert all(p.lower <= LP_A_C_1000[name] <= p.upper for p in res.probes)
    # the Newton steps on d(a) run from the left: every lower end comes from
    # a gap solve below a_c
    assert all(p.a <= LP_A_C_1000[name] for p in res.probes)
    # u_c is the minimum-energy control in a box inside the bracket
    d = np.sqrt(np.diag(gram(aff)))
    assert res.stats.converged
    assert np.max(np.abs(res.u_c.values)) <= res.a_c
    residual = np.linalg.norm((aff.G @ res.u_c.flat - aff.xi) / d)
    assert residual <= 1e-9 * (1.0 + np.linalg.norm(aff.xi / d))


@pytest.mark.parametrize("nodes", [1000, 10_000])
@pytest.mark.parametrize("name", sorted(LP_A_C_1000))
def test_default_tol_a_converges(name, nodes):
    res = _critical(name, nodes, tol_a=1e-8)
    lo, hi = res.bracket
    assert res.converged and res.stats.converged
    assert hi - lo <= 1e-8 * (1.0 + hi)


@pytest.mark.parametrize("name", sorted(LP_A_C_1000))
def test_probes_replay_as_cold_default_solves(name):
    # a probe is a default gap solve at probe.a from the zero control: the
    # same solve run again gives the same ends, bit for bit
    inst = builtin_instance(name)
    grid = inst.system.grid(1000)
    aff = build_affine(inst.system, grid, inst.boundary)
    res = critical_bound(inst.system, grid, inst.boundary, aff=aff)
    assert res.probes
    for probe in res.probes:
        replay = solve_gap(aff, Bounds.symmetric(probe.a))
        assert replay.iterations == probe.iterations
        assert _certified_ends(aff, replay.uB.flat) == (probe.lower, probe.upper)


def test_default_tol_a_converges_on_random_systems():
    # 100 random single-input systems: a search that ended on a minimum-energy
    # step neither converged nor certified infeasible stopped unconverged on
    # 8 of them, each on an exact step whose ray meets no clipped node
    rng = np.random.default_rng(1)
    unconverged = []
    for case in range(100):
        n = int(rng.integers(2, 8))
        A = rng.normal(0, float(rng.choice([2.0, 4.0])), (n, n))
        B = rng.normal(0, 1, (n, 1))
        N = int(rng.integers(50, 300))
        x0, xf = rng.normal(0, 1, n), rng.normal(0, 1, n)
        system = make_lti_system(A, B, 0.0, 1.0)
        res = critical_bound(system, system.grid(N), BoundarySpec(x0=x0, xf=xf))
        lo, hi = res.bracket
        if not (res.converged and hi - lo <= 1e-8 * (1.0 + hi)):
            unconverged.append((case, n, N))
    assert unconverged == []


def test_tight_bracket_contains_exact_critical_bound():
    # a search that counts a probe as feasible once its gap is below a
    # tolerance ends this bracket 9.0e-7 below the exact bound
    res = _critical("double_integrator", 1000, tol_a=1e-6)
    lo, hi = res.bracket
    assert res.converged
    assert lo <= LP_A_C_1000["double_integrator"] <= hi


def test_first_order_convergence_to_analytic_bound():
    analytic = di_critical_analytic(0.0, 0.0, 1.0, 0.0)
    exact = analytic.a_c
    assert exact == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-14)
    assert analytic.t_c == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)
    nodes = (250, 500, 1000)
    results = [_critical("double_integrator", N, tol_a=1e-6) for N in nodes]
    errors = [res.a_c - exact for res in results]
    assert all(e > 0 for e in errors)
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(2.0, abs=0.01)
    # the switch of u_c converges to the analytic switching time as well
    for N, res in zip(nodes, results):
        assert len(res.switch_times) == 1
        assert abs(res.switch_times[0] - analytic.t_c) <= 1.0 / N


def test_analytic_symmetric_switch():
    sol = di_critical_analytic(0.0, 1.0, 0.0, 0.0)
    assert sol.case_tag == "a_ii"
    assert sol.a_c == pytest.approx(4.0) and sol.t_c == 0.5


def test_analytic_constant_control():
    sol = di_critical_analytic(0.0, 0.5, 0.0, 1.0)
    assert sol.case_tag == "b"
    assert sol.a_c == pytest.approx(1.0)
