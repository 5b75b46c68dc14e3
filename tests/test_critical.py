import math

import numpy as np
import pytest

from ctrlgap import (Bounds, ControlTrajectory, SolveOptions, build_affine,
                     builtin_instance, critical_bound, di_critical_analytic, solve_gap)
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
    assert lo <= LP_A_C_1000[name] <= hi
    assert res.a_c == hi
    assert all(p.lower <= LP_A_C_1000[name] <= p.upper for p in res.probes)
    # u_c is the minimum-energy control in the box at the upper end
    d = np.sqrt(np.diag(gram(aff)))
    assert res.stats.converged
    assert np.max(np.abs(res.u_c.values)) <= res.a_c
    residual = np.linalg.norm((aff.G @ res.u_c.flat - aff.xi) / d)
    assert residual <= 1e-9 * (1.0 + np.linalg.norm(aff.xi / d))


def test_warm_started_probes_match_cold_copies():
    # each probe's solve reuses its own buffers; replaying the search with a
    # fresh copy of every warm start must give the same ends, bit for bit
    inst = builtin_instance("machine_tool")
    grid = inst.system.grid(1000)
    aff = build_affine(inst.system, grid, inst.boundary)
    res = critical_bound(inst.system, grid, inst.boundary, aff=aff)
    assert len(res.probes) > 1
    warm = None
    for probe in res.probes:
        if warm is not None:
            warm = ControlTrajectory(values=np.array(warm.values), grid=grid)
        replay = solve_gap(aff, Bounds.symmetric(probe.a),
                           SolveOptions(solver="fast", warm_start=warm))
        assert replay.iterations == probe.iterations
        assert _certified_ends(aff, replay.uB.flat) == (probe.lower, probe.upper)
        warm = replay.uB


def test_tight_bracket_contains_exact_critical_bound():
    # a search that counts a probe as feasible once its gap is below a
    # tolerance ends this bracket 9.0e-7 below the exact bound
    res = _critical("double_integrator", 1000, tol_a=1e-6)
    lo, hi = res.bracket
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
        assert coarse / fine == pytest.approx(2.0, rel=0.02)
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
