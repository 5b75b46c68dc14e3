import math

import pytest

from ctrlgap import CriticalOptions, builtin_instance, critical_bound, di_critical_analytic

from conftest import LP_A_C_1000


def _critical(name, nodes, opts=None):
    inst = builtin_instance(name)
    return critical_bound(inst.system, inst.system.grid(nodes), inst.boundary, opts)


@pytest.mark.parametrize("name", sorted(LP_A_C_1000))
def test_bracket_contains_exact_critical_bound(name):
    res = _critical(name, 1000)
    lo, hi = res.bracket
    assert lo <= LP_A_C_1000[name] <= hi
    assert res.a_c == hi
    assert all(p.lower <= LP_A_C_1000[name] <= p.upper for p in res.probes)


def test_tight_bracket_contains_exact_critical_bound():
    # a search that counts a probe as feasible once its gap is below a
    # tolerance ends this bracket 9.0e-7 below the exact bound
    res = _critical("double_integrator", 1000, CriticalOptions(tol_a=1e-6))
    lo, hi = res.bracket
    assert lo <= LP_A_C_1000["double_integrator"] <= hi


def test_first_order_convergence_to_analytic_bound():
    exact = di_critical_analytic(0.0, 0.0, 1.0, 0.0).a_c
    assert exact == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-14)
    errors = [_critical("double_integrator", N, CriticalOptions(tol_a=1e-6)).a_c - exact
              for N in (250, 500, 1000)]
    assert all(e > 0 for e in errors)
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(2.0, rel=0.02)


def test_analytic_symmetric_switch():
    sol = di_critical_analytic(0.0, 1.0, 0.0, 0.0)
    assert sol.case_tag == "a_ii"
    assert sol.a_c == pytest.approx(4.0) and sol.t_c == 0.5


def test_analytic_constant_control():
    sol = di_critical_analytic(0.0, 0.5, 0.0, 1.0)
    assert sol.case_tag == "b"
    assert sol.a_c == pytest.approx(1.0)
