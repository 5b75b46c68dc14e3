import numpy as np
import pytest

from ctrlgap import (BoundarySpec, Bounds, SolveOptions, build_affine, builtin_instance,
                     critical_bound, exchange, gapsolve, make_lti_system, solve_gap)
from ctrlgap.critical import TOL_A_FLOOR
from ctrlgap.exchange import certified_ends, critical_vertex

from conftest import LP_A_C_1000, two_input_draw


def vertex_bracket(aff):
    """The exchange on the box |u| <= 1, whose critical scaling is a_c:
    the vertex and the ends lower <= a_c <= upper it certifies."""
    Qt, c, _ = aff.basis
    z, w = np.zeros(Qt.shape[1]), np.ones(Qt.shape[1])
    vertex = critical_vertex(Qt, c, w, 1_000)
    lower, upper, _ = certified_ends(Qt, c, z, w, vertex)
    return vertex, lower, upper


def single_input_draws():
    """The 100 random single-input systems of
    ``test_critical.py::test_default_tol_a_converges_on_random_systems``."""
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        A = rng.normal(0, float(rng.choice([2.0, 4.0])), (n, n))
        B = rng.normal(0, 1, (n, 1))
        N = int(rng.integers(50, 300))
        x0, xf = rng.normal(0, 1, n), rng.normal(0, 1, n)
        system = make_lti_system(A, B, 0.0, 1.0)
        yield system, system.grid(N), BoundarySpec(x0=x0, xf=xf)


def assert_brackets_agree(draws):
    for k, (system, grid, boundary) in enumerate(draws, start=1):
        aff = build_affine(system, grid, boundary)
        vertex, lower, upper = vertex_bracket(aff)
        assert vertex.optimal, k
        assert lower <= upper <= lower + TOL_A_FLOOR * (1.0 + upper), k
        # at the vertex, n - 1 nodes leave the bound
        assert vertex.K.size == aff.n - 1, k
        res = critical_bound(system, grid, boundary, aff=aff)
        if res.converged:
            lo, hi = res.bracket
            assert max(lo, lower) <= min(hi, upper), k


def test_vertex_brackets_a_c_on_random_single_input_systems():
    assert_brackets_agree(single_input_draws())


def test_vertex_brackets_a_c_on_random_two_input_systems():
    # the 42nd draw is one where critical_bound ends unconverged
    assert_brackets_agree(two_input_draw(k) for k in range(1, 61))


@pytest.mark.parametrize("name", sorted(LP_A_C_1000))
def test_builtin_brackets_contain_the_exact_bound(name):
    inst = builtin_instance(name)
    aff = build_affine(inst.system, inst.system.grid(1000), inst.boundary)
    vertex, lower, upper = vertex_bracket(aff)
    assert vertex.optimal
    assert lower <= LP_A_C_1000[name] <= upper
    assert upper - lower <= TOL_A_FLOOR * (1.0 + upper)


def test_one_state_vertex_has_no_vertex_nodes():
    # x' = u from 0 to 1 on [0, 1]: a_c = 1, and with n = 1 the start s is
    # the vertex
    system = make_lti_system([[0.0]], [[1.0]], 0.0, 1.0)
    aff = build_affine(system, system.grid(50), BoundarySpec(x0=[0.0], xf=[1.0]))
    vertex, lower, upper = vertex_bracket(aff)
    assert vertex.optimal and vertex.pivots == 1 and vertex.K.size == 0
    assert lower <= 1.0 <= upper <= lower + TOL_A_FLOOR * (1.0 + upper)


def test_copies_of_one_column_share_the_vertex_value():
    # x' = u1 + y, y' = u2: every node of u1 has the same column, and the
    # vertex puts a value 148 times the box on one of them unless its copies
    # share it; a_c = 1 (u2 = -1 brings y from 1 to 0, u1 = -1/2 returns x)
    system = make_lti_system([[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], 0.0, 1.0)
    aff = build_affine(system, system.grid(300), BoundarySpec(x0=[0.0, 1.0], xf=[0.0, 0.0]))
    vertex, lower, upper = vertex_bracket(aff)
    assert vertex.optimal
    assert lower <= 1.0 <= upper <= lower + TOL_A_FLOOR * (1.0 + upper)
    res = solve_gap(aff, Bounds.symmetric(2.0), SolveOptions(tol=1e-8))
    assert res.converged and res.gap_lower == 0.0


def two_input_system():
    return make_lti_system([[0.0, 1.0], [-2.0, -0.3]], [[0.0, 0.4], [1.0, 0.3]], 0.0, 1.0)


@pytest.mark.parametrize("case", ["asymmetric", "per_channel"])
def test_the_ends_bracket_the_scaling_at_which_the_box_meets_the_set(case):
    # the box z + t [-w, w] about its centre: just below the lower end the
    # gap solve certifies a positive distance, just above the upper end it
    # certifies the box feasible
    if case == "asymmetric":
        inst = builtin_instance("double_integrator")
        system, boundary, lo, hi = inst.system, inst.boundary, -0.5, 3.0
    else:
        system, lo, hi = two_input_system(), [-1.0, -0.2], [0.5, 0.3]
        boundary = BoundarySpec(x0=[0.0, 0.0], xf=[1.0, 0.0])
    grid = system.grid(1000)
    aff = build_affine(system, grid, boundary)
    lo, hi = Bounds(lower=lo, upper=hi).sample(grid, aff.m)
    z, w = 0.5 * (lo + hi), 0.5 * (hi - lo)
    Qt, c, _ = aff.basis
    vertex = critical_vertex(Qt, c - Qt @ z.reshape(-1), w.reshape(-1), 1_000)
    lower, upper, u = certified_ends(Qt, c, z.reshape(-1), w.reshape(-1), vertex)
    assert vertex.optimal
    assert lower <= upper <= lower + TOL_A_FLOOR * (1.0 + upper)
    # the certifying control lies on the affine set and in the box scaled by upper
    assert np.linalg.norm(aff.G @ u - aff.xi) <= 1e-9 * (1.0 + np.linalg.norm(aff.xi))
    assert np.all(np.abs(u - z.reshape(-1)) <= upper * w.reshape(-1))
    below = solve_gap(aff, Bounds(lower=z - 0.999 * lower * w, upper=z + 0.999 * lower * w),
                      SolveOptions(tol=1e-8))
    assert below.converged and below.gap_lower > 0.0
    above = solve_gap(aff, Bounds(lower=z - 1.001 * upper * w, upper=z + 1.001 * upper * w),
                      SolveOptions(tol=1e-8))
    assert above.converged and above.gap_lower == 0.0


def test_a_kink_past_the_earliest_256_ends_its_pivot_or_step(monkeypatch):
    # machine_tool at N=1e4, a=1770 (the near_critical benchmark's gap): 2 of
    # its 27 pivots and steps end at a kink past the 256 earliest, so the
    # pass has to go on to sort them all
    inst = builtin_instance("machine_tool")
    aff = build_affine(inst.system, inst.system.grid(10_000), inst.boundary)
    first_kink, ranks = exchange.first_kink, []

    def checked(times, jumps, offset, rate):
        k, before = first_kink(times, jumps, offset, rate)
        # the same pass over one full sort
        order = np.argsort(times)
        total = np.cumsum(jumps[order])
        hit = offset + rate * times[order] + total >= 0.0
        if hit.any():
            j = int(np.argmax(hit))
            assert times[k] == times[order[j]]
            assert before == pytest.approx(total[j] - jumps[order[j]], rel=1e-12, abs=0.0)
            ranks.append(j)
        else:
            assert k == -1
        return k, before

    monkeypatch.setattr(exchange, "first_kink", checked)
    monkeypatch.setattr(gapsolve, "first_kink", checked)
    res = solve_gap(aff, Bounds.symmetric(1770.0))
    assert res.converged
    assert max(ranks) >= 256
