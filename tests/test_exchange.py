from collections import Counter

import numpy as np
import pytest

from ctrlgap import (BoundarySpec, Bounds, LinearSystem, build_affine,
                     builtin_instance, critical_bound, exchange, gapsolve, solve_gap)
from ctrlgap.critical import TOL_A_FLOOR
from ctrlgap.exchange import Vertex, certified_ends, critical_vertex, first_kink, flip
from ctrlgap.project import ROUNDING

import conftest
from conftest import LP_A_C_1000, counting, two_input_draw


def vertex_bracket(aff):
    """The exchange on the box |u| <= 1, whose critical scaling is a_c:
    the vertex and the ends lower <= a_c <= upper it certifies."""
    Qt, c, _ = aff.basis
    z, w = np.zeros(Qt.shape[1]), np.ones(Qt.shape[1])
    vertex = critical_vertex(Qt, c, w, 1_000)
    lower, upper, _ = certified_ends(Qt, c, c, z, w, vertex)
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
        system = LinearSystem(A, B, 0.0, 1.0)
        yield system, system.grid(N), BoundarySpec(x0=x0, xf=xf)


def assert_brackets_agree(draws):
    for k, (system, grid, boundary) in enumerate(draws, start=1):
        aff = build_affine(system, grid, boundary)
        vertex, lower, upper = vertex_bracket(aff)
        assert vertex.optimal, k
        assert lower <= upper <= lower + TOL_A_FLOOR * (1.0 + upper), k
        # at the vertex, n - 1 nodes leave the bound
        assert vertex.K.size == aff.n - 1, k
        res = critical_bound(aff)
        assert res.converged, k
        lo, hi = res.bracket
        assert max(lo, lower) <= min(hi, upper), k


def test_vertex_brackets_a_c_on_random_single_input_systems():
    assert_brackets_agree(single_input_draws())


def test_vertex_brackets_a_c_on_random_two_input_systems():
    # on the 42nd draw a search by minimum-energy verdicts once ended
    # unconverged: its verdict met the residual test with the certified upper
    # end 9.2e-8 relative above lo
    assert_brackets_agree(two_input_draw(k) for k in range(1, 61))


@pytest.mark.parametrize("name", sorted(LP_A_C_1000))
def test_builtin_brackets_contain_the_exact_bound(name):
    inst = builtin_instance(name)
    aff = build_affine(inst.system, inst.system.grid(1000), inst.boundary)
    vertex, lower, upper = vertex_bracket(aff)
    assert vertex.optimal
    assert lower <= LP_A_C_1000[name] <= upper
    assert upper - lower <= TOL_A_FLOOR * (1.0 + upper)


@pytest.mark.parametrize("name", sorted(LP_A_C_1000))
def test_an_optimal_vertex_ends_on_its_multipliers(name, monkeypatch):
    # every pivot but the last moves along an edge, with two flips (the nodes
    # on their kink, then the nodes passed); the last finds every |mu_j| <= 1
    # and stops without a search along an edge
    flips = []
    monkeypatch.setattr(exchange, "flip", lambda *args: flips.append(args) or flip(*args))
    inst = builtin_instance(name)
    aff = build_affine(inst.system, inst.system.grid(1000), inst.boundary)
    vertex, _, _ = vertex_bracket(aff)
    assert vertex.optimal and vertex.pivots > 1
    assert len(flips) == 2 * (vertex.pivots - 1)


@pytest.mark.parametrize("power", [-1000, -600, 600, 1000])
def test_the_vertex_does_not_depend_on_the_scale_of_the_box(power):
    # at w 2^1000 the products ws.e would overflow, and at w 2^-1000 the
    # exchange once stopped after 2 of its pivots
    inst = builtin_instance("machine_tool")
    aff = build_affine(inst.system, inst.system.grid(1000), inst.boundary)
    Qt, c, _ = aff.basis
    w = np.full(Qt.shape[1], 1770.0)
    plain = critical_vertex(Qt, c, w, 1_000)
    scaled = critical_vertex(Qt, c, np.ldexp(w, power), 1_000)
    assert plain.optimal and plain.pivots > 2
    for field in ("s", "g", "K", "pivots", "optimal"):
        assert same_bits(getattr(scaled, field), getattr(plain, field)), field
    for field in ("value", "scale", "v"):
        assert same_bits(getattr(scaled, field), np.ldexp(getattr(plain, field), power)), field


def test_one_state_vertex_has_no_vertex_nodes():
    # x' = u from 0 to 1 on [0, 1]: a_c = 1, and with n = 1 the start s is
    # the vertex
    system = LinearSystem([[0.0]], [[1.0]], 0.0, 1.0)
    aff = build_affine(system, system.grid(50), BoundarySpec(x0=[0.0], xf=[1.0]))
    vertex, lower, upper = vertex_bracket(aff)
    assert vertex.optimal and vertex.pivots == 1 and vertex.K.size == 0
    assert lower <= 1.0 <= upper <= lower + TOL_A_FLOOR * (1.0 + upper)


def test_copies_of_one_column_share_the_vertex_value():
    # x' = u1 + y, y' = u2: every node of u1 has the same column, and the
    # vertex puts a value 148 times the box on one of them unless its copies
    # share it; a_c = 1 (u2 = -1 brings y from 1 to 0, u1 = -1/2 returns x)
    system = LinearSystem([[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], 0.0, 1.0)
    aff = build_affine(system, system.grid(300), BoundarySpec(x0=[0.0, 1.0], xf=[0.0, 0.0]))
    vertex, lower, upper = vertex_bracket(aff)
    assert vertex.optimal
    assert lower <= 1.0 <= upper <= lower + TOL_A_FLOOR * (1.0 + upper)
    res = solve_gap(aff, Bounds.symmetric(2.0), tol=1e-8)
    assert res.converged and res.gap_lower == 0.0


def two_input_system():
    return LinearSystem([[0.0, 1.0], [-2.0, -0.3]], [[0.0, 0.4], [1.0, 0.3]], 0.0, 1.0)


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
    b = c - Qt @ z.reshape(-1)
    vertex = critical_vertex(Qt, b, w.reshape(-1), 1_000)
    lower, upper, u = certified_ends(Qt, c, b, z.reshape(-1), w.reshape(-1), vertex)
    assert vertex.optimal
    assert lower <= upper <= lower + TOL_A_FLOOR * (1.0 + upper)
    # the certifying control lies on the affine set and in the box scaled by upper
    assert np.linalg.norm(aff.G @ u - aff.xi) <= 1e-9 * (1.0 + np.linalg.norm(aff.xi))
    assert np.all(np.abs(u - z.reshape(-1)) <= upper * w.reshape(-1))
    below = solve_gap(aff, Bounds(lower=z - 0.999 * lower * w, upper=z + 0.999 * lower * w),
                      tol=1e-8)
    assert below.converged and below.gap_lower > 0.0
    above = solve_gap(aff, Bounds(lower=z - 1.001 * upper * w, upper=z + 1.001 * upper * w),
                      tol=1e-8)
    assert above.converged and above.gap_lower == 0.0


def test_the_ends_read_b_and_form_products_with_qt_only_to_project():
    # b = c - Qt z comes from the caller, as the exchange had it: the two
    # products left project the certifying control, Qt u and Qt^T of its
    # residual, and the ends are b.s's
    inst = builtin_instance("double_integrator")
    aff = build_affine(inst.system, inst.system.grid(1000), inst.boundary)
    Qt, c, _ = aff.basis
    z, w = np.full(Qt.shape[1], 1.25), np.full(Qt.shape[1], 1.75)
    b = c - Qt @ z
    vertex = critical_vertex(Qt, b, w, 1_000)
    counts = Counter()
    lower, upper, u = certified_ends(Qt.view(counting(counts)), c, b, z, w, vertex)
    assert counts["products"] == 2
    assert lower == float((c - Qt @ z) @ vertex.s) / vertex.value * (1.0 - ROUNDING) / (
        1.0 + ROUNDING)
    plain = certified_ends(Qt, c, b, z, w, vertex)
    assert (lower, upper) == plain[:2]
    np.testing.assert_array_equal(u.view(np.int64), plain[2].view(np.int64))


def test_a_kink_past_the_earliest_256_ends_its_pivot_or_step(monkeypatch):
    # machine_tool at N=1e4, a=1770 (the near_critical benchmark's gap): 2 of
    # its 27 pivots and steps end at a kink past the 256 earliest, so the
    # pass has to go on to sort them all
    inst = builtin_instance("machine_tool")
    aff = build_affine(inst.system, inst.system.grid(10_000), inst.boundary)
    first_kink, ranks = exchange.first_kink, []

    def checked(times, jumps, offset, rate):
        k, before, rate_before = first_kink(times, jumps, offset, rate)
        assert rate_before == rate
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
        return k, before, rate_before

    monkeypatch.setattr(exchange, "first_kink", checked)
    monkeypatch.setattr(gapsolve, "first_kink", checked)
    res = solve_gap(aff, Bounds.symmetric(1770.0))
    assert res.converged
    assert max(ranks) >= 256


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def reference_solve(aff, bounds, monkeypatch):
    """``solve_gap`` on the kernel's verbatim copies in conftest."""
    with monkeypatch.context() as patch:
        patch.setattr(gapsolve, "critical_vertex", conftest.critical_vertex)
        patch.setattr(gapsolve, "_descend", lambda box, b, y, g, Z, budget:
                      conftest._descend(box, b, y, g, Z.tolist(), budget))
        return solve_gap(aff, bounds)


def assert_kernel_matches_its_reference(aff, monkeypatch, factors=(0.5, 0.9, 0.997, 1.5)):
    """The vertex of |u| <= a and the gap pair at bound a, for a_c and each
    of ``factors`` times a_c, bit for bit equal to the reference kernel's."""
    Qt, c, _ = aff.basis
    _, a_c, _ = vertex_bracket(aff)
    bounds = [f * a_c for f in factors]
    for a in (1.0, *bounds):
        w = np.full(Qt.shape[1], a)
        new, old = critical_vertex(Qt, c, w, 1_000), conftest.critical_vertex(Qt, c, w, 1_000)
        for field in Vertex._fields:
            assert same_bits(getattr(new, field), getattr(old, field)), (a, field)
    for a in bounds:
        new, old = solve_gap(aff, Bounds.symmetric(a)), reference_solve(
            aff, Bounds.symmetric(a), monkeypatch)
        for field in ("uA", "uB", "v"):
            assert same_bits(getattr(new, field).values, getattr(old, field).values), (a, field)
        for field in ("gap_norm", "gap_lower", "iterations"):
            assert same_bits(getattr(new, field), getattr(old, field)), (a, field)
        assert new.diagnostics == old.diagnostics, a


@pytest.mark.parametrize("nodes", [200, 1000, 10_000, 20_000])
@pytest.mark.parametrize("name", sorted(LP_A_C_1000))
def test_kernel_is_bitwise_the_reference_on_the_builtins(name, nodes, monkeypatch):
    # at 20,000 nodes the exchange starts from the vertex on 64-node blocks
    inst = builtin_instance(name)
    aff = build_affine(inst.system, inst.system.grid(nodes), inst.boundary)
    assert_kernel_matches_its_reference(aff, monkeypatch)


@pytest.mark.parametrize("family", ["single_input", "two_input"])
def test_kernel_is_bitwise_the_reference_on_random_systems(family, monkeypatch):
    draws = single_input_draws() if family == "single_input" else (
        two_input_draw(k) for k in range(1, 61))
    for system, grid, boundary in draws:
        assert_kernel_matches_its_reference(build_affine(system, grid, boundary), monkeypatch)


def full_sort_kink(times, jumps, offset, rate, rate_jumps=None):
    order = np.argsort(times)
    total = np.cumsum(jumps[order])
    rates = rate + np.cumsum(np.zeros(times.size) if rate_jumps is None else rate_jumps[order])
    hit = offset + rates * times[order] + total >= 0.0
    if not hit.any():
        return -1, float(total[-1]) if times.size else 0.0, float(rates[-1]) if times.size else rate
    k = int(np.argmax(hit))
    return int(order[k]), float(total[k] - jumps[order[k]]), float(rates[k - 1]) if k else rate


def assert_same_kink(times, jumps, offset, rate, rate_jumps=None):
    k, before, rate_before = first_kink(times, jumps, offset, rate, rate_jumps)
    reference = full_sort_kink(times, jumps, offset, rate, rate_jumps)
    assert k == reference[0] and same_bits(before, reference[1])
    if rate_jumps is None:
        assert rate_before == rate
    else:
        assert rate_before == pytest.approx(reference[2], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rate", [0.0, 3.0])
@pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 2000])
def test_first_kink_is_the_full_sort_pass(count, rate):
    rng = np.random.default_rng(count)
    times = rng.permutation(count) + rng.uniform(0.1, 0.9, count)
    jumps = rng.uniform(0.0, 2.0, count)
    rises = rng.uniform(0.0, 2.0, count)
    order = np.argsort(times)
    # jumps in value alone, as in the exchange and the descent, and rises in
    # the rate too, with the value jumps that keep the slope continuous at
    # them, as in dual_newton's line search
    for value_jumps, rate_jumps in ((jumps, None), (jumps - rises * times, rises)):
        total = np.cumsum(value_jumps[order])
        rates = rate + (0.0 if rate_jumps is None else np.cumsum(rate_jumps[order]))
        # the slope at each kink from offset 0, increasing in time order
        slopes = rates * times[order] + total
        # the slope turns at the first kink, one within and one past the 256
        # earliest, the last, or never
        for rank in (0, 100, 255, 256, 1500, count - 1):
            if 0 <= rank < count:
                offset = -0.5 * (slopes[rank] + (slopes[rank - 1] if rank else 0.0))
                assert first_kink(times, value_jumps, offset, rate, rate_jumps)[0] == order[rank]
                assert_same_kink(times, value_jumps, offset, rate, rate_jumps)
        never = -(slopes[-1] if count else 0.0) - 1.0
        k, before, rate_after = first_kink(times, value_jumps, never, rate, rate_jumps)
        assert k == -1 and same_bits(before, total[-1] if count else 0.0)
        assert rate_after == (rates[-1] if count and rate_jumps is not None else rate)
        assert_same_kink(times, value_jumps, never, rate, rate_jumps)


def test_flip_of_no_nodes_leaves_ws_and_r_as_they_are():
    rng = np.random.default_rng(3)
    Qt = rng.normal(size=(3, 20))
    ws, r = rng.normal(size=20), np.array([-0.0, 1.5, -2.0])
    ws_bits, r_bits = ws.tobytes(), r.tobytes()
    flip(Qt, ws, r, np.array([], dtype=np.intp), np.array([]))
    assert ws.tobytes() == ws_bits and r.tobytes() == r_bits
