import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctrlgap import (BoundarySpec, Bounds, ControlTrajectory, Grid, LinearSystem,
                     SimulationOverflowError, UncontrollableGridError, build_affine,
                     builtin_instance, dykstra_min_energy, l2_norm, simulate, solve_gap)

from conftest import gram, ill_conditioned_affines, scaled_residual, scalar_integrator


def di_system():
    return LinearSystem([[0, 1], [0, 0]], [[0], [1]], 0, 1)


def loop_states(sys_, grid, x0, u):
    """Reference rollout x_{k+1} = x_k + h (A x_k + B u_k), one step at a
    time; a state that overflows stays in the result."""
    A, B, h = sys_.A, sys_.B, grid.h
    out = np.empty((grid.N + 1, sys_.n))
    out[0] = x = np.asarray(x0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.N):
            out[k + 1] = x = x + h * (A @ x + B @ u.values[k])
    return out


def affine_loop(sys_, grid):
    """Reference (G, Phi), Phi = M^N: the step matrix accumulated from the
    last step back, one step at a time; an overflow stays in the result."""
    n, m, h = sys_.n, sys_.m, grid.h
    G = np.empty((n, grid.N * m))
    P = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.N - 1, -1, -1):
            G[:, k * m:(k + 1) * m] = P @ (h * sys_.B)
            P = P @ (np.eye(n) + h * sys_.A)
    return G, P


def rel_diff(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def xi_error(aff, Phi, boundary):
    """|xi - (xf - Phi x0)|_max relative to the size of its terms."""
    x0, xf = boundary
    size = np.abs(xf).max() + np.abs(Phi).max() * np.abs(x0).sum()
    return np.abs(aff.xi - (xf - Phi @ x0)).max() / size


def sampled_linear_control(grid, coeffs=(-4.0, 6.0)):
    c0, c1 = coeffs
    vals = (c0 + c1 * grid.left_nodes).reshape(-1, 1)
    return ControlTrajectory(values=vals, grid=grid)


class TestSimulate:
    def test_zero_control_drift(self):
        sys_ = di_system()
        grid = sys_.grid(10)
        u = ControlTrajectory.zeros(grid, 1)
        x = simulate(sys_, [0.0, 1.0], u)
        # velocity stays 1, position accumulates k*h exactly under Euler
        np.testing.assert_array_equal(x[:, 1], np.ones(11))
        np.testing.assert_allclose(x[:, 0], grid.nodes, atol=1e-15)

    def test_constant_control_riemann_sum(self):
        sys_ = scalar_integrator()
        grid = sys_.grid(4)
        u = ControlTrajectory(values=np.ones((4, 1)), grid=grid)
        x = simulate(sys_, [0.0], u)
        assert x[-1][0] == pytest.approx(1.0, abs=1e-15)

    def test_min_energy_control_reaches_origin(self):
        # closed-form two-moment control 6t-4 steers (0,1) to (0,0); Euler
        # inherits a first-order bias
        sys_ = di_system()
        grid = sys_.grid(2000)
        x = simulate(sys_, [0.0, 1.0], sampled_linear_control(grid))
        assert np.linalg.norm(x[-1]) <= 10 * grid.h

    def test_dimension_mismatch(self):
        sys_ = di_system()
        grid = sys_.grid(4)
        u = ControlTrajectory.zeros(grid, 1)
        with pytest.raises(ValueError, match="x0"):
            simulate(sys_, [0.0], u)

    @pytest.mark.parametrize("grid, horizon", [
        (Grid(N=100, t0=0, tf=2), "[0, 2]"), (Grid(N=100, t0=1.0, tf=2.0), "[1.0, 2.0]")],
        ids=["longer", "shifted"])
    @pytest.mark.parametrize("call", ["build_affine", "simulate"])
    def test_a_grid_off_the_system_horizon_is_refused(self, call, grid, horizon):
        # a tf=2 grid once halved the double integrator's a_c and simulated
        # a zero control to x_N = [2, 1]
        inst = builtin_instance("double_integrator")
        message = f"grid horizon {horizon} is not the system's [0.0, 1.0]"
        with pytest.raises(ValueError, match=re.escape(message)):
            if call == "build_affine":
                build_affine(inst.system, grid, inst.boundary)
            else:
                simulate(inst.system, inst.boundary.x0, ControlTrajectory.zeros(grid, 1))

    def test_overflow_reported(self):
        sys_ = LinearSystem([[1e8]], [[1.0]], 0, 1)
        grid = sys_.grid(200)
        u = ControlTrajectory(values=np.ones((200, 1)), grid=grid)
        with pytest.raises(SimulationOverflowError, match="unstable"):
            simulate(sys_, [1.0], u)

    def test_overflowing_xi_is_refused(self):
        # G and M^N, near 1e230, are finite; M^N x0 with x0 = 1e300 is not
        sys_ = LinearSystem([[700.0]], [[1.0]], 0, 1)
        boundary = BoundarySpec(x0=[1e300], xf=[0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationOverflowError, match="xf - M.N x0 overflowed"):
                build_affine(sys_, sys_.grid(1000), boundary)

    def test_overflow_step_is_the_per_step_loops(self):
        # the scan's powers overflow earlier than the states do; the loop
        # names the first non-finite step
        sys_ = LinearSystem([[1e8]], [[1.0]], 0, 1)
        grid = sys_.grid(200)
        u = ControlTrajectory(values=np.ones((200, 1)), grid=grid)
        with pytest.raises(SimulationOverflowError, match="step 55 of 200"):
            simulate(sys_, [1.0], u)

    def test_overflow_step_is_the_first_state_above_the_largest_float(self):
        # in exact arithmetic on the float step map x -> M x + hB, x_54 is
        # finite and x_55 is not; the intermediate h (A x_53) of the form
        # x + h (A x + B u) already overflows at step 54
        sys_ = LinearSystem([[1e8]], [[1.0]], 0, 1)
        h = sys_.grid(200).h
        M, hB = Fraction(1.0 + h * 1e8), Fraction(h * 1.0)
        x = [Fraction(1)]
        for _ in range(55):
            x.append(M * x[-1] + hB)
        assert x[54] < Fraction(sys.float_info.max) < x[55]
        assert not np.isfinite(h * (1e8 * float(x[53])))

    def test_zero_state_with_overflowing_powers_stays_finite(self):
        # M^64 overflows, and 0 * inf = NaN would be a false overflow
        sys_ = LinearSystem([[1e8]], [[1.0]], 0, 1)
        grid = sys_.grid(200)
        x = simulate(sys_, [0.0], ControlTrajectory.zeros(grid, 1))
        np.testing.assert_array_equal(x, np.zeros((201, 1)))

    def test_refinement_first_order(self):
        # |x_N(N) - x_N(2N)| shrinks linearly in h for a smooth control
        sys_ = di_system()
        errs = []
        for N in (250, 500, 1000, 2000):
            grid = sys_.grid(N)
            x = simulate(sys_, [0.0, 1.0], sampled_linear_control(grid))
            errs.append(np.linalg.norm(x[-1]))
        ratios = [errs[i] / errs[i + 1] for i in range(3)]
        for r in ratios:
            assert 1.5 <= r <= 2.5


class TestBuildAffine:
    def test_single_step_formulas(self):
        sys_ = di_system()
        grid = sys_.grid(1)
        aff = build_affine(sys_, grid, BoundarySpec(x0=[0, 1], xf=[0, 0]))
        np.testing.assert_array_equal(aff.G, [[0], [1]])
        # xi = xf - M x0 with M = [[1, 1], [0, 1]]
        np.testing.assert_array_equal(aff.xi, [-1, -1])
        assert not aff.controllable  # one step cannot steer two states

    def test_two_step_columns(self):
        sys_ = di_system()
        grid = sys_.grid(2)
        aff = build_affine(sys_, grid, BoundarySpec(x0=[0, 1], xf=[0, 0]))
        np.testing.assert_allclose(aff.G, [[0.25, 0.0], [0.5, 0.5]])

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000), N=st.integers(2, 25))
    def test_terminal_state_consistency(self, seed, N):
        # simulate(...)[-1] == Phi x0 + G u = xf - xi + G u for random systems
        # and controls
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        sys_ = LinearSystem(rng.normal(0, 1, (n, n)), rng.normal(0, 1, (n, m)), 0.0, 1.0)
        grid = sys_.grid(N)
        x0 = rng.normal(0, 1, n)
        xf = rng.normal(0, 1, n)
        aff = build_affine(sys_, grid, BoundarySpec(x0=x0, xf=xf))
        u = ControlTrajectory(values=rng.normal(0, 1, (N, m)), grid=grid)
        end = simulate(sys_, x0, u)[-1]
        predicted = xf - aff.xi + aff.G @ u.flat
        assert np.linalg.norm(end - predicted) <= 1e-12 * (1 + np.linalg.norm(end))

    def test_double_integrator_matches_closed_form(self):
        # column block k of G is [(N-1-k) h^2, h]
        inst = builtin_instance("double_integrator")
        N = 50_000
        grid = inst.system.grid(N)
        aff = build_affine(inst.system, grid, inst.boundary)
        h = grid.h
        k = np.arange(N)
        closed = np.vstack([(N - 1 - k) * h * h, np.full(N, h)])
        assert rel_diff(aff.G, closed) <= 1e-15

    @pytest.mark.parametrize("name", ["machine_tool", "damped_oscillator"])
    def test_constant_matrices_match_per_step_loop(self, name):
        inst = builtin_instance(name)
        grid = inst.system.grid(10_000)
        fast = build_affine(inst.system, grid, inst.boundary)
        G, Phi = affine_loop(inst.system, grid)
        assert rel_diff(fast.G, G) <= 1e-11
        assert xi_error(fast, Phi, inst.boundary) <= 1e-11
        u = ControlTrajectory(values=np.random.default_rng(3).normal(0, 1, (grid.N, 1)),
                              grid=grid)
        # start from xf: machine_tool's x0 is zero
        x = simulate(inst.system, inst.boundary.xf, u)
        assert rel_diff(x, loop_states(inst.system, grid, inst.boundary.xf, u)) <= 1e-11

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000), N=st.integers(1, 70))
    def test_constant_matrices_match_per_step_loop_on_random_systems(self, seed, N):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        sys_ = LinearSystem(rng.normal(0, 3, (n, n)), rng.normal(0, 1, (n, m)), 0.0, 1.0)
        grid = sys_.grid(N)
        boundary = BoundarySpec(x0=rng.normal(0, 1, n), xf=rng.normal(0, 1, n))
        fast = build_affine(sys_, grid, boundary)
        G, Phi = affine_loop(sys_, grid)
        assert rel_diff(fast.G, G) <= 1e-11
        assert xi_error(fast, Phi, boundary) <= 1e-11
        u = ControlTrajectory(values=rng.normal(0, 1, (N, m)), grid=grid)
        x = simulate(sys_, boundary.x0, u)
        assert rel_diff(x, loop_states(sys_, grid, boundary.x0, u)) <= 1e-11

    def test_refused_exactly_where_the_per_step_loop_overflows(self):
        # random systems with |A| up to 1e9, some with a zeroed B row or a
        # diagonal A: the doubling is refused exactly when the reference
        # (G, Phi) has a non-finite entry, and otherwise matches it; x0 = e_1
        # makes xi = -Phi e_1 exactly
        rng = np.random.default_rng(35)
        counts = {"overflowing": 0, "finite": 0}
        for _ in range(300):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
            A = rng.normal(0, 1, (n, n)) * 10.0 ** rng.uniform(0, 9)
            B = rng.normal(0, 1, (n, m))
            if rng.random() < 0.25:
                A = np.diag(np.diag(A))
            if n > 1 and rng.random() < 0.25:
                B[rng.integers(n)] = 0.0
            sys_ = LinearSystem(A, B, 0.0, 1.0)
            grid = sys_.grid(int(rng.integers(1, 400)))
            G, Phi = affine_loop(sys_, grid)
            boundary = BoundarySpec(x0=np.eye(n)[0], xf=np.zeros(n))
            if not (np.isfinite(G).all() and np.isfinite(Phi).all()):
                counts["overflowing"] += 1
                with pytest.raises(SimulationOverflowError, match=f"h={grid.h:g} is unstable"):
                    build_affine(sys_, grid, boundary)
                continue
            counts["finite"] += 1
            fast = build_affine(sys_, grid, boundary)
            assert rel_diff(fast.G, G) <= 1e-11
            assert xi_error(fast, Phi, boundary) <= 1e-11
        assert min(counts.values()) >= 100, counts

    def test_projection_residual_contract(self, di_aff_2000):
        grid, aff = di_aff_2000
        Qt, c, _ = aff.basis
        u = np.random.default_rng(1).normal(0, 2, grid.N)
        out = u + Qt.T @ (c - Qt @ u)
        res = np.linalg.norm(aff.G @ out - aff.xi)
        assert res <= 1e-10 * (1 + np.linalg.norm(aff.xi))


def longdouble_solve(W, r):
    """W y = r by Gaussian elimination with partial pivoting in long double."""
    A = np.array(W, dtype=np.longdouble)
    b = np.array(r, dtype=np.longdouble)
    n = b.size
    for k in range(n):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        A[[k, p]], b[[k, p]] = A[[p, k]], b[[p, k]]
        f = A[k + 1:, k] / A[k, k]
        A[k + 1:, k:] -= np.outer(f, A[k, k:])
        b[k + 1:] -= f * b[k]
    y = np.zeros(n, dtype=np.longdouble)
    for k in range(n - 1, -1, -1):
        y[k] = (b[k] - A[k, k + 1:] @ y[k + 1:]) / A[k, k]
    return y


def gram_test_cases():
    """The random 4-state systems of the ill-conditioned certificate test
    (scaled cond(W) up to 3e10) and the three builtins at N=1e4."""
    yield from ill_conditioned_affines()
    for name in ("double_integrator", "damped_oscillator", "machine_tool"):
        inst = builtin_instance(name)
        yield build_affine(inst.system, inst.system.grid(10_000), inst.boundary)


def longdouble_projection(aff, u):
    """u - G^T (G G^T)^{-1} (G u - xi) in long double, refined once: without
    the refinement the reference itself is off by up to 7e-10 of the step
    on the ill-conditioned systems."""
    G, xi = aff.G.astype(np.longdouble), aff.xi.astype(np.longdouble)
    W = G @ G.T
    p = u.astype(np.longdouble)
    for _ in range(2):
        p = p - G.T @ longdouble_solve(W, G @ p - xi)
    return p


class TestAffineBasis:
    def test_projection_matches_long_double(self):
        rng = np.random.default_rng(0)
        cases = 0
        for aff in gram_test_cases():
            Qt, c, _ = aff.basis
            assert Qt.shape == aff.G.shape and Qt.flags.c_contiguous
            assert np.abs(Qt @ Qt.T - np.eye(aff.n)).max() <= 1e-13
            u = rng.normal(0, 1, aff.G.shape[1])
            out = u + Qt.T @ (c - Qt @ u)
            ref = longdouble_projection(aff, u)
            dist = np.linalg.norm((out - ref).astype(float))
            assert dist <= 1e-9 * np.linalg.norm((ref - u).astype(float))
            assert scaled_residual(aff, out) <= 1e-11
            cases += 1
        assert cases > 150

    def test_scaled_factor_maps_the_basis_to_the_scaled_rows(self):
        # D^{-1} G = Rhat^T Qt and D^{-1} xi = Rhat^T c, D = sqrt(diag W)
        for aff in gram_test_cases():
            Qt, c, Rhat = aff.basis
            d = np.sqrt(np.diag(gram(aff)))
            assert np.array_equal(Rhat, np.triu(Rhat))
            assert np.abs(np.linalg.norm(Rhat, axis=0) - 1.0).max() <= 1e-14
            assert np.abs(Rhat.T @ Qt - aff.G / d[:, None]).max() <= 1e-14
            xi = aff.xi / d
            assert np.abs(Rhat.T @ c - xi).max() <= 1e-13 * (1.0 + np.abs(xi).max())

    def test_built_on_first_use_and_kept(self):
        inst = builtin_instance("machine_tool")
        grid = inst.system.grid(300)
        aff = build_affine(inst.system, grid, inst.boundary)
        assert "basis" not in vars(aff)
        solve_gap(aff, Bounds.symmetric(1770.0))
        basis = vars(aff)["basis"]
        dykstra_min_energy(aff, Bounds.symmetric(1800.0))
        solve_gap(aff, Bounds.symmetric(1770.0), max_iter=5)
        assert all(again is kept for again, kept in zip(aff.basis, basis))
        assert not any(arr.flags.writeable for arr in basis)
        with pytest.raises(ValueError):
            basis[0][0, 0] = 0.0
        inst = builtin_instance("double_integrator")
        singular = build_affine(inst.system, inst.system.grid(1), inst.boundary)
        with pytest.raises(UncontrollableGridError, match="singular to working precision"):
            singular.basis


class TestNorms:
    def test_zero(self):
        grid = di_system().grid(8)
        assert l2_norm(ControlTrajectory.zeros(grid, 1)) == 0.0

    @pytest.mark.parametrize("N", [1, 7, 100])
    def test_unit_constant(self, N):
        grid = di_system().grid(N)
        u = ControlTrajectory(values=np.ones((N, 1)), grid=grid)
        assert l2_norm(u) == pytest.approx(1.0, abs=1e-12)

    def test_linear_control_matches_integral(self):
        # int (6t-4)^2 dt over [0,1] equals 4, so the norm approaches 2
        grid = di_system().grid(10_000)
        u = sampled_linear_control(grid)
        assert l2_norm(u) == pytest.approx(2.0, abs=1e-3)

    @given(s=st.floats(0.1, 10))
    def test_homogeneous(self, s):
        grid = di_system().grid(32)
        vals = np.linspace(-1, 1, 32).reshape(-1, 1)
        u1 = ControlTrajectory(values=vals, grid=grid)
        u2 = ControlTrajectory(values=s * vals, grid=grid)
        assert l2_norm(u2) == pytest.approx(s * l2_norm(u1), rel=1e-12)


class TestTrajectoryTypes:
    @pytest.mark.parametrize("shape", [(5, 1), (3,), (4, 1, 1)],
                             ids=["rows", "vector", "three_dims"])
    def test_control_row_count_enforced(self, shape):
        grid = di_system().grid(4)
        with pytest.raises(ValueError, match="control values must have 4 rows"):
            ControlTrajectory(values=np.zeros(shape), grid=grid)

    def test_control_values_are_a_read_only_copy(self):
        grid = di_system().grid(3)
        vals = np.arange(3.0)
        u = ControlTrajectory(values=vals, grid=grid)
        vals[0] = 7.0
        np.testing.assert_array_equal(u.values, [[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match="read-only"):
            u.values[0, 0] = 1.0
        with pytest.raises(AttributeError):
            u.values = vals

    def test_states_are_a_read_only_array_on_all_nodes(self):
        grid = di_system().grid(4)
        x = simulate(di_system(), [0.0, 1.0], ControlTrajectory.zeros(grid, 1))
        assert isinstance(x, np.ndarray) and x.shape == (5, 2)
        with pytest.raises(ValueError, match="read-only"):
            x[0, 0] = 1.0

    def test_finite_enforced(self):
        grid = di_system().grid(2)
        with pytest.raises(ValueError, match="finite"):
            ControlTrajectory(values=np.array([[np.nan], [0.0]]), grid=grid)

    def test_flat_round_trip(self):
        grid = di_system().grid(3)
        vals = np.arange(6.0).reshape(3, 2)
        u = ControlTrajectory(values=vals, grid=grid)
        back = ControlTrajectory.from_flat(u.flat, grid, 2)
        np.testing.assert_array_equal(back.values, vals)
