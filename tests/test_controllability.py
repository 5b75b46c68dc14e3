import numpy as np
import pytest

from ctrlgap import (BoundarySpec, build_affine, builtin_instance,
                     discrete_gramian, gramian_report, kalman_rank, ltv_rank,
                     make_lti_system)


def di_terminal_gramian():
    """Closed-form Gramian anchored at the final time for the double
    integrator on [0, 1]: integrate the propagated input column (1-t, 1)."""
    return np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])


class TestKalman:
    def test_double_integrator(self):
        inst = builtin_instance("double_integrator")
        rep = kalman_rank(inst.system.A, inst.system.B)
        assert (rep.rank, rep.required, rep.controllable) == (2, 2, True)
        assert rep.test == "kalman"

    def test_damped_oscillator(self):
        inst = builtin_instance("damped_oscillator")
        rep = kalman_rank(inst.system.A, inst.system.B)
        assert (rep.rank, rep.required) == (2, 2)

    def test_machine_tool(self):
        inst = builtin_instance("machine_tool")
        rep = kalman_rank(inst.system.A, inst.system.B)
        assert (rep.rank, rep.required, rep.controllable) == (7, 7, True)
        assert 0 < rep.conditioning <= 1

    def test_repeated_columns_rank_deficient(self):
        rep = kalman_rank(np.zeros((2, 2)), np.array([1.0, 0.0]))
        assert rep.rank == 1 and not rep.controllable

    def test_component_wise_column(self):
        inst = builtin_instance("double_integrator")
        rep = kalman_rank(inst.system.A, np.asarray(inst.system.B)[:, 0])
        assert rep.controllable

    def test_similarity_invariance(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, 3))
            A = rng.normal(0, 1, (n, n))
            B = rng.normal(0, 1, (n, m))
            while True:
                T = rng.normal(0, 1, (n, n))
                if abs(np.linalg.det(T)) > 1e-3:
                    break
            base = kalman_rank(A, B)
            moved = kalman_rank(T @ A @ np.linalg.inv(T), T @ B)
            assert base.rank == moved.rank


class TestLtvRank:
    def test_constant_system_matches_kalman(self, rng):
        for _ in range(5):
            n = int(rng.integers(1, 5))
            A = rng.normal(0, 1, (n, n))
            B = rng.normal(0, 1, (n, 1))
            k_rep = kalman_rank(A, B)
            for tc in (0.0, 0.37, 1.0):
                l_rep = ltv_rank(A, B, tc=tc, q=max(1, n - 1), fd_step=1e-3)
                assert l_rep.rank == k_rep.rank

    def test_linear_in_time_column(self):
        # B(t) = (0, t): K0(0.5) = (0, 0.5), K1 = (0, 1); both along e2
        rep = ltv_rank(np.zeros((2, 2)), lambda t: np.array([[0.0], [t]]),
                       tc=0.5, q=1, fd_step=1e-4)
        assert rep.rank == 1
        assert not rep.controllable and rep.inconclusive

    def test_di_matrices_any_tc(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        for tc in (0.0, 0.25, 0.99):
            assert ltv_rank(A, B, tc=tc, q=1, fd_step=1e-3).rank == 2

    def test_q_validation(self):
        with pytest.raises(ValueError, match="q"):
            ltv_rank(np.zeros((1, 1)), np.ones((1, 1)), tc=0.5, q=0, fd_step=1e-3)

    def test_bad_window_reported(self):
        def b_of(t):
            if t < 0:
                return np.array([[np.nan]])
            return np.array([[t]])
        with pytest.raises(ValueError, match="window"):
            ltv_rank(np.zeros((1, 1)), b_of, tc=0.0, q=1, fd_step=0.1)


class TestDiscreteGramian:
    def test_converges_to_terminal_gramian(self):
        inst = builtin_instance("double_integrator")
        grid = inst.system.grid(4000)
        aff = build_affine(inst.system, grid, inst.boundary)
        M = discrete_gramian(aff)
        np.testing.assert_allclose(M, di_terminal_gramian(), atol=5e-4)
        assert np.linalg.det(M) == pytest.approx(1.0 / 12.0, abs=1e-3)

    def test_zero_input_matrix_is_singular(self):
        sys_ = make_lti_system([[0.0, 1.0], [0.0, 0.0]], [[0.0], [0.0]], 0, 1)
        grid = sys_.grid(8)
        aff = build_affine(sys_, grid, BoundarySpec(x0=[0, 0], xf=[0, 0]))
        M = discrete_gramian(aff)
        np.testing.assert_array_equal(M, np.zeros((2, 2)))
        assert not aff.controllable
        assert gramian_report(aff).rank == 0

    def test_single_step_value(self):
        inst = builtin_instance("double_integrator")
        grid = inst.system.grid(1)  # h = 1
        aff = build_affine(inst.system, grid, inst.boundary)
        np.testing.assert_array_equal(discrete_gramian(aff), [[0, 0], [0, 1]])
        assert gramian_report(aff).rank == 1

    def test_symmetric_psd_and_rank_monotone(self):
        inst = builtin_instance("double_integrator")
        ranks = []
        for N in (1, 2, 4, 8):
            grid = inst.system.grid(N)
            aff = build_affine(inst.system, grid, inst.boundary)
            M = discrete_gramian(aff)
            np.testing.assert_allclose(M, M.T, atol=1e-15)
            assert np.min(np.linalg.eigvalsh(M)) >= -1e-12
            ranks.append(gramian_report(aff).rank)
        assert ranks == sorted(ranks)
        assert ranks[0] == 1 and ranks[-1] == 2

    @pytest.mark.parametrize("name", ["double_integrator", "damped_oscillator",
                                      "machine_tool"])
    def test_report_agrees_with_build_affine(self, name):
        # machine_tool at N=7 and 8: the eigenvalues of the raw W fell below
        # rounding, and the report read rank 5 at a negative conditioning
        inst = builtin_instance(name)
        for N in (1, 2, 5, 7, 8, 50, 1000):
            aff = build_affine(inst.system, inst.system.grid(N), inst.boundary)
            rep = gramian_report(aff)
            assert rep.controllable == aff.controllable, N
            assert 0.0 <= rep.conditioning <= 1.0
