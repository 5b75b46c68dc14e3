import json

import numpy as np
import pytest

from ctrlgap import (BoundarySpec, LinearSystem, UncontrollableGridError, build_affine,
                     builtin_instance, critical_bound, dykstra_min_energy, gramian_report,
                     instance_from_config, kalman_rank, solve_gap)
from ctrlgap import cli

BUILTIN_NODES = (1, 2, 5, 7, 8, 50, 1000)
# Grids that a Cholesky test of the unit-diagonal Gram matrix called
# controllable, and solved on: Kalman rank 2 of 3, and two steps of one
# input for three states (N m < n)
UNCONTROLLABLE = {
    "kalman_rank_2": ({"system": {"A": [[-1, 0, -1], [2, -1, -1], [2, 0, -4]],
                                  "B": [[-1], [2], [-1]]},
                       "t0": 0, "tf": 1, "x0": [0, 0, 0], "xf": [1, 1, 1], "bound": 1},
                      (100, 1000, 10000)),
    "short_grid": ({"system": {"A": [[-1, 0, 0], [0, -2, 0], [0, 0, -3]],
                               "B": [[1], [1], [1]]},
                    "t0": 0, "tf": 0.3, "x0": [0, 0, 0], "xf": [1, 1, 1], "bound": 1},
                   (2,)),
}


def step_scaled_gramian(aff):
    """G G^T / h, which approximates the continuous controllability Gramian
    anchored at the final time and converges under grid refinement."""
    return aff.G @ aff.G.T / aff.grid.h


def di_terminal_gramian():
    """Closed-form Gramian anchored at the final time for the double
    integrator on [0, 1]: integrate the propagated input column (1-t, 1)."""
    return np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])


class TestKalman:
    def test_double_integrator(self):
        inst = builtin_instance("double_integrator")
        rep = kalman_rank(inst.system.A, inst.system.B)
        assert (rep.rank, rep.required, rep.controllable) == (2, 2, True)

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


class TestDiscreteGramian:
    def test_converges_to_terminal_gramian(self):
        inst = builtin_instance("double_integrator")
        grid = inst.system.grid(4000)
        aff = build_affine(inst.system, grid, inst.boundary)
        M = step_scaled_gramian(aff)
        np.testing.assert_allclose(M, di_terminal_gramian(), atol=5e-4)
        assert np.linalg.det(M) == pytest.approx(1.0 / 12.0, abs=1e-3)

    def test_zero_input_matrix_is_singular(self):
        sys_ = LinearSystem([[0.0, 1.0], [0.0, 0.0]], [[0.0], [0.0]], 0, 1)
        grid = sys_.grid(8)
        aff = build_affine(sys_, grid, BoundarySpec(x0=[0, 0], xf=[0, 0]))
        M = step_scaled_gramian(aff)
        np.testing.assert_array_equal(M, np.zeros((2, 2)))
        assert not aff.controllable
        assert gramian_report(aff).rank == 0

    def test_single_step_value(self):
        inst = builtin_instance("double_integrator")
        grid = inst.system.grid(1)  # h = 1
        aff = build_affine(inst.system, grid, inst.boundary)
        np.testing.assert_array_equal(step_scaled_gramian(aff), [[0, 0], [0, 1]])
        assert gramian_report(aff).rank == 1

    def test_symmetric_psd_and_rank_monotone(self):
        inst = builtin_instance("double_integrator")
        ranks = []
        for N in (1, 2, 4, 8):
            grid = inst.system.grid(N)
            aff = build_affine(inst.system, grid, inst.boundary)
            M = step_scaled_gramian(aff)
            np.testing.assert_allclose(M, M.T, atol=1e-15)
            assert np.min(np.linalg.eigvalsh(M)) >= -1e-12
            ranks.append(gramian_report(aff).rank)
        assert ranks == sorted(ranks)
        assert ranks[0] == 1 and ranks[-1] == 2

    @pytest.mark.parametrize("name", ["double_integrator", "damped_oscillator",
                                      "machine_tool", *UNCONTROLLABLE])
    def test_report_agrees_with_build_affine(self, name, tmp_path):
        # machine_tool at N=7 and 8: the eigenvalues of the raw W fell below
        # rounding, and the report read rank 5 at a negative conditioning
        config, nodes = UNCONTROLLABLE.get(name, ({"system": name}, BUILTIN_NODES))
        inst = instance_from_config(config)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        for N in nodes:
            grid = inst.system.grid(N)
            aff = build_affine(inst.system, grid, inst.boundary)
            rep = gramian_report(aff)
            assert rep.controllable == aff.controllable, N
            assert 0.0 <= rep.conditioning <= 1.0
            if name not in UNCONTROLLABLE:
                continue
            assert aff.controllable is False
            with pytest.raises(UncontrollableGridError):
                solve_gap(aff, inst.bounds)
            with pytest.raises(UncontrollableGridError):
                dykstra_min_energy(aff, inst.bounds)
            with pytest.raises(UncontrollableGridError):
                critical_bound(aff)
            assert cli.run(["gap", "--config", str(cfg), "--nodes", str(N),
                            "--out", str(tmp_path / str(N))]) == 1

    def test_similarity_transformed_uncontrollable_grids(self):
        # A = T diag(lam) T^{-1}, B = T (b_r, 0): the last n - r modes are
        # unreachable; the Cholesky test called 41 of these controllable
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            r, m = int(rng.integers(1, n)), int(rng.integers(1, 3))
            T = rng.normal(0, 1, (n, n))
            A = T @ np.diag(rng.uniform(-4, 1, n)) @ np.linalg.inv(T)
            B = T @ np.vstack([rng.normal(0, 1, (r, m)), np.zeros((n - r, m))])
            system = LinearSystem(A, B, 0.0, 1.0)
            N = int(rng.integers(n, 1001))
            aff = build_affine(system, system.grid(N), BoundarySpec(x0=np.zeros(n),
                                                                   xf=np.ones(n)))
            assert not gramian_report(aff).controllable, (n, r, m, N)
