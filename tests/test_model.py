import numpy as np
import pytest
from hypothesis import given, strategies as st

from ctrlgap import (BUILTIN_NAMES, BoundarySpec, Bounds, ConfigError, Grid, LinearSystem,
                     build_affine, builtin_instance, instance_from_config)


class TestBuiltins:
    def test_double_integrator(self):
        inst = builtin_instance("double_integrator")
        np.testing.assert_array_equal(inst.system.A, [[0, 1], [0, 0]])
        np.testing.assert_array_equal(inst.boundary.x0, [0, 1])
        np.testing.assert_array_equal(inst.boundary.xf, [0, 0])
        assert (inst.system.t0, inst.system.tf) == (0.0, 1.0)
        assert inst.bounds is None

    def test_damped_oscillator(self):
        inst = builtin_instance("damped_oscillator")
        np.testing.assert_array_equal(inst.system.A, [[0, 1], [-400, -4]])
        np.testing.assert_array_equal(inst.system.B, [[0], [1]])
        np.testing.assert_array_equal(inst.boundary.x0, [0, 1])

    def test_machine_tool(self):
        inst = builtin_instance("machine_tool")
        assert inst.system.n == 7 and inst.system.m == 1
        assert inst.system.tf == 0.0522
        assert inst.boundary.xf[4] == 0.1
        assert inst.boundary.xf[1] == 0.0027
        np.testing.assert_array_equal(inst.boundary.x0, np.zeros(7))
        assert np.asarray(inst.system.B)[6, 0] == 1.0 / 0.0025

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin_instance("pendulum")

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_deterministic_bitwise(self, name):
        a = builtin_instance(name)
        b = builtin_instance(name)
        assert np.array_equal(a.system.A, b.system.A)
        assert np.array_equal(a.system.B, b.system.B)
        assert np.array_equal(a.boundary.x0, b.boundary.x0)
        assert np.array_equal(a.boundary.xf, b.boundary.xf)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_invariants_hold(self, name):
        inst = builtin_instance(name)
        sys_ = inst.system
        assert sys_.n >= 1 and sys_.m >= 1 and sys_.tf > sys_.t0
        assert np.all(np.isfinite(sys_.A)) and np.all(np.isfinite(sys_.B))
        assert inst.boundary.n == sys_.n


class TestGrid:
    def test_basic(self):
        g = Grid(N=4, t0=0.0, tf=1.0)
        assert g.h == 0.25
        np.testing.assert_allclose(g.nodes, [0, 0.25, 0.5, 0.75, 1.0])
        assert len(g.left_nodes) == 4

    @pytest.mark.parametrize("N, t0, tf, message", [
        (0, 0.0, 1.0, "at least one step"),
        (5, 1.0, 1.0, "tf must exceed t0"),
        (5, 0.0, np.inf, "finite")], ids=["N_0", "empty_horizon", "infinite_tf"])
    def test_invalid(self, N, t0, tf, message):
        with pytest.raises(ValueError, match=message):
            Grid(N=N, t0=t0, tf=tf)

    @given(N=st.integers(1, 500),
           t0=st.floats(-10, 10),
           span=st.floats(1e-3, 100))
    def test_nodes_increasing(self, N, t0, span):
        g = Grid(N=N, t0=t0, tf=t0 + span)
        nodes = g.nodes
        assert len(nodes) == N + 1
        assert np.all(np.diff(nodes) > 0)
        assert g.h == pytest.approx((g.tf - g.t0) / N)


class TestBounds:
    def test_symmetric_exact(self):
        grid = Grid(N=16, t0=0, tf=1)
        lo, hi = Bounds.symmetric(1.5).sample(grid, 2)
        assert np.all(lo == -hi)
        assert np.all(hi == 1.5)

    def test_symmetric_requires_positive(self):
        with pytest.raises(ValueError):
            Bounds.symmetric(0.0)
        with pytest.raises(ValueError):
            Bounds.symmetric(-1.0)

    def test_per_channel_constants(self):
        grid = Grid(N=3, t0=0, tf=1)
        lo, hi = Bounds(lower=[-1.0, -2.0], upper=[0.5, 3.0]).sample(grid, 2)
        np.testing.assert_array_equal(lo[0], [-1.0, -2.0])
        np.testing.assert_array_equal(hi[2], [0.5, 3.0])

    def test_strict_ordering_enforced(self):
        grid = Grid(N=4, t0=0.0, tf=1.0)
        t = grid.left_nodes
        b = Bounds(lower=-t, upper=t)
        with pytest.raises(ValueError, match="lower < upper"):
            b.sample(grid, 1)  # lower == upper == 0 at t=0

    @pytest.mark.parametrize("x0, xf, message", [
        ([0.0, 1.0], [0.0], "equal length"),
        ([np.inf, 1.0], [0.0, 0.0], "finite")], ids=["unequal_lengths", "infinite"])
    def test_boundary_spec_validation(self, x0, xf, message):
        with pytest.raises(ValueError, match=message):
            BoundarySpec(x0=x0, xf=xf)

    def test_boundary_spec_keeps_read_only_copies(self):
        x0 = np.array([0.0, 1.0])
        spec = BoundarySpec(x0=x0, xf=[0.0, 0.0])
        x0[0] = 5.0
        assert spec.x0[0] == 0.0
        for arr in (spec.x0, spec.xf):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        with pytest.raises(AttributeError):
            spec.x0 = x0


class TestLinearSystem:
    @pytest.mark.parametrize("A, B, want_B", [
        ([[0, 1], [0, 0]], [[0], [1]], [[0.0], [1.0]]),
        ([[0, 1], [0, 0]], [0, 1], [[0.0], [1.0]]),
        ([[0, 1], [0, 0]], np.array([0.0, 1.0]), [[0.0], [1.0]]),
        ([[0.0]], 2.0, [[2.0]]),
        (3.0, [[2.0]], [[2.0]]),
        ([[0, 1], [0, 0]], [[0, 0.4], [1, 0.3]], [[0.0, 0.4], [1.0, 0.3]])],
        ids=["column_b", "flat_b", "flat_array_b", "scalar_b", "scalar_a", "two_inputs"])
    def test_dimensions_read_off_the_matrices(self, A, B, want_B):
        sys_ = LinearSystem(A, B, 0, 1)
        np.testing.assert_array_equal(sys_.A, np.atleast_2d(A))
        np.testing.assert_array_equal(sys_.B, want_B)
        assert (sys_.n, sys_.m) == np.shape(want_B)
        assert (sys_.t0, sys_.tf) == (0.0, 1.0)
        assert type(sys_.t0) is type(sys_.tf) is float
        assert LinearSystem._fields == ("A", "B", "t0", "tf")

    def test_keeps_read_only_float_copies(self):
        A = np.array([[0, 1], [0, 0]], dtype=np.int64)
        B = np.array([0.0, 1.0])
        sys_ = LinearSystem(A=A, B=B, t0=0.0, tf=1.0)
        A[1, 0] = -7
        B[1] = 5.0
        np.testing.assert_array_equal(sys_.A, [[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(sys_.B, [[0.0], [1.0]])
        assert sys_.A.dtype == sys_.B.dtype == np.float64
        for arr in (sys_.A, sys_.B):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0

    def test_nested_lists_transcribe(self):
        sys_ = LinearSystem([[0, 1], [0, 0]], [[0], [1]], 0.0, 1.0)
        aff = build_affine(sys_, sys_.grid(2), BoundarySpec(x0=[0, 1], xf=[0, 0]))
        np.testing.assert_allclose(aff.G, [[0.25, 0.0], [0.5, 0.5]])

    @pytest.mark.parametrize("A, B, t0, tf, message", [
        (np.zeros((2, 3)), np.zeros((2, 1)), 0, 1, r"A must be square, got \(2, 3\)"),
        ([1.0, 2.0], [[1.0]], 0, 1, r"A must be square, got \(1, 2\)"),
        (np.zeros((2, 2, 2)), np.zeros((2, 1)), 0, 1, r"A must be square, got \(2, 2, 2\)"),
        (np.zeros((2, 2)), np.zeros((3, 1)), 0, 1, "B must have 2 rows, got 3"),
        (np.zeros((2, 2)), np.zeros(3), 0, 1, "B must have 2 rows, got 3"),
        (np.zeros((2, 2)), 1.0, 0, 1, "B must have 2 rows, got 1"),
        (np.zeros((2, 2)), np.zeros((2, 1, 1)), 0, 1,
         r"B must be two-dimensional, got shape \(2, 1, 1\)"),
        (np.zeros((2, 2)), np.zeros((2, 0)), 0, 1,
         "state and control dimensions must be at least 1"),
        (np.zeros((0, 0)), np.zeros((0, 1)), 0, 1,
         "state and control dimensions must be at least 1"),
        ([[np.nan, 0], [0, 0]], [[0], [1]], 0, 1, "A contains non-finite entries"),
        ([[0, 1], [0, 0]], [np.inf, 1], 0, 1, "B contains non-finite entries"),
        ([[0.0]], [[1.0]], 1.0, 1.0, r"tf must exceed t0, got \[1.0, 1.0\]"),
        ([[0.0]], [[1.0]], 1, 0.5, r"tf must exceed t0, got \[1.0, 0.5\]")],
        ids=["wide_a", "flat_a", "three_dim_a", "tall_b", "long_flat_b", "scalar_b_for_n_2",
             "three_dim_b", "no_column", "empty_a", "nan_a", "infinite_b", "empty_horizon",
             "reversed_horizon"])
    def test_shapes_entries_and_horizon_checked(self, A, B, t0, tf, message):
        with pytest.raises(ValueError, match=message):
            LinearSystem(A, B, t0, tf)


class TestConfig:
    def test_builtin_with_bound(self):
        inst = instance_from_config({"system": "double_integrator", "bound": 2.0})
        assert inst.label == "double_integrator"
        lo, hi = inst.bounds.sample(inst.system.grid(4), 1)
        assert np.all(hi == 2.0) and np.all(lo == -2.0)

    def test_builtin_with_overrides(self):
        inst = instance_from_config({
            "system": "double_integrator", "x0": [1.0, 0.0], "tf": 2.0})
        np.testing.assert_array_equal(inst.boundary.x0, [1.0, 0.0])
        assert inst.system.tf == 2.0

    def test_inline_matrices(self):
        inst = instance_from_config({
            "system": {"A": [[0, 1], [0, 0]], "B": [[0], [1]]},
            "t0": 0.0, "tf": 1.0, "x0": [0, 1], "xf": [0, 0],
            "bounds": {"lower": [-1.0], "upper": [2.0]},
            "label": "shifted box"})
        assert inst.label == "shifted box"
        lo, hi = inst.bounds.sample(inst.system.grid(3), 1)
        assert np.all(lo == -1.0) and np.all(hi == 2.0)

    def test_inline_requires_endpoints(self):
        with pytest.raises(ConfigError, match="x0"):
            instance_from_config({
                "system": {"A": [[0.0]], "B": [[1.0]]}, "t0": 0, "tf": 1})

    def test_both_bound_forms_rejected(self):
        with pytest.raises(ConfigError, match="not both"):
            instance_from_config({
                "system": "double_integrator", "bound": 1.0,
                "bounds": {"lower": [-1], "upper": [1]}})

    def test_missing_system(self):
        with pytest.raises(ConfigError, match="system"):
            instance_from_config({"bound": 1.0})

    @pytest.mark.parametrize("doc, message", [
        ({"system": {"A": [[0, 1]], "B": [[1]]}, "t0": 0, "tf": 1, "x0": [0], "xf": [1]},
         "square"),
        ({"system": "double_integrator", "x0": [0, 0, 0], "xf": [0, 0, 0]},
         "boundary dimension 3 does not match state dimension 2"),
        ({"system": "double_integrator", "xf": [0]}, "equal length")],
        ids=["bad_matrix", "boundary_dimension", "unequal_endpoints"])
    def test_invalid_values_reported_as_config_error(self, doc, message):
        with pytest.raises(ConfigError, match=message):
            instance_from_config(doc)
