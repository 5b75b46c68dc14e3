import numpy as np
import pytest

from ctrlgap import (BoundarySpec, Bounds, builtin_instance, build_affine,
                     make_lti_system)

# Exact discrete a_c at N=1000 from a bounded-variable LP (HiGHS), each
# matched by its dual bound to 1e-15 relative.
LP_A_C_1000 = {"double_integrator": 2.415921159642151,
               "damped_oscillator": 0.5419200555639977,
               "machine_tool": 1774.813234324145}


@pytest.fixture(scope="session")
def di_instance():
    return builtin_instance("double_integrator")


@pytest.fixture(scope="session")
def di_aff_2000(di_instance):
    grid = di_instance.system.grid(2000)
    return grid, build_affine(di_instance.system, grid, di_instance.boundary)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def scalar_integrator(t0=0.0, tf=1.0):
    """1-state system x' = u."""
    return make_lti_system([[0.0]], [[1.0]], t0, tf)


def tiny_affine(system, N, x0, xf):
    grid = system.grid(N)
    return grid, build_affine(system, grid, BoundarySpec(x0=x0, xf=xf))


def random_tiny_problem(rng, max_coords=8):
    """Random small instance for oracle cross-checks: N*m <= max_coords."""
    n = int(rng.integers(1, 3))
    m = int(rng.integers(1, 3))
    N = int(rng.integers(max(2, n), max(2, max_coords // m) + 1))
    while N * m > max_coords:
        N -= 1
    A = rng.normal(0, 1, (n, n))
    B = rng.normal(0, 1, (n, m))
    # reject near-singular reachability before building
    system = make_lti_system(A, B, 0.0, 1.0)
    grid = system.grid(N)
    x0 = rng.normal(0, 1, n)
    xf = rng.normal(0, 1, n)
    aff = build_affine(system, grid, BoundarySpec(x0=x0, xf=xf))
    if not aff.controllable:
        return None
    lo = -np.abs(rng.normal(0.3, 0.3, m)) - 0.05
    hi = np.abs(rng.normal(0.3, 0.3, m)) + 0.05
    return grid, aff, Bounds(lower=lo, upper=hi)
