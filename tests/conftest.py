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


def ill_conditioned_affines():
    """The controllable ones among 180 random 4-state systems (seeds 1-3),
    whose row-scaled Gram matrices reach cond 3e10."""
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            A, B = rng.normal(0, 2, (4, 4)), rng.normal(0, 1, (4, 1))
            N = int(rng.integers(20, 300))
            x0, xf = rng.normal(0, 1, 4), rng.normal(0, 1, 4)
            system = make_lti_system(A, B, 0.0, 1.0)
            aff = build_affine(system, system.grid(N), BoundarySpec(x0=x0, xf=xf))
            if aff.controllable:
                yield aff


def two_input_draw(k):
    """The system and boundary of the k-th (from 1) of the random two-input
    systems drawn from default_rng(21) in the order n, N, A, B, x0, xf."""
    rng = np.random.default_rng(21)
    for _ in range(k):
        n, N = int(rng.integers(2, 8)), int(rng.integers(50, 1500))
        A = rng.normal(0, float(rng.choice([2.0, 4.0])), (n, n))
        B = rng.normal(0, 1, (n, 2))
        x0, xf = rng.normal(0, 1, n), rng.normal(0, 1, n)
    system = make_lti_system(A, B, 0.0, 1.0)
    return system, system.grid(N), BoundarySpec(x0=x0, xf=xf)


def gram(aff):
    """The Gram matrix W = G G^T, formed from G and not from the basis."""
    return aff.G @ aff.G.T


def gram_solve(aff, r):
    """W^{-1} r solved with W scaled to unit diagonal, refined once against W:
    a reference for the multiplier that the solvers form in the basis."""
    W = gram(aff)
    d = np.sqrt(np.diag(W))
    Ws = W / np.outer(d, d)
    y = np.linalg.solve(Ws, r / d) / d
    return y + np.linalg.solve(Ws, (r - W @ y) / d) / d


def scaled_residual(aff, u):
    """|D^{-1}(G u - xi)| / (1 + |D^{-1} xi|), D = sqrt(diag W)."""
    d = np.sqrt(np.diag(gram(aff)))
    return np.linalg.norm((aff.G @ u - aff.xi) / d) / (1.0 + np.linalg.norm(aff.xi / d))
