import numpy as np
import pytest

from ctrlgap import ControlTrajectory, Grid, extract_switchings
from ctrlgap.analyze import _extract_channel


def reference_channel(s, times, h, tau, min_len):
    """The per-node loops that ``_extract_channel`` replaces."""
    strong = np.flatnonzero(np.abs(s) > tau)
    switch_times, signs = [], []
    prev, prev_sgn = None, 0
    for idx in strong:
        sgn = 1 if s[idx] > 0 else -1
        if prev is None:
            signs.append(sgn)
        elif sgn != prev_sgn:
            if (idx - prev - 1) * h < min_len:
                t_a, t_b = times[prev], times[idx]
                s_a, s_b = s[prev], s[idx]
                switch_times.append(float(t_a + (t_b - t_a) * s_a / (s_a - s_b)))
            signs.append(sgn)
        prev, prev_sgn = idx, sgn
    singular = []
    weak = np.abs(s) <= tau
    k, N = 0, len(s)
    while k < N:
        if weak[k]:
            start = k
            while k < N and weak[k]:
                k += 1
            duration = (k - start) * h
            if duration >= min_len:
                singular.append((float(times[start]), float(times[start] + duration)))
        else:
            k += 1
    return tuple(switch_times), tuple(signs), tuple(singular)


def assert_matches_reference(s, tau, min_len, N=None):
    N = len(s) if N is None else N
    grid = Grid(N=N, t0=0.3, tf=2.1)
    times = grid.left_nodes
    got = _extract_channel(np.asarray(s, dtype=float), times, grid.h, tau, min_len)
    want = reference_channel(np.asarray(s, dtype=float), times, grid.h, tau, min_len)
    assert (got.switch_times, got.signs, got.singular_intervals) == want
    for t_got, t_want in zip(got.switch_times, want[0]):
        assert np.float64(t_got).view(np.int64) == np.float64(t_want).view(np.int64)
    assert all(type(x) is int for x in got.signs)
    assert all(type(x) is float for x in got.switch_times)
    return got


def test_bridged_crossing_and_singular_arc():
    # +1 ... one weak node ... -1 (bridged), then a long weak run, then +1
    s = [1.0] * 10 + [1e-12] + [-0.7] * 10 + [0.0] * 30 + [0.4] * 10
    got = assert_matches_reference(s, tau=1e-9, min_len=5 * 1.8 / 61)
    assert len(got.switch_times) == 1 and got.signs == (1, -1, 1)
    assert len(got.singular_intervals) == 1


@pytest.mark.parametrize("s", [
    [0.0] * 25 + [1.0] * 10 + [-1.0] * 10,   # singular run at the start
    [1.0] * 10 + [-1.0] * 10 + [0.0] * 25,   # singular run at the end
    [0.0] * 25 + [1.0, -1.0] * 5 + [0.0] * 25,
], ids=["start", "end", "both"])
def test_singular_runs_at_either_end(s):
    got = assert_matches_reference(s, tau=1e-9, min_len=20 * 1.8 / len(s))
    assert got.singular_intervals


def test_tau_zero_counts_only_exact_zeros_as_weak():
    s = [1.0, 1e-300, -1e-300, 0.0, -2.0, 3.0, 0.0, 0.0]
    assert_matches_reference(s, tau=0.0, min_len=0.0)
    assert_matches_reference(s, tau=0.0, min_len=1.0)


def test_all_weak_signal():
    got = assert_matches_reference(np.full(40, 1e-12), tau=1e-9, min_len=0.1)
    assert got.switch_times == () and got.signs == ()
    assert len(got.singular_intervals) == 1
    got = assert_matches_reference(np.zeros(3), tau=0.0, min_len=10.0)
    assert (got.switch_times, got.signs, got.singular_intervals) == ((), (), ())


def test_random_signals_match_the_reference_bitwise():
    rng = np.random.default_rng(11)
    for _ in range(200):
        N = int(rng.integers(2, 400))
        s = rng.normal(0, 1, N) * (rng.random(N) > rng.random())
        s[rng.random(N) < 0.1] *= 1e-12
        tau = float(rng.choice([0.0, 1e-9, 0.3]))
        min_len = float(rng.choice([0.0, 0.01, 0.1, 5.0]))
        assert_matches_reference(s, tau, min_len)


def test_profile_of_a_bang_bang_control():
    grid = Grid(N=1000, t0=0.0, tf=1.0)
    u = np.where(grid.left_nodes < 0.4, 1.0, -1.0)[:, None]
    profile = extract_switchings(ControlTrajectory(values=u, grid=grid), grid)
    assert profile.switch_times == pytest.approx([0.3995])
    assert profile.channels[0].signs == (1, -1)
