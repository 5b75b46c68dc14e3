import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlgap import csvtext
from ctrlgap.csvtext import encode_rows


def reference_rows(block):
    """The text that Python's ``%.17g`` gives for the rows of ``block``."""
    return "".join(",".join("%.17g" % x for x in row) + "\n"
                   for row in np.asarray(block).tolist()).encode("ascii")


def powers_of_ten_and_neighbours():
    """10^p for every p a double reaches, and the doubles one ulp either side."""
    exact = np.array([float(f"1e{p}") for p in range(-323, 309)])
    return np.concatenate([exact, np.nextafter(exact, 0.0), np.nextafter(exact, np.inf)])


@settings(max_examples=3000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_every_finite_double_matches_percent_17g(x):
    assert encode_rows(np.array([[x]])) == ("%.17g\n" % x).encode("ascii")


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda cols: st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=cols,
             max_size=cols), min_size=1, max_size=40)))
def test_blocks_of_finite_doubles_match_percent_17g(rows):
    block = np.array(rows, dtype=np.float64)
    assert encode_rows(block) == reference_rows(block)


@pytest.mark.parametrize("x", [
    2.0 ** -25,        # 2.98023223876953125e-08: an exact tie at 17 digits
    1e15 + 0.25,       # 1000000000000000.25: an exact tie, rounds to even
    1e15 + 0.75,
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
    1.7976931348623157e308, np.inf, -np.inf, np.nan,
    1.0, 0.5, 100.0, 0.1, 1e-4, 9.9999999999999995e-5, 1e-5, 1e16, 1e17,
    12345678901234567.0, 99999999999999999.0, 0.00012345, -123.456,
    1e250, 1e-250, 1.0000000000000001e250, 9.9999999999999993e-251,
])
def test_fixed_cases_match_percent_17g(x):
    assert encode_rows(np.array([[x]])) == ("%.17g\n" % x).encode("ascii")


def test_powers_of_ten_and_their_neighbours_match_percent_17g():
    values = powers_of_ten_and_neighbours()
    block = np.concatenate([values, -values]).reshape(-1, 4)
    assert encode_rows(block) == reference_rows(block)


def test_dyadic_rationals_and_grid_times_match_percent_17g():
    rng = np.random.default_rng(3)
    dyadic = rng.integers(-2 ** 40, 2 ** 40, 6000) / 2.0 ** rng.integers(0, 60, 6000)
    grid = np.arange(6000) * (2.5 / 6000)
    block = np.column_stack([grid, dyadic, -dyadic])
    assert encode_rows(block) == reference_rows(block)


def test_wide_random_doubles_match_percent_17g():
    rng = np.random.default_rng(4)
    bits = rng.integers(0, 2 ** 63, 40000, dtype=np.int64).view(np.float64)
    block = np.where(np.isfinite(bits), bits, 0.0).reshape(-1, 8)
    assert encode_rows(block) == reference_rows(block)


class _CountingFormat(str):
    """A ``%`` format string that counts the values it formats."""

    calls = 0

    def __mod__(self, value):
        type(self).calls += 1
        return str.__mod__(self, value)


@pytest.mark.parametrize("values,python_calls", [
    (np.random.default_rng(5).normal(0.0, 1.0, (512, 4)), 0),
    (np.zeros((64, 3)), 0),
    (np.array([[2.0 ** -25, 1.0, np.inf, 1e-300]]), 3),
])
def test_only_flagged_values_are_formatted_by_python(monkeypatch, values, python_calls):
    _CountingFormat.calls = 0
    monkeypatch.setattr(csvtext, "FLOAT_FMT", _CountingFormat("%.17g"))
    assert encode_rows(values) == reference_rows(values)
    assert _CountingFormat.calls == python_calls


def test_tables_are_built_on_first_use():
    code = ("import ctrlgap.cli, ctrlgap.csvtext as c; "
            "print(c._powers.cache_info().currsize, c._text_tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["0", "0"]
