"""The numpy CSV formatter against Python's per-value ``format(x, ".15g")``."""

import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbvp import _csvtext, picard_solve
from fracbvp._csvtext import csv_rows

from conftest import oracle_csv_rows


def from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def nudge(x, steps):
    """The float ``steps`` places above x (below for negative steps)."""
    for _ in range(abs(steps)):
        x = np.nextafter(x, np.inf if steps > 0 else -np.inf)
    return float(x)


SIGN = st.sampled_from((1.0, -1.0))
ANY_DOUBLE = st.integers(0, 2**64 - 1).map(from_bits)
# (D + 0.5) * 10^-k, D of 15 digits, read from its decimal text: at k = 0 an
# exact tie, elsewhere the nearest double on either side of one
TIES = st.builds(
    lambda d, k, sign: sign * float(f"{d}.5e{-k}"),
    st.integers(10**14, 10**15 - 1),
    st.integers(-1, 24),
    SIGN,
)
NEAR_POWERS_OF_TEN = st.builds(
    lambda j, steps, sign: sign * nudge(10.0**j, steps),
    st.integers(-9, 16),
    st.integers(-3, 3),
    SIGN,
)
SUBNORMALS = st.builds(lambda bits, sign: sign * from_bits(bits), st.integers(1, 2**52 - 1), SIGN)
SPECIALS = st.sampled_from((0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-8, 1e15))
VALUES = st.one_of(ANY_DOUBLE, TIES, NEAR_POWERS_OF_TEN, SUBNORMALS, SPECIALS)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(VALUES, min_size=1, max_size=60), cols=st.integers(1, 4))
def test_csv_rows_match_per_value_format(values, cols):
    table = np.resize(np.array(values), (-(-len(values) // cols), cols))
    assert csv_rows(table) == oracle_csv_rows(table)


@pytest.fixture
def per_value(monkeypatch):
    """The values that ``csv_rows`` formats one at a time, in order."""
    seen = []
    fallback = _csvtext._per_value_record
    monkeypatch.setattr(_csvtext, "_per_value_record", lambda x, sep: seen.append(x) or fallback(x, sep))
    return seen


@pytest.mark.parametrize("n", [513, 8193])
def test_worked_example_needs_no_per_value_fallback(example_spec, per_value, n):
    pair, _ = picard_solve(example_spec, n, tol=1e-10)
    table = np.column_stack((pair.grid.nodes, pair.u.values, pair.v.values))
    assert csv_rows(table) == oracle_csv_rows(table)
    assert per_value == []
    # the seam is live: a value outside the exact range does take it
    assert csv_rows(np.array([[1e-9, 0.0]])) == "1e-09,0\n"
    assert per_value == [1e-9]


def test_values_near_powers_of_ten_inside_the_range_need_no_fallback(per_value):
    # the exponent table holds the correctly rounded powers of ten
    for i, k in enumerate(range(-8, 15)):
        assert _csvtext._POW10_E[i] == float(f"1e{k}")
    # 1e-7 and 1e-6 are the powers whose doubles lie below 10^k; the lookup
    # puts them one decade high, where they round to D = 10^14
    assert [k for k in range(-8, 0) if Fraction(float(f"1e{k}")) < Fraction(10) ** k] == [-7, -6]
    values = [nudge(float(f"1e{k}"), steps) for k in range(-8, 15) for steps in range(-40, 41)]
    values = [x for x in values if 1e-8 <= x < 1e15]
    table = np.array(values + [-x for x in values]).reshape(-1, 2)
    assert csv_rows(table) == oracle_csv_rows(table)
    assert per_value == []
