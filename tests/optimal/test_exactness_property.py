"""Property test: the int64 DP is exact on arbitrary-magnitude demands.

Compares both forward passes — the default one (the native kernel's,
where it builds) and the vectorized NumPy one — against the pure-Python
reference transcription on random small instances whose weights reach
far past float64's 2^53 exact-integer range.  Needs hypothesis
(installed in CI); skipped gracefully when absent.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimal.context import DemandContext
from repro.optimal.general import _forward_numpy, optimal_static_cost_table
from repro.optimal.reference import reference_optimal_cost

SIZES = dict(
    n=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=2, max_value=4),
    data=st.data(),
)


def draw_demand(n, data):
    # Entries mix zeros, small counts and near-2^47 weights: far past
    # float64's 2^53 exact-integer range once a few of them add up.
    entry = st.one_of(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=(1 << 46), max_value=(1 << 47)),
    )
    d = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i != j:
                d[i, j] = data.draw(entry)
    return d


@given(**SIZES)
@settings(max_examples=40, deadline=None)
def test_property_matches_reference_including_large_magnitudes(n, k, data):
    d = draw_demand(n, data)
    assert optimal_static_cost_table(d, k) == reference_optimal_cost(d, k)


@given(**SIZES)
@settings(max_examples=40, deadline=None)
def test_numpy_forward_matches_reference_including_large_magnitudes(n, k, data):
    d = draw_demand(n, data)
    b, _ = _forward_numpy(DemandContext.from_demand(d), k)
    assert int(b[1, 0, n]) == reference_optimal_cost(d, k)
