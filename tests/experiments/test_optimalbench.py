"""``bench-optimal`` records which DP forward pass its timings measure."""

from __future__ import annotations

from repro.core import _native
from repro.experiments.optimalbench import optimal_dp_benchmark


def test_record_names_the_forward_pass():
    record = optimal_dp_benchmark("smoke", ks=(2, 3))
    expected = "native" if _native.available() else "numpy"
    assert record["dp"]["forward"] == expected
    assert record["dp"]["costs_match"] is True


def test_fallback_is_recorded_as_numpy(monkeypatch):
    monkeypatch.setattr(_native, "load_kernel", lambda: None)
    record = optimal_dp_benchmark("smoke", ks=(2,), include_legacy=False)
    assert record["dp"]["forward"] == "numpy"
