"""Tests for experiment presets and the workload registry."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.presets import (
    PAPER,
    QUICK,
    SMOKE,
    WORKLOADS,
    get_scale,
    make_workload,
)


class TestScales:
    def test_get_scale_by_name(self):
        assert get_scale("quick") is QUICK
        assert get_scale("smoke") is SMOKE
        assert get_scale("paper") is PAPER

    def test_get_scale_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert get_scale() is SMOKE

    def test_default_is_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert get_scale() is QUICK

    def test_unknown_scale_rejected(self):
        with pytest.raises(ExperimentError):
            get_scale("galactic")

    def test_paper_scale_matches_section5(self):
        assert PAPER.m == 1_000_000
        assert PAPER.hpc_n == 500
        assert PAPER.projector_n == 100
        assert PAPER.facebook_n == 10_000
        assert PAPER.temporal_n == 1023
        assert PAPER.uniform_n == 100
        assert PAPER.ks == tuple(range(2, 11))


class TestWorkloadRegistry:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_all_workloads_instantiable(self, name):
        trace = make_workload(name, SMOKE)
        assert trace.m == SMOKE.m
        assert trace.n == SMOKE.workload_n(name)

    def test_temporal_parameter_parsed(self):
        trace = make_workload("temporal-0.75", SMOKE)
        assert trace.meta["p"] == 0.75

    def test_unknown_workload_rejected(self):
        with pytest.raises(ExperimentError):
            make_workload("quantum", SMOKE)

    @pytest.mark.parametrize("name", ["unifrom", "temporal-high", "zipf"])
    def test_workload_n_rejects_unknown_names(self, name):
        with pytest.raises(ExperimentError):
            QUICK.workload_n(name)

    @pytest.mark.parametrize("name", ["zipf-1.2", "permutation", "temporal-0.3"])
    def test_parametric_workloads_take_temporal_n(self, name):
        assert QUICK.workload_n(name) == QUICK.temporal_n

    def test_matches_the_direct_generators(self):
        import numpy as np

        from repro.workloads.datacenter import facebook_trace
        from repro.workloads.synthetic import temporal_trace

        pairs = [
            (
                make_workload("facebook", SMOKE),
                facebook_trace(SMOKE.facebook_n, SMOKE.m, SMOKE.seed),
            ),
            (
                make_workload("temporal-0.25", SMOKE),
                temporal_trace(SMOKE.temporal_n, SMOKE.m, 0.25, SMOKE.seed),
            ),
        ]
        for via_preset, direct in pairs:
            assert np.array_equal(via_preset.sources, direct.sources)
            assert np.array_equal(via_preset.targets, direct.targets)

    def test_deterministic(self):
        import numpy as np

        a = make_workload("hpc", SMOKE)
        b = make_workload("hpc", SMOKE)
        assert np.array_equal(a.sources, b.sources)
