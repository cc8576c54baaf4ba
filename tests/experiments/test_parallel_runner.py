"""Pooled table runs (``jobs > 1``) must reproduce the serial results exactly."""

from __future__ import annotations

import pytest

from repro.experiments.presets import SMOKE, Scale
from repro.experiments.tables import run_kary_table, run_table8

TINY = Scale(
    name="tiny",
    m=600,
    uniform_n=24,
    hpc_n=27,
    projector_n=24,
    facebook_n=32,
    temporal_n=31,
    ks=(2, 3),
    optimal_tree_max_n=64,
)


class TestKAryTableParallel:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_matches_serial(self, jobs):
        serial = run_kary_table("temporal-0.5", scale=TINY)
        parallel = run_kary_table("temporal-0.5", scale=TINY, jobs=jobs)
        assert parallel.splaynet == serial.splaynet
        assert parallel.rotations == serial.rotations
        assert parallel.fulltree == serial.fulltree
        assert parallel.optimal == serial.optimal
        assert parallel.n == serial.n and parallel.m == serial.m

    def test_optimal_skipped_above_budget(self):
        scale = Scale(
            name="tiny2",
            m=300,
            uniform_n=24,
            hpc_n=27,
            projector_n=24,
            facebook_n=32,
            temporal_n=31,
            ks=(2,),
            optimal_tree_max_n=8,  # below every workload n
        )
        result = run_kary_table("uniform", scale=scale)
        assert result.optimal == {2: None}

    def test_include_optimal_false(self):
        result = run_kary_table(
            "uniform", scale=TINY, include_optimal=False
        )
        assert all(v is None for v in result.optimal.values())

    def test_custom_ks(self):
        result = run_kary_table("uniform", scale=TINY, ks=(2, 4))
        assert set(result.splaynet) == {2, 4}


class TestTable8Parallel:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_matches_serial(self, jobs):
        workloads = ("uniform", "temporal-0.9")
        serial = run_table8(scale=TINY, workloads=workloads)
        parallel = run_table8(scale=TINY, workloads=workloads, jobs=jobs)
        for workload in workloads:
            s, p = serial.row(workload), parallel.row(workload)
            assert p.centroid3.total_routing == s.centroid3.total_routing
            assert p.splaynet.total_routing == s.splaynet.total_routing
            assert p.full_binary_cost == s.full_binary_cost
            assert p.optimal_bst_cost == s.optimal_bst_cost

    def test_row_shape(self):
        result = run_table8(scale=TINY, workloads=("uniform",))
        row = result.row("uniform")
        assert row.m == TINY.m
        assert row.average_cost() > 0
        assert row.ratio_splaynet() > 0

    def test_all_workloads_smoke(self):
        # every paper workload builds and reduces at smoke scale
        result = run_table8(
            scale=SMOKE, workloads=("hpc", "projector"), include_optimal=False
        )
        assert len(result.rows) == 2
        assert all(r.optimal_bst_cost is None for r in result.rows)
