"""Serial ≡ parallel ≡ cross-engine equivalence through the scenario core.

The acceptance bar of the scenario refactor: the same table must come out
bit-identical whether cells run serially or across workers, and whether
the self-adjusting cells serve on the object engine or the best available
one (the native kernel where it builds) — at which point defaulting the
reproduction pipeline to the fast backend is a pure speedup, not a
behaviour change.  Every Table 1-7 workload is checked at a tiny scale.
"""

from __future__ import annotations

import pytest

from repro.core.engine import best_available_engine
from repro.experiments.presets import SMOKE, Scale
from repro.experiments.runner import run_all
from repro.experiments.tables import TABLE_WORKLOAD, run_kary_table, run_table8

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


def _table_fields(result):
    return (result.splaynet, result.rotations, result.links, result.fulltree,
            result.optimal, result.n, result.m)


@pytest.mark.parametrize("workload", list(TABLE_WORKLOAD.values()), scope="class")
class TestKAryTableEquivalence:
    @pytest.fixture(scope="class")
    def reference(self, workload):
        """The object-engine serial run — the historical code path."""
        return run_kary_table(workload, scale=TINY, engine="object")

    def test_best_available_engine_matches_object(self, reference, workload):
        fast = run_kary_table(
            workload, scale=TINY, engine=best_available_engine()
        )
        assert _table_fields(fast) == _table_fields(reference)

    def test_default_engine_matches_object(self, reference, workload):
        default = run_kary_table(workload, scale=TINY)
        assert _table_fields(default) == _table_fields(reference)

    @pytest.mark.parametrize("engine", ["object", best_available_engine()])
    def test_parallel_matches_serial_per_engine(self, reference, workload, engine):
        parallel = run_kary_table(workload, scale=TINY, engine=engine, jobs=2)
        assert _table_fields(parallel) == _table_fields(reference)


class TestTable8Equivalence:
    def test_both_engines_and_job_counts_agree(self):
        workloads = ("uniform", "temporal-0.9")
        runs = [
            run_table8(scale=TINY, workloads=workloads, engine=engine, jobs=jobs)
            for engine in ("object", best_available_engine())
            for jobs in (1, 2)
        ]
        reference = runs[0]
        for other in runs[1:]:
            for workload in workloads:
                a, b = reference.row(workload), other.row(workload)
                assert b.centroid3.total_routing == a.centroid3.total_routing
                assert b.centroid3.total_rotations == a.centroid3.total_rotations
                assert b.splaynet.total_routing == a.splaynet.total_routing
                assert b.full_binary_cost == a.full_binary_cost
                assert b.optimal_bst_cost == a.optimal_bst_cost


class TestReproducePipelineCrossEngine:
    def test_run_all_summaries_identical_across_engines_at_smoke_scale(self):
        """The satellite assertion: `repro reproduce` produces identical
        table summaries through the scenario core on both engines."""
        def summary(engine):
            report = run_all(
                scale=SMOKE,
                tables=(6,),
                include_table8=False,
                include_remark10=False,
                verbose=False,
                engine=engine,
            )
            data = report.summary()
            data.pop("elapsed_seconds")
            data.pop("engine")
            return data

        assert summary("object") == summary(best_available_engine())
