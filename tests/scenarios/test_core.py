"""The scenario execution core: determinism, memoization, sinks, sweeps."""

from __future__ import annotations

import pytest

from repro.core.engine import best_available_engine
from repro.core.splaynet import KArySplayNet
from repro.errors import ExperimentError
from repro.network.cost import UNIT_ROTATIONS
from repro.network.simulator import Simulator
from repro.parallel import (
    SweepSpec,
    clear_trace_cache,
    run_scenario_sweep,
    trace_cache_stats,
)
from repro.results import JsonlStore
from repro.scenarios import (
    ResultCache,
    ScenarioResult,
    ScenarioSpec,
    read_results_jsonl,
    run_scenario,
    run_specs,
)
from repro.workloads.synthetic import temporal_trace, zipf_trace


def spec(**overrides):
    fields = dict(
        workload="temporal-0.5", n=24, m=300, seed=7, algorithm="kary-splaynet", k=3
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestRunScenario:
    def test_online_cell_matches_direct_simulation(self):
        cell = run_scenario(spec())
        trace = temporal_trace(24, 300, 0.5, 7)
        direct = Simulator().run(KArySplayNet(24, 3, initial="complete"), trace)
        assert cell.total_routing == direct.total_routing
        assert cell.total_rotations == direct.total_rotations

    def test_analytic_cell(self):
        cell = run_scenario(
            spec(algorithm="optimal-uniform-distance", m=0, n=10, k=2)
        )
        assert cell.total_routing > 0
        assert cell.total_rotations == 0

    def test_cost_model_selection(self):
        cell = run_scenario(spec(cost_model="unit_rotations"))
        assert cell.cost() == cell.cost(UNIT_ROTATIONS)
        assert cell.cost() > cell.total_routing  # rotations priced in

    def test_result_json_round_trip(self):
        cell = run_scenario(spec())
        assert ScenarioResult.from_dict(cell.to_dict()) == cell


class TestRunSpecs:
    def test_order_preserved_and_deterministic(self):
        specs = [spec(k=k, algorithm=a) for k in (2, 3) for a in ("kary-splaynet", "full-tree")]
        serial = run_specs(specs)
        again = run_specs(specs)
        assert [c.spec for c in serial] == specs
        assert [c.total_routing for c in serial] == [c.total_routing for c in again]

    def test_parallel_matches_serial(self):
        specs = [spec(k=k) for k in (2, 3, 4)]
        serial = run_specs(specs)
        parallel = run_specs(specs, jobs=2)
        assert [c.total_routing for c in serial] == [c.total_routing for c in parallel]
        assert [c.total_rotations for c in serial] == [
            c.total_rotations for c in parallel
        ]

    def test_best_available_and_object_engines_agree(self):
        fast = run_specs([spec(engine=best_available_engine())])[0]
        obj = run_specs([spec(engine="object")])[0]
        assert fast.total_routing == obj.total_routing
        assert fast.total_rotations == obj.total_rotations
        assert fast.total_links_changed == obj.total_links_changed

    def test_explicit_trace_override(self):
        trace = zipf_trace(24, 300, 1.4, seed=99)
        s = spec(workload="zipf-1.4", seed=99)
        with_override = run_specs([s], traces={s.trace_key(): trace})[0]
        direct = Simulator().run(KArySplayNet(24, 3, initial="complete"), trace)
        assert with_override.total_routing == direct.total_routing

    def test_explicit_trace_requires_serial(self):
        trace = zipf_trace(24, 300, 1.4, seed=99)
        s = spec(workload="zipf-1.4", seed=99)
        with pytest.raises(ExperimentError):
            run_specs([s], jobs=2, traces={s.trace_key(): trace})

    def test_explicit_trace_key_must_match_trace_coordinates(self):
        shorter = zipf_trace(24, 299, 1.4, seed=99)
        s = spec(workload="zipf-1.4", seed=99)  # m=300
        with pytest.raises(ExperimentError):
            run_specs([s], traces={s.trace_key(): shorter})


class TestTraceMemoization:
    def test_table_cells_materialize_trace_once(self):
        clear_trace_cache()
        specs = [spec(k=k, algorithm=a) for k in (2, 3, 5) for a in ("kary-splaynet", "full-tree")]
        # cache=False: served-from-cache cells would never touch the
        # trace memo this test is counting.
        run_specs(specs, cache=False)
        stats = trace_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == len(specs) - 1
        clear_trace_cache()

    def test_pinning_a_trace_drops_a_stale_demand_entry(self):
        # Regression: an optimal-tree cell caches the *generated* trace's
        # demand; pinning a custom trace under the same coordinates must
        # evict it, or the static optimum is built from the wrong workload.
        from repro.analysis.distance import trace_static_cost
        from repro.optimal import DemandContext, optimal_static_tree
        from repro.workloads.demand import DemandMatrix

        clear_trace_cache()
        s = spec(algorithm="optimal-tree", k=2, workload="zipf-1.4", seed=99)
        run_specs([s], cache=False)  # populates the demand memo for the key
        custom = zipf_trace(24, 300, 2.2, seed=5)
        pinned = run_specs(
            [s], cache=False, traces={s.trace_key(): custom}
        )[0]
        demand = DemandMatrix.from_trace(custom)
        expected = optimal_static_tree(
            demand, 2, context=DemandContext.from_demand(demand)
        )
        assert pinned.total_routing == trace_static_cost(expected.tree, custom)
        clear_trace_cache()

    def test_a_refused_run_leaves_no_pinned_trace(self):
        from repro.parallel.tasks import materialize_trace_cached

        clear_trace_cache()
        custom = zipf_trace(24, 300, 2.2, seed=5)
        s = spec(workload="zipf-1.4", seed=99)
        with pytest.raises(ExperimentError, match="path-backed"):
            # resume needs a path-backed sink; this one has none
            run_specs(
                [s], traces={s.trace_key(): custom}, resume=True, sink=object()
            )
        assert materialize_trace_cached(*s.trace_key()) is not custom
        clear_trace_cache()

    def test_pinned_trace_survives_cache_pressure(self):
        from repro.parallel.tasks import (
            _TRACE_CACHE_MAX,
            evict_trace,
            materialize_trace_cached,
            seed_trace_cache,
        )

        clear_trace_cache()
        custom = zipf_trace(24, 300, 1.4, seed=99)
        key = seed_trace_cache(custom, "zipf-1.4", 99)
        try:
            # Force enough distinct traces through the memo to trigger its
            # eviction sweep; the pinned entry must not be swept.
            for seed in range(_TRACE_CACHE_MAX + 2):
                materialize_trace_cached("uniform", 8, 16, seed)
            assert materialize_trace_cached("zipf-1.4", 24, 300, 99) is custom
        finally:
            evict_trace(key)
            clear_trace_cache()


class TestSink:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "results.jsonl"
        specs = [spec(k=2), spec(algorithm="full-tree", k=2)]
        with JsonlStore(path) as sink:
            results = run_specs(specs, sink=sink)
            assert sink.count == len(specs)
        assert read_results_jsonl(path) == results

    def test_sink_opens_lazily(self, tmp_path):
        sink = JsonlStore(tmp_path / "sub" / "never.jsonl")
        sink.close()
        assert not (tmp_path / "sub").exists()

    def test_serial_run_streams_completed_cells_before_a_crash(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        # The second cell blows up inside trace materialization
        # (the zipf parameter is not a number) — the first cell's line must
        # already be on disk.
        specs = [spec(k=2), spec(workload="zipf-oops", seed=1)]
        with JsonlStore(path) as sink:
            with pytest.raises(ExperimentError):
                run_specs(specs, sink=sink)
        survivors = read_results_jsonl(path)
        assert len(survivors) == 1
        assert survivors[0].spec == specs[0]

    def test_serial_record_interleaves_cache_hits_in_spec_order(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_specs([spec(k=k) for k in (2, 4, 6)], cache=cache)
        specs = [spec(k=k) for k in (2, 3, 4, 5, 6)]  # hit, miss, hit, miss, hit
        path = tmp_path / "campaign.jsonl"
        with JsonlStore(path) as sink:
            results = run_specs(specs, cache=cache, sink=sink)
        assert cache.hits == 3
        assert [r.spec for r in read_results_jsonl(path)] == specs
        assert read_results_jsonl(path) == results

    def test_serial_crash_keeps_the_hits_before_it(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_specs([spec(k=2), spec(k=4)], cache=cache)
        specs = [spec(k=2), spec(workload="zipf-oops", seed=1), spec(k=4)]
        path = tmp_path / "partial.jsonl"
        with JsonlStore(path) as sink:
            with pytest.raises(ExperimentError):
                run_specs(specs, cache=cache, sink=sink)
        assert [r.spec for r in read_results_jsonl(path)] == specs[:1]

    def test_pooled_record_holds_every_cell_once(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_specs([spec(k=k) for k in (2, 4)], cache=cache)
        specs = [spec(k=k) for k in (2, 3, 4, 5)]
        path = tmp_path / "campaign.jsonl"
        with JsonlStore(path) as sink:
            results = run_specs(specs, jobs=2, cache=cache, sink=sink)
        assert [r.spec for r in results] == specs
        assert sorted(read_results_jsonl(path), key=lambda r: r.spec.k) == results

    def test_two_sink_sessions_on_one_path_keep_both_batches(self, tmp_path):
        # Regression: write() used to open with mode "w", so a resumed or
        # re-run campaign silently truncated every prior result.
        path = tmp_path / "campaign.jsonl"
        first = [spec(k=2)]
        second = [spec(k=3), spec(algorithm="full-tree", k=2)]
        with JsonlStore(path) as sink:
            batch1 = run_specs(first, sink=sink)
        with JsonlStore(path) as sink:
            batch2 = run_specs(second, sink=sink)
        assert read_results_jsonl(path) == batch1 + batch2

    def test_overwrite_sink_truncates(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with JsonlStore(path) as sink:
            run_specs([spec(k=2)], sink=sink)
        with JsonlStore(path, overwrite=True) as sink:
            replacement = run_specs([spec(k=3)], sink=sink)
        assert read_results_jsonl(path) == replacement


class TestResultsPaths:
    """default_results_path must not scatter files across CWDs."""

    def test_env_override_wins(self, tmp_path, monkeypatch):
        from repro.scenarios import default_results_path, results_root

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "here"))
        assert results_root() == tmp_path / "here"
        assert default_results_path("zipf", "quick") == (
            tmp_path / "here" / "scenario_zipf_quick.jsonl"
        )

    def test_anchors_to_enclosing_checkout_from_a_subdirectory(
        self, tmp_path, monkeypatch
    ):
        from repro.scenarios import results_root

        root = tmp_path / "checkout"
        (root / "benchmarks" / "results").mkdir(parents=True)
        deep = root / "src" / "repro" / "somewhere"
        deep.mkdir(parents=True)
        monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
        assert results_root(deep) == root / "benchmarks" / "results"
        monkeypatch.chdir(deep)  # same answer via the CWD default
        assert results_root() == root / "benchmarks" / "results"

    def test_falls_back_to_package_checkout_outside_any_repo(self, monkeypatch):
        import repro.results.paths as paths_module

        monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
        from pathlib import Path

        nowhere = Path("/nonexistent") / "deeply" / "nested" / "cwd"
        expected = Path(paths_module.__file__).resolve().parents[3]
        assert (
            paths_module.results_root(nowhere)
            == expected / "benchmarks" / "results"
        )


class TestScenarioSweep:
    def test_axes_become_spec_fields(self):
        result = run_scenario_sweep(
            SweepSpec(axes={"k": (2, 3)}, root_seed=5),
            {"workload": "uniform", "n": 16, "m": 80, "algorithm": "kary-splaynet"},
        )
        assert len(result) == 2
        assert [cell.spec.k for cell in result.values] == [2, 3]
        assert all(cell.total_routing > 0 for cell in result.values)

    def test_seed_derived_per_cell_unless_pinned(self):
        derived = run_scenario_sweep(
            SweepSpec(axes={"k": (2, 3)}, root_seed=5),
            {"workload": "uniform", "n": 16, "m": 80, "algorithm": "kary-splaynet"},
        )
        seeds = {cell.spec.seed for cell in derived.values}
        assert len(seeds) == 2  # independent per coordinate
        pinned = run_scenario_sweep(
            SweepSpec(axes={"k": (2, 3)}, root_seed=5),
            {"workload": "uniform", "n": 16, "m": 80, "seed": 1,
             "algorithm": "kary-splaynet"},
        )
        assert {cell.spec.seed for cell in pinned.values} == {1}

    def test_repeats_drop_the_rep_axis(self):
        result = run_scenario_sweep(
            SweepSpec(axes={"k": (2,)}, root_seed=5, repeats=2),
            {"workload": "uniform", "n": 16, "m": 80, "algorithm": "kary-splaynet"},
        )
        assert len(result) == 2
        assert {cell.spec.seed for cell in result.values} == {
            c.seed for c in result.cells
        }
