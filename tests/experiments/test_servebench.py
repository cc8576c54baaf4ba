"""Smoke tests for the serve-farm benchmark, report, and their CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.engine import native_available
from repro.errors import ExperimentError
from repro.experiments.benchkit import write_record
from repro.experiments.servebench import (
    default_scalar_modes,
    servefarm_benchmark,
)
from repro.experiments.trajectory import (
    load_benchmark_records,
    record_checks,
    record_metrics,
    render_trajectory,
)


class TestServefarmBenchmark:
    def test_tiny_run_shape_and_equivalence(self):
        result = servefarm_benchmark(
            n=24,
            k=3,
            scalar_m=80,
            farm_m=300,
            shard_counts=(1, 2),
            keys=4,
            window=100,
            seed=2,
        )
        assert result["benchmark"] == "servefarm"
        assert set(result["scalar"]["modes"]) == set(default_scalar_modes())
        for stats in result["scalar"]["modes"].values():
            assert stats["seconds"] > 0
            assert stats["requests_per_second"] > 0
            assert stats["total_routing"] > 0
        assert set(result["farm"]["shards"]) == {"1", "2"}
        for stats in result["farm"]["shards"].values():
            assert stats["requests_per_second"] > 0
            assert stats["capacity_requests_per_second"] > 0
            assert stats["latency_p99_seconds"] >= stats["latency_p50_seconds"]
        # The benchmark doubles as a serving-mode equivalence check.
        assert result["farm"]["totals_match"] is True
        assert "scaling_2_over_1" in result["farm"]
        if native_available():
            assert result["scalar"]["totals_match"] is True
            assert result["scalar"]["speedup_resident_over_object"] > 0

    def test_parts_can_be_skipped(self):
        scalar_only = servefarm_benchmark(
            n=16, k=2, scalar_m=40, farm_m=0, scalar_modes=("object",)
        )
        assert scalar_only["farm"]["shards"] == {}
        assert set(scalar_only["scalar"]["modes"]) == {"object"}
        assert "totals_match" not in scalar_only["scalar"]
        farm_only = servefarm_benchmark(
            n=16, k=2, scalar_m=0, farm_m=120, shard_counts=(1,), keys=2
        )
        assert farm_only["scalar"]["modes"] == {}
        assert set(farm_only["farm"]["shards"]) == {"1"}

    def test_bad_config_rejected(self):
        with pytest.raises(ExperimentError):
            servefarm_benchmark(n=16, repeats=0)
        with pytest.raises(ExperimentError):
            servefarm_benchmark(n=16, scalar_modes=("warp",))
        with pytest.raises(ExperimentError):
            servefarm_benchmark(n=16, shard_counts=())
        with pytest.raises(ExperimentError):
            servefarm_benchmark(n=16, keys=0)

    def test_record_writer_and_cli(self, tmp_path, capsys):
        out = tmp_path / "BENCH_servefarm.json"
        code = main(
            [
                "bench-servefarm",
                "-n", "16",
                "-k", "2",
                "--scalar-requests", "30",
                "--farm-requests", "80",
                "--shards", "1",
                "--keys", "2",
                "--modes", "object",
                "--output", str(out),
            ]
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert record["benchmark"] == "servefarm"
        assert json.loads(capsys.readouterr().out)["config"]["n"] == 16


class TestTrajectoryReport:
    def _write_records(self, directory):
        directory.mkdir(parents=True, exist_ok=True)
        write_record(
            {
                "benchmark": "demo",
                "speedup_fast_over_slow": 12.5,
                "totals_match": True,
                "nested": {
                    "requests_per_second": 1_500_000.0,
                    "latency_p99_seconds": 3.4e-5,
                    "summaries_match": False,
                },
            },
            directory / "BENCH_demo.json",
        )
        write_record(
            {"benchmark": "empty", "config": {"n": 4}},
            directory / "BENCH_empty.json",
        )

    def test_metric_and_check_extraction(self, tmp_path):
        self._write_records(tmp_path)
        records = load_benchmark_records(tmp_path)
        assert list(records) == ["BENCH_demo.json", "BENCH_empty.json"]
        demo = records["BENCH_demo.json"]
        metrics = dict(record_metrics(demo))
        assert metrics["speedup_fast_over_slow"] == "12.50x"
        assert metrics["nested.requests_per_second"] == "1.50M req/s"
        assert metrics["nested.latency_p99_seconds"] == "34.0 us"
        assert dict(record_checks(demo)) == {
            "totals_match": True,
            "nested.summaries_match": False,
        }

    def test_rendered_markdown(self, tmp_path):
        self._write_records(tmp_path)
        text = render_trajectory(tmp_path)
        assert text.startswith("# Performance trajectory")
        assert "| BENCH_demo.json | `nested.latency_p99_seconds` |" in text
        assert "(no trajectory metrics)" in text  # the empty record
        assert "- PASS `BENCH_demo.json` `totals_match`" in text
        assert "- **FAIL** `BENCH_demo.json` `nested.summaries_match`" in text

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            render_trajectory(tmp_path / "nope")

    def test_cli_bench_report(self, tmp_path, capsys):
        self._write_records(tmp_path / "results")
        out = tmp_path / "report.md"
        code = main(
            [
                "bench-report",
                "--results-dir", str(tmp_path / "results"),
                "-o", str(out),
            ]
        )
        # BENCH_demo.json carries a false nested check: report, then fail.
        assert code == 1
        assert out.read_text().startswith("# Performance trajectory")
        captured = capsys.readouterr()
        assert "12.50x" in captured.out
        assert "BENCH_demo.json nested.summaries_match" in captured.err
        (tmp_path / "results" / "BENCH_demo.json").unlink()
        assert main(["bench-report", "--results-dir", str(tmp_path / "results")]) == 0

    def test_repo_results_directory_renders(self):
        """The checked-in benchmarks/results records stay renderable."""
        text = render_trajectory()
        assert "BENCH_servefarm.json" in text
        assert "scaling_2_over_1" in text
        assert "**FAIL**" not in text
