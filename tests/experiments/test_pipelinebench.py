"""Smoke tests for the reproduce-pipeline benchmark and its CLI subcommand."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.engine import native_available
from repro.errors import ExperimentError
from repro.experiments.benchkit import write_record
from repro.experiments.pipelinebench import reproduce_pipeline_benchmark


class TestReproducePipelineBenchmark:
    def test_smoke_run_shape_and_equivalence(self):
        from repro.experiments.hotpath import default_hotpath_engines

        record = reproduce_pipeline_benchmark("smoke", tables=(6,), repeats=1)
        assert record["benchmark"] == "reproduce_pipeline"
        assert set(record["engines"]) == set(default_hotpath_engines())
        assert "object" in record["engines"]
        for stats in record["engines"].values():
            assert stats["cpu_seconds"] > 0
            assert stats["wall_seconds"] > 0
        if native_available():
            # The benchmark doubles as a pipeline-scale engine cross-check.
            assert record["summaries_match"] is True
            assert record["speedup_native_over_object"] > 0
        else:
            assert "summaries_match" not in record

    def test_bad_repeats_rejected(self):
        with pytest.raises(ExperimentError):
            reproduce_pipeline_benchmark("smoke", tables=(6,), repeats=0)

    def test_unknown_or_empty_tables_rejected(self):
        with pytest.raises(ExperimentError):
            reproduce_pipeline_benchmark("smoke", tables=(8,))
        with pytest.raises(ExperimentError):
            reproduce_pipeline_benchmark("smoke", tables=())

    def test_cli_rejects_unknown_table_cleanly(self, capsys):
        rc = main(["bench-pipeline", "--scale", "smoke", "--tables", "9"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_record_writer(self, tmp_path):
        record = reproduce_pipeline_benchmark(
            "smoke", tables=(7,), repeats=1, engines=("object",)
        )
        out = write_record(record, tmp_path / "rec" / "bench.json")
        loaded = json.loads(out.read_text())
        assert loaded["config"]["scale"] == "smoke"
        assert loaded["config"]["tables"] == [7]


class TestBenchPipelineCli:
    def test_cli_emits_json_and_record(self, capsys, tmp_path):
        out_path = tmp_path / "pipeline.json"
        rc = main(
            [
                "bench-pipeline",
                "--scale", "smoke",
                "--tables", "6",
                "--repeats", "1",
                "--quiet",
                "--output", str(out_path),
            ]
        )
        assert rc == 0
        record = json.loads(out_path.read_text())
        if native_available():
            assert record["summaries_match"] is True
            assert "speedup_native_over_object" in record
        else:
            assert "summaries_match" not in record
