"""Smoke tests for the engine hot-path benchmark and its CLI subcommand."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.engine import native_available
from repro.errors import ExperimentError
from repro.experiments.benchkit import write_record
from repro.experiments.hotpath import (
    default_hotpath_engines,
    hotpath_benchmark,
)


class TestHotpathBenchmark:
    def test_tiny_run_shape_and_equivalence(self):
        result = hotpath_benchmark(n=32, k=3, m=250, seed=1)
        assert result["benchmark"] == "engine_hotpath"
        assert set(result["engines"]) == set(default_hotpath_engines())
        assert "object" in result["engines"]
        for engine, stats in result["engines"].items():
            assert stats["seconds"] > 0
            assert stats["cpu_seconds"] >= 0
            assert stats["requests_per_second"] > 0
            assert stats["total_routing"] > 0
        if native_available():
            assert "native" in result["engines"]
            # The benchmark doubles as an engine cross-check.
            assert result["totals_match"] is True
            assert result["speedup_native_over_object"] > 0
            assert result["speedup_native_over_object_wall"] > 0
        else:
            assert "totals_match" not in result

    def test_engine_subset_selection(self):
        result = hotpath_benchmark(n=24, k=2, m=120, engines=("object",))
        assert set(result["engines"]) == {"object"}
        assert "totals_match" not in result
        assert "speedup_native_over_object" not in result

    def test_interleaved_repeats_keep_best(self):
        result = hotpath_benchmark(n=24, k=2, m=120, repeats=2)
        assert result["config"]["repeats"] == 2
        assert result["config"]["interleaved"] is True
        assert result.get("totals_match", True) is True

    def test_centroid_network_variant(self):
        result = hotpath_benchmark(n=30, k=2, m=150, network="centroid-splaynet")
        if native_available():
            assert result["totals_match"] is True
        else:
            assert "totals_match" not in result

    def test_bad_config_rejected(self):
        with pytest.raises(ExperimentError):
            hotpath_benchmark(n=16, k=2, m=50, repeats=0)
        with pytest.raises(ExperimentError):
            hotpath_benchmark(n=16, k=2, m=50, network="nope")
        with pytest.raises(ExperimentError):
            hotpath_benchmark(n=16, k=2, m=50, engines=())
        with pytest.raises(ExperimentError):
            hotpath_benchmark(n=16, k=2, m=50, engines=("warp",))

    def test_native_request_honest_when_unavailable(self, monkeypatch):
        """Requesting the native engine without a kernel must error, not
        silently record a mislabeled object measurement."""
        from repro.core import _native

        monkeypatch.setenv("REPRO_NATIVE", "0")
        _native._reset_for_tests()
        try:
            with pytest.raises(ExperimentError, match="unavailable"):
                hotpath_benchmark(n=16, k=2, m=50, engines=("native",))
            assert default_hotpath_engines() == ("object",)
        finally:
            _native._reset_for_tests()

    def test_record_writer(self, tmp_path):
        result = hotpath_benchmark(n=16, k=2, m=80)
        out = write_record(result, tmp_path / "rec" / "bench.json")
        loaded = json.loads(out.read_text())
        assert loaded["config"]["n"] == 16


class TestBenchHotpathCli:
    def test_cli_emits_json(self, capsys, tmp_path):
        out_path = tmp_path / "hotpath.json"
        rc = main(
            [
                "bench-hotpath",
                "-n", "24",
                "-k", "2",
                "-m", "120",
                "--output", str(out_path),
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["n"] == 24
        if native_available():
            assert payload["totals_match"] is True
        else:
            assert "totals_match" not in payload
        assert json.loads(out_path.read_text()) == payload

    def test_cli_engine_selection(self, capsys):
        rc = main(
            [
                "bench-hotpath",
                "-n", "20",
                "-k", "2",
                "-m", "80",
                "--engines", "object",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["engines"]) == {"object"}
