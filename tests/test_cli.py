"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.workloads.io import load_trace_csv, save_trace_csv
from repro.workloads.synthetic import zipf_trace


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.csv"
    save_trace_csv(zipf_trace(30, 800, 1.3, seed=1), path)
    return str(path)


class TestGen:
    @pytest.mark.parametrize(
        "kind",
        ["uniform", "temporal", "zipf", "hpc", "elephant-mice", "markov", "shuffle"],
    )
    def test_generates_loadable_csv(self, kind, tmp_path, capsys):
        out = tmp_path / "t.csv"
        rc = main(
            ["gen", kind, str(out), "-n", "40", "-m", "500", "-p", "0.5"]
        )
        assert rc == 0
        assert "wrote 500 requests" in capsys.readouterr().out
        assert load_trace_csv(out).m == 500

    def test_generates_npz(self, tmp_path):
        out = tmp_path / "t.npz"
        assert main(["gen", "uniform", str(out), "-n", "20", "-m", "100"]) == 0
        from repro.workloads.io import load_trace_npz

        assert load_trace_npz(out).m == 100


class TestStats:
    def test_prints_fingerprint(self, trace_file, capsys):
        assert main(["stats", trace_file]) == 0
        out = capsys.readouterr().out
        assert "repeat=" in out and "n=30" in out


class TestSimulate:
    @pytest.mark.parametrize(
        "network",
        ["ksplaynet", "centroid-splaynet", "splaynet", "full-tree",
         "centroid-tree", "optimal-tree", "lazy"],
    )
    def test_every_network_runs(self, network, trace_file, capsys):
        rc = main(["simulate", trace_file, network, "-k", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "routing-only cost" in out

    def test_loads_npz_traces(self, tmp_path, capsys):
        from repro.workloads.io import save_trace_npz

        path = tmp_path / "t.npz"
        save_trace_npz(zipf_trace(20, 300, 1.2, seed=2), path)
        assert main(["simulate", str(path), "ksplaynet"]) == 0


class TestOptimal:
    def test_prints_cost_and_tree(self, trace_file, capsys):
        rc = main(["optimal", trace_file, "-k", "2", "--show"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total distance" in out
        assert "r=[" in out  # rendered tree


class TestComplexity:
    def test_prints_map_coordinates(self, trace_file, capsys):
        assert main(["complexity", trace_file]) == 0
        out = capsys.readouterr().out
        assert "spatial=" in out and "temporal=" in out

    def test_window_flag(self, trace_file, capsys):
        assert main(["complexity", trace_file, "--window", "32"]) == 0
        assert "recurrence=" in capsys.readouterr().out


class TestFigures:
    def test_renders_all(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 9):
            assert f"figure{i}" in out

    def test_renders_subset(self, capsys):
        assert main(["figures", "figure1", "figure7"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out and "figure7" in out
        assert "figure5" not in out

    def test_unknown_figure(self, capsys):
        assert main(["figures", "figure99"]) == 2
        assert "error:" in capsys.readouterr().err


class TestReproduceJobs:
    def test_jobs_flag_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        rc = main(["reproduce", "--scale", "smoke", "--quiet", "--jobs", "1"])
        assert rc == 0
        assert "Table" in capsys.readouterr().out

    def test_engine_flag_accepted(self, capsys):
        rc = main(
            ["reproduce", "--scale", "smoke", "--quiet", "--engine", "object"]
        )
        assert rc == 0
        assert "Table" in capsys.readouterr().out


class TestScenarios:
    def test_list_names_every_table(self, capsys):
        assert main(["scenarios", "list", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "table7", "table8", "remark10", "all"):
            assert name in out

    def test_run_prints_cells(self, capsys):
        rc = main(["scenarios", "run", "table4", "--scale", "smoke"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kary-splaynet" in out and "optimal-tree" in out
        assert "9 cells" in out

    def test_run_streams_jsonl(self, tmp_path, capsys):
        out_path = tmp_path / "cells.jsonl"
        rc = main(
            ["scenarios", "run", "remark10", "--scale", "smoke",
             "--output", str(out_path)]
        )
        assert rc == 0
        from repro.scenarios import read_results_jsonl

        results = read_results_jsonl(out_path)
        assert len(results) == 144
        assert all(r.spec.kind == "analytic" for r in results)

    def test_export_round_trips(self, tmp_path, capsys):
        out_path = tmp_path / "new" / "dir" / "specs.json"
        rc = main(
            ["scenarios", "export", "table8", "--scale", "smoke",
             "-o", str(out_path)]
        )
        assert rc == 0
        from repro.scenarios import expand, specs_from_json
        from repro.experiments.presets import SMOKE

        assert specs_from_json(out_path.read_text()) == expand("table8", SMOKE)

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["scenarios", "run", "table99", "--scale", "smoke"]) == 2
        assert "error:" in capsys.readouterr().err


class TestServeValidation:
    """Bad `repro serve` flags must be one clear error line and exit 2 —
    never a traceback from inside multiprocessing or asyncio."""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["serve", "--shards", "0"], "--shards must be >= 1"),
            (["serve", "--shards", "-3"], "--shards must be >= 1"),
            (["serve", "--port", "70000"], "--port must be in 0..65535"),
            (["serve", "--port", "-1"], "--port must be in 0..65535"),
            (["serve", "-n", "1"], "--nodes must be >= 2"),
            (["serve", "--batch-max", "0"], "--batch-max must be >= 1"),
        ],
    )
    def test_bad_flag_is_one_clear_error_line(self, argv, needle, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert needle in err
        assert "Traceback" not in err

    def test_non_integer_flag_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--shards", "two"])
        assert excinfo.value.code == 2


class TestErrors:
    def test_repro_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# empty\n")
        assert main(["stats", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
