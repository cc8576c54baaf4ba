"""The shared benchmark plumbing and the one record emitter behind the CLI."""

from __future__ import annotations

import json
import subprocess
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.experiments import benchkit
from repro.experiments.benchkit import (
    all_equal,
    best_of_interleaved,
    clean_totals,
    keyed_stream,
    provenance,
    write_record,
)
from repro.workloads.synthetic import zipf_trace

PROVENANCE_KEYS = {"git_sha", "dirty", "date", "python", "machine", "cpu_count"}

#: Every record command at toy scale (each run takes about a second).
RECORD_COMMANDS = {
    "bench-hotpath": ["-n", "24", "-k", "2", "-m", "120"],
    "bench-servefarm": [
        "-n", "16", "-k", "2", "--scalar-requests", "30",
        "--farm-requests", "80", "--shards", "1", "--keys", "2",
    ],
    "bench-ingress": [
        "-n", "16", "-k", "2", "-m", "120", "--keys", "2", "--shards", "1",
        "--concurrency", "16",
    ],
    "bench-store": ["--cells", "200", "--lookups", "3"],
    "bench-optimal": ["--scale", "smoke", "--quiet"],
}


class TestRecordCommands:
    @pytest.mark.parametrize("command", sorted(RECORD_COMMANDS))
    def test_emits_the_written_record_with_provenance(
        self, command, tmp_path, capsys
    ):
        out = tmp_path / "record.json"
        code = main([command, *RECORD_COMMANDS[command], "--output", str(out)])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(out.read_text())
        assert set(printed["provenance"]) == PROVENANCE_KEYS

    def test_false_nested_match_fails_the_run(self, monkeypatch, capsys):
        import repro.experiments.storebench as storebench

        monkeypatch.setattr(
            storebench,
            "results_store_benchmark",
            lambda **_: {
                "benchmark": "demo",
                "totals_match": True,
                "farm": {"shards": {"2": {"totals_match": False}}},
            },
        )
        assert main(["bench-store"]) == 1
        captured = capsys.readouterr()
        assert "farm.shards.2.totals_match" in captured.err
        assert captured.err.count("totals_match") == 1  # only the failing one
        assert json.loads(captured.out)["benchmark"] == "demo"


class TestBenchkit:
    def test_provenance_block(self):
        block = provenance()
        assert set(block) == PROVENANCE_KEYS
        assert block["git_sha"] is None or len(block["git_sha"]) == 40
        assert (block["dirty"] is None) == (block["git_sha"] is None)
        assert block["date"].endswith("+00:00")

    def test_write_record_stamps_once(self, tmp_path):
        record = {"benchmark": "demo", "provenance": {"pinned": True}}
        write_record(record, tmp_path / "a" / "pinned.json")
        loaded = json.loads((tmp_path / "a" / "pinned.json").read_text())
        assert loaded["provenance"] == {"pinned": True}
        bare = write_record({"benchmark": "demo"}, tmp_path / "bare.json")
        assert set(json.loads(bare.read_text())["provenance"]) == PROVENANCE_KEYS

    def test_provenance_marks_a_dirty_checkout(self, tmp_path, monkeypatch):
        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                cwd=tmp_path, check=True, capture_output=True,
            )

        monkeypatch.setattr(benchkit, "_PACKAGE_DIR", tmp_path)
        block = provenance()
        assert (block["git_sha"], block["dirty"]) == (None, None)
        git("init", "-q")
        (tmp_path / "tracked.txt").write_text("a\n")
        git("add", "tracked.txt")
        git("commit", "-q", "-m", "init")
        block = provenance()
        assert len(block["git_sha"]) == 40 and block["dirty"] is False
        (tmp_path / "untracked.txt").write_text("x\n")
        assert provenance()["dirty"] is False
        (tmp_path / "tracked.txt").write_text("b\n")
        dirty = provenance()
        assert (dirty["git_sha"], dirty["dirty"]) == (block["git_sha"], True)

    def test_best_of_interleaved_keeps_the_minimum(self, monkeypatch):
        clock = {"wall": 0.0, "cpu": 0.0}
        monkeypatch.setattr(
            benchkit,
            "time",
            SimpleNamespace(
                perf_counter=lambda: clock["wall"],
                process_time=lambda: clock["cpu"],
            ),
        )
        # (wall, cpu) per run; the best wall and best CPU of one subject
        # may come from different repeats.
        runs = {"a": iter([(3.0, 1.0), (1.0, 2.0)]), "b": iter([(2.0, 2.0)] * 2)}
        order = []

        def prepare(subject):
            order.append(subject)
            clock["wall"] += 100.0  # setup is never timed

            def run():
                wall, cpu = next(runs[subject])
                clock["wall"] += wall
                clock["cpu"] += cpu
                return len(order)

            return run

        best = best_of_interleaved(("a", "b"), 2, prepare)
        assert order == ["a", "b", "a", "b"]
        assert (best["a"].wall, best["a"].cpu, best["a"].result) == (1.0, 1.0, 3)
        assert (best["b"].wall, best["b"].cpu, best["b"].result) == (2.0, 2.0, 4)
        with pytest.raises(ExperimentError):
            best_of_interleaved(("a",), 0, prepare)

    def test_all_equal(self):
        assert all_equal([]) is None
        assert all_equal([(1, 2)]) is None
        assert all_equal([(1, 2), (1, 2), (1, 2)]) is True
        assert all_equal([[1, 2], [1, 3]]) is False

    def test_keyed_stream_and_clean_totals(self):
        trace = zipf_trace(16, 40, 1.2, 3)
        stream = keyed_stream(trace, 3)
        assert [key for key, _, _ in stream[:4]] == [
            "key-0", "key-1", "key-2", "key-0",
        ]
        assert [(u, v) for _, u, v in stream] == list(
            zip(trace.sources.tolist(), trace.targets.tolist())
        )
        totals = clean_totals(stream, "kary-splaynet", 16, 2)
        assert totals[0] == 40
        # Only the order within a key matters, not across keys.
        by_key = sorted(stream, key=lambda request: request[0])
        assert totals == clean_totals(by_key, "kary-splaynet", 16, 2)
