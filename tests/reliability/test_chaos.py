"""The chaos soak harness: schedule determinism plus one live mini-soak.

The deterministic tests pin the pieces the reproducibility story depends
on (the per-key lanes, contiguous round slicing, the seeded fault
schedule).  The live test is a miniature of the CI soak: a real ``repro
serve`` subprocess, every shard SIGKILLed under concurrent client load
plus injected ingress/farm faults, gated on the end-state invariants.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.errors import ReliabilityError
from repro.reliability.chaos import (
    ChaosConfig,
    _keyed_lanes,
    _kill_and_observe,
    _round_slice,
    _storm_plan,
    run_chaos,
)


class TestChaosConfig:
    def test_validation(self):
        with pytest.raises(ReliabilityError):
            ChaosConfig(rounds=0)
        with pytest.raises(ReliabilityError):
            ChaosConfig(shards=0)
        with pytest.raises(ReliabilityError):
            ChaosConfig(keys=10, requests_per_round=5)
        with pytest.raises(ReliabilityError):
            ChaosConfig(faults_per_point=-1)


class TestDeterminism:
    def test_lanes_are_seed_stable_and_cover_the_stream(self):
        config = ChaosConfig(keys=4, rounds=2, requests_per_round=40, seed=7)
        lanes = _keyed_lanes(config)
        assert lanes == _keyed_lanes(config)
        assert sorted(lanes) == [f"key-{i}" for i in range(4)]
        assert sum(len(pairs) for pairs in lanes.values()) == 80
        other = _keyed_lanes(
            ChaosConfig(keys=4, rounds=2, requests_per_round=40, seed=8)
        )
        assert other != lanes

    def test_round_slices_partition_in_order(self):
        pairs = [(i, i) for i in range(10)]
        slices = [_round_slice(pairs, rnd, 3) for rnd in range(3)]
        assert slices[0] == pairs[0:3]
        assert slices[1] == pairs[3:6]
        assert slices[2] == pairs[6:10]  # the last round takes the tail
        assert [p for s in slices for p in s] == pairs

    def test_storm_plan_is_seeded_and_ledger_backed(self, tmp_path):
        config = ChaosConfig(seed=3)
        plan = _storm_plan(config, ledger=str(tmp_path / "ledger"))
        again = _storm_plan(config, ledger=str(tmp_path / "ledger"))
        assert [s.to_dict() for s in plan.specs] == [
            s.to_dict() for s in again.specs
        ]
        assert plan.ledger is not None
        assert {s.point for s in plan.specs} == {
            "ingress.accept",
            "ingress.dispatch",
            "farm.serve",
        }
        for spec in plan.specs:
            assert spec.mode == "error"
            assert len(spec.at) == config.faults_per_point
            assert all(i >= 2 for i in spec.at)
        differently = _storm_plan(
            ChaosConfig(seed=4), ledger=str(tmp_path / "ledger")
        )
        assert [s.to_dict() for s in differently.specs] != [
            s.to_dict() for s in plan.specs
        ]


class TestRoundDiagnostics:
    def test_unrecovered_round_keeps_the_last_shard_row(self):
        """A shard that never comes back: the round record says how it
        was last seen, so a failed soak shows a spent respawn budget
        apart from a slow recovery."""
        victim = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"]
        )

        class NeverRecovers:
            def __init__(self):
                self.rows = iter(
                    [{"shard": 1, "health": "healthy", "recoveries": 3,
                      "pid": victim.pid},
                     {"shard": 1, "health": "suspect", "recoveries": 3,
                      "pid": victim.pid}]
                )

            def metrics(self):
                row = next(self.rows, {"shard": 1, "health": "down",
                                       "recoveries": 3, "pid": victim.pid})
                return {"shards": [{"shard": 0, "health": "healthy",
                                    "recoveries": 0, "pid": 1}, row]}

        try:
            record = _kill_and_observe(
                NeverRecovers(), 1, ChaosConfig(recovery_timeout=0.2)
            )
        finally:
            victim.kill()
            victim.wait(timeout=10)
        assert victim.returncode == -9  # the round's SIGKILL landed
        assert record["recovered"] is False
        assert record["new_pid"] is None
        assert record["time_to_detect_seconds"] is not None
        assert record["last_seen"] == {
            "health": "down", "recoveries": 3, "pid": victim.pid
        }


class TestLiveSoak:
    def test_mini_soak_passes_all_invariants(self):
        """Every shard killed once under load; invariants hold at drain."""
        report = run_chaos(
            ChaosConfig(
                n=64,
                keys=4,
                shards=2,
                rounds=2,
                requests_per_round=120,
                seed=11,
                checkpoint_every=32,
            )
        )
        assert report["rounds_survived"] == 2, report["rounds"]
        killed = {r["victim_shard"] for r in report["rounds"]}
        assert killed == {0, 1}  # round-robin reached every shard
        assert report["totals_match"], (
            report["clean_totals"],
            report["observed_totals"],
        )
        assert report["no_dropped_requests"], (
            report["lane_failures"],
            report["server"],
        )
        assert report["all_shards_healthy"], report["final_shards"]
        assert report["clean_exit"]
        assert report["passed"]
        assert report["mean_time_to_recover_seconds"] < 10.0
        for rnd in report["rounds"]:
            assert rnd["new_pid"] != rnd["old_pid"]
            assert rnd["last_seen"] is None
