"""Serve-farm fault tolerance: killed shard workers respawn and replay.

The satellite reliability gate of the serve farm: a worker hard-exiting
mid-campaign (``farm.serve`` injection point, ``kill`` mode — a SIGKILL
stand-in) costs one respawn and zero correctness.  The respawned worker
rebuilds its sessions by replaying the parent's journal of acknowledged
batches, so the campaign's results are cell-for-cell identical to a run
with no fault at all.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ReliabilityError
from repro.net import open_session
from repro.serving import ServeFarm
from repro.reliability.faults import (
    FAULTS_ENV,
    FaultPlan,
    FaultSpec,
    clear_fault_plan,
)


def keyed_requests(n: int, m: int, keys: int, seed: int = 0):
    rng = random.Random(seed)
    return [
        (
            f"key-{i % keys}",
            rng.randrange(1, n + 1),
            rng.randrange(1, n + 1),
        )
        for i in range(m)
    ]


def per_key_pairs(requests):
    split: dict = {}
    for key, u, v in requests:
        split.setdefault(key, []).append((u, v))
    return split


def _activate_for_workers(plan: FaultPlan) -> None:
    """Publish a plan the way worker processes see it: via the env."""
    os.environ[FAULTS_ENV] = plan.to_env()
    clear_fault_plan()


def _clean_run(requests, n, k):
    clean = {}
    for key, pairs in per_key_pairs(requests).items():
        session = open_session("kary-splaynet", n=n, k=k)
        session.serve_stream(pairs)
        clean[key] = session.metrics.to_dict()
    return clean


class TestWorkerKillRecovery:
    def test_killed_shard_respawns_and_results_match_clean_run(
        self, tmp_path
    ):
        """A worker killed mid-campaign is respawned, its journal replayed,
        and every per-key result equals the fault-free run cell for cell.

        The ledger makes the kill one-shot: the claim file outlives the
        dead worker, so neither the respawned worker's journal replay nor
        the re-sent in-flight window re-fires it.
        """
        n, k = 40, 3
        requests = keyed_requests(n, 600, keys=6, seed=3)
        plan = FaultPlan(
            specs=(FaultSpec("farm.serve", mode="kill", at=(3,)),),
            ledger=str(tmp_path / "ledger"),
        )
        _activate_for_workers(plan)
        try:
            with ServeFarm(
                "kary-splaynet", n=n, k=k, shards=2, window=100
            ) as farm:
                batch = farm.serve_stream(requests)
                assert farm.respawns == 1
                farm_metrics = farm.session_metrics()
                aggregate = farm.metrics.to_dict()
        finally:
            os.environ.pop(FAULTS_ENV, None)
            clear_fault_plan()

        assert batch.m == 600
        clean = _clean_run(requests, n, k)
        assert farm_metrics == clean
        # The aggregate counted every request exactly once (no replay
        # double counting, no lost in-flight window).
        assert aggregate == {
            "requests": 600,
            "total_routing": sum(m["total_routing"] for m in clean.values()),
            "total_rotations": sum(
                m["total_rotations"] for m in clean.values()
            ),
            "total_links_changed": sum(
                m["total_links_changed"] for m in clean.values()
            ),
        }

    @pytest.mark.parametrize("checkpoint_every", [None, 40])
    def test_packed_dispatch_survives_a_kill_mid_stream(
        self, tmp_path, checkpoint_every
    ):
        """Grouped dispatches of array entries (the gateway's path) with a
        worker killed on the third window: the respawned worker rebuilds
        from the packed journal — snapshots plus the uncovered suffix
        when checkpointing — and every per-entry answer and per-key
        total equals a clean run."""
        import numpy as np

        n, k = 40, 3
        rng = random.Random(9)
        windows = []
        for _ in range(6):
            window = []
            for _ in range(rng.randrange(2, 7)):
                m = rng.choice((1, 7, 64))
                window.append(
                    (
                        f"key-{rng.randrange(4)}",
                        np.array(
                            [rng.randrange(1, n + 1) for _ in range(m)],
                            dtype=">u4",
                        ),
                        [rng.randrange(1, n + 1) for _ in range(m)],
                    )
                )
            windows.append(window)
        plan = FaultPlan(
            specs=(FaultSpec("farm.serve", mode="kill", at=(3,)),),
            ledger=str(tmp_path / "ledger"),
        )
        _activate_for_workers(plan)
        try:
            with ServeFarm(
                "kary-splaynet",
                n=n,
                k=k,
                shards=1,
                checkpoint_every=checkpoint_every,
            ) as farm:
                answers = [
                    (r.m, r.total_routing, r.total_rotations,
                     r.total_links_changed)
                    for window in windows
                    for r in farm.serve_grouped(0, window)
                ]
                assert farm.respawns == 1
                farm_metrics = farm.session_metrics()
                replayed = farm.replayed_requests
        finally:
            os.environ.pop(FAULTS_ENV, None)
            clear_fault_plan()

        sessions: dict = {}
        clean_answers = []
        for window in windows:
            for key, sources, targets in window:
                session = sessions.setdefault(
                    key, open_session("kary-splaynet", n=n, k=k)
                )
                batch = session.serve_stream(sources.tolist(), targets)
                clean_answers.append(
                    (batch.m, batch.total_routing, batch.total_rotations,
                     batch.total_links_changed)
                )
        assert answers == clean_answers
        assert farm_metrics == {
            key: session.metrics.to_dict()
            for key, session in sessions.items()
        }
        served_before_kill = sum(len(s) for _, s, _ in windows[0] + windows[1])
        if checkpoint_every is None:
            assert replayed == served_before_kill
        else:
            # Only each key's suffix past its last snapshot replays.
            assert replayed < served_before_kill

    def test_crash_loop_exhausts_respawn_budget(self, tmp_path):
        """A shard that dies on every attempt becomes a loud
        ReliabilityError once max_respawns is spent, not a hang."""
        plan = FaultPlan(
            specs=(FaultSpec("farm.serve", mode="kill", at=(1, 2, 3, 4)),),
            ledger=str(tmp_path / "ledger"),
        )
        _activate_for_workers(plan)
        try:
            with ServeFarm(
                "kary-splaynet", n=16, k=2, shards=1, max_respawns=1
            ) as farm:
                with pytest.raises(ReliabilityError, match="gave up"):
                    farm.serve("a", 1, 9)
                assert farm.respawns == 2  # budget + the failed attempt
        finally:
            os.environ.pop(FAULTS_ENV, None)
            clear_fault_plan()

    def test_injected_error_is_relayed_not_fatal(self, tmp_path):
        """``error`` mode surfaces as ReliabilityError in the parent while
        the worker survives and keeps serving."""
        plan = FaultPlan(
            specs=(FaultSpec("farm.serve", mode="error", at=(1,)),),
            ledger=str(tmp_path / "ledger"),
        )
        _activate_for_workers(plan)
        try:
            with ServeFarm("kary-splaynet", n=16, k=2, shards=1) as farm:
                with pytest.raises(ReliabilityError, match="FaultInjected"):
                    farm.serve("a", 1, 9)
                assert farm.respawns == 0
                farm.serve("a", 1, 9)  # same worker, still alive
                assert farm.metrics.requests == 1
        finally:
            os.environ.pop(FAULTS_ENV, None)
            clear_fault_plan()


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie awaiting its reaper counts as dead)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to a signal-0 probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestFarmProcessDeath:
    def test_workers_exit_when_the_farm_process_dies_without_close(self):
        """A farm process killed without ``close()`` (a ``kill`` fault's
        hard exit, an OOM kill) must not leave its workers running."""
        script = (
            "import os\n"
            "from repro.serving import ServeFarm\n"
            "farm = ServeFarm('kary-splaynet', n=16, k=2, shards=2)\n"
            "farm.serve('a', 1, 9)\n"
            "print(*farm.shard_pids(), flush=True)\n"
            "os._exit(0)\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        # Read one line and wait for the exit, never for stdout EOF: a
        # leaked worker would hold the pipe open.
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            assert proc.wait(timeout=60) == 0
        finally:
            proc.stdout.close()
        assert len(pids) == 2
        deadline = time.monotonic() + 10.0
        while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        leaked = [pid for pid in pids if _alive(pid)]
        for pid in leaked:  # never leave them behind, even on failure
            os.kill(pid, signal.SIGKILL)
        assert leaked == []
