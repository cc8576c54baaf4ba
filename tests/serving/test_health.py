"""Health supervision: the monitor state machine and the live supervisor.

Two layers, two speeds of test.  The :class:`HealthMonitor` state machine
runs under a fake clock (pure, exhaustive on the escalation deadlines);
the supervised-farm tests kill a real worker process and pin the
self-healing acceptance criteria: detection fires *before* any dispatch
has to fail, and warm-standby recovery replays at most
``checkpoint_every`` requests per key.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.errors import ExperimentError
from repro.net import open_session
from repro.serving import (
    DOWN,
    HEALTHY,
    RECOVERING,
    SUSPECT,
    HealthConfig,
    HealthMonitor,
    ServeFarm,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def monitor(shards: int = 2, **kwargs) -> tuple[HealthMonitor, FakeClock]:
    clock = FakeClock()
    config = HealthConfig(
        interval=0.1, suspect_after=0.5, down_after=1.0, **kwargs
    )
    return HealthMonitor(shards, config, clock=clock), clock


class TestHealthConfig:
    def test_deadlines_must_escalate(self):
        with pytest.raises(ExperimentError):
            HealthConfig(interval=0.0)
        with pytest.raises(ExperimentError):
            HealthConfig(interval=0.5, suspect_after=0.5)
        with pytest.raises(ExperimentError):
            HealthConfig(interval=0.1, suspect_after=0.5, down_after=0.5)


class TestHealthMonitor:
    def test_starts_all_healthy(self):
        mon, _ = monitor()
        assert mon.states() == [HEALTHY, HEALTHY]
        assert mon.all_healthy()

    def test_silence_escalates_suspect_then_down(self):
        mon, clock = monitor()
        clock.advance(0.6)  # past suspect_after, short of down_after
        assert mon.observe() == []
        assert mon.state_of(0) == SUSPECT
        clock.advance(0.5)  # now past down_after
        assert mon.observe() == [0, 1]
        assert mon.states() == [DOWN, DOWN]
        # Already-down shards are not re-announced.
        clock.advance(1.0)
        assert mon.observe() == []

    def test_beat_heals_a_suspect_shard(self):
        mon, clock = monitor()
        clock.advance(0.6)
        mon.observe()
        assert mon.state_of(0) == SUSPECT
        assert mon.record_beat(0) == SUSPECT
        assert mon.state_of(0) == HEALTHY

    def test_beat_does_not_heal_down_or_recovering(self):
        # Only the farm's recovery path (mark) may end DOWN/RECOVERING:
        # a late beat from a half-dead worker must not fake a recovery.
        mon, clock = monitor()
        clock.advance(1.1)
        mon.observe()
        assert mon.state_of(0) == DOWN
        mon.record_beat(0)
        assert mon.state_of(0) == DOWN
        mon.mark(0, RECOVERING)
        mon.record_beat(0)
        assert mon.state_of(0) == RECOVERING
        mon.mark(0, HEALTHY)
        assert mon.state_of(0) == HEALTHY

    def test_transitions_are_recorded_as_events(self):
        mon, clock = monitor(shards=1)
        clock.advance(0.6)
        mon.observe()
        clock.advance(0.5)
        mon.observe()
        mon.mark(0, RECOVERING)
        mon.mark(0, HEALTHY)
        chain = [(old, new) for _, _, old, new in mon.events]
        assert chain == [
            (HEALTHY, SUSPECT),
            (SUSPECT, DOWN),
            (DOWN, RECOVERING),
            (RECOVERING, HEALTHY),
        ]

    def test_mark_rejects_unknown_state_and_shard(self):
        mon, _ = monitor()
        with pytest.raises(ExperimentError):
            mon.mark(0, "zombie")
        with pytest.raises(ExperimentError):
            mon.mark(7, HEALTHY)

    def test_snapshot_reports_silence(self):
        mon, clock = monitor(shards=1)
        clock.advance(0.3)
        snap = mon.snapshot()
        assert snap["states"] == [HEALTHY]
        assert snap["silence"][0] == pytest.approx(0.3)


FAST_HEALTH = HealthConfig(
    interval=0.05, suspect_after=0.2, down_after=0.6
)


def _wait_for(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestSupervisedFarm:
    def test_kill_is_detected_and_healed_before_any_dispatch(self):
        """The tentpole acceptance: proactive recovery, zero dispatch errors.

        The worker is SIGKILLed while the farm is *idle*.  Supervision
        must notice (heartbeat-pipe EOF), respawn and heal the shard with
        no dispatch ever touching the dead pipe — so the recovery counts
        as proactive, and the next serve call succeeds first try.
        """
        with ServeFarm(
            "kary-splaynet", n=32, k=2, shards=1, health=FAST_HEALTH
        ) as farm:
            farm.serve_batch("a", [1, 2, 3], [9, 8, 7])
            old_pid = farm.shard_pids()[0]
            os.kill(old_pid, signal.SIGKILL)
            assert _wait_for(
                lambda: farm.recoveries["proactive"] == 1
                and farm.health_states() == [HEALTHY]
            ), f"no proactive recovery; states={farm.health_states()}"
            assert farm.recoveries["reactive"] == 0
            assert farm.shard_pids()[0] != old_pid
            # The healed worker serves immediately and the replayed
            # state is exact: same totals as an unkilled session.
            farm.serve_batch("a", [4, 5], [6, 5])
            clean = open_session("kary-splaynet", n=32, k=2)
            clean.serve_stream([1, 2, 3, 4, 5], [9, 8, 7, 6, 5])
            assert farm.session_metrics()["a"] == clean.metrics.to_dict()

    def test_health_event_chain_spans_the_recovery(self):
        with ServeFarm(
            "kary-splaynet", n=32, k=2, shards=1, health=FAST_HEALTH
        ) as farm:
            farm.serve("a", 1, 9)
            os.kill(farm.shard_pids()[0], signal.SIGKILL)
            assert _wait_for(lambda: farm.recoveries["proactive"] == 1)
            chain = [(old, new) for _, shard, old, new in farm.health.events]
            assert (HEALTHY, DOWN) in chain or (SUSPECT, DOWN) in chain
            assert (DOWN, RECOVERING) in chain
            assert (RECOVERING, HEALTHY) in chain

    def test_warm_standby_bounds_replay_to_checkpoint_cadence(self):
        """With checkpoint_every=N, recovery replays at most N per key."""
        checkpoint_every = 8
        with ServeFarm(
            "kary-splaynet",
            n=32,
            k=2,
            shards=1,
            health=FAST_HEALTH,
            checkpoint_every=checkpoint_every,
        ) as farm:
            sources = [1 + (i % 31) for i in range(40)]
            targets = [1 + ((i * 7) % 31) for i in range(40)]
            farm.serve_batch("a", sources, targets)
            os.kill(farm.shard_pids()[0], signal.SIGKILL)
            assert _wait_for(lambda: farm.recoveries["proactive"] == 1)
            # 40 requests served, snapshots every 8: the journal suffix
            # past the last checkpoint is all that replays.
            assert farm.replayed_requests <= checkpoint_every
            farm.serve_batch("a", [3, 4], [30, 29])
            clean = open_session("kary-splaynet", n=32, k=2)
            clean.serve_stream(sources + [3, 4], targets + [30, 29])
            assert farm.session_metrics()["a"] == clean.metrics.to_dict()

    def test_reactive_replay_absorbs_a_death_the_supervisor_missed(
        self, monkeypatch
    ):
        with ServeFarm("kary-splaynet", n=32, k=2, shards=1) as farm:
            # A dispatch can reach a dead worker before the supervisor
            # respawns it; model that race by keeping the supervisor
            # from ever respawning.
            monkeypatch.setattr(farm, "_proactive_respawn", lambda shard: None)
            farm.serve("a", 1, 9)
            old_pid = farm.shard_pids()[0]
            os.kill(old_pid, signal.SIGKILL)
            # The death surfaces on the next dispatch and the reactive
            # replay path absorbs it.
            farm.serve("a", 2, 8)
            assert farm.recoveries == {"proactive": 0, "reactive": 1}
            assert farm.shard_pids()[0] != old_pid
