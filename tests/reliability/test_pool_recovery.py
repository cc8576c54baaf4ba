"""Pool hardening under injected failure: kills, retries, timeouts."""

from __future__ import annotations

import os
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ExperimentError, FaultInjected, ReliabilityError
from repro.parallel import pool as pool_module
from repro.parallel.pool import (
    ParallelConfig,
    parallel_map,
    parallel_map_outcomes,
)
from repro.reliability.faults import (
    FAULTS_ENV,
    FaultPlan,
    FaultSpec,
    clear_fault_plan,
)


def _double(x: int) -> int:
    return 2 * x


def _sleepy(item) -> str:
    name, seconds = item
    time.sleep(seconds)
    return name


def _activate_for_workers(plan: FaultPlan) -> None:
    """Publish a plan the way a pooled campaign sees it: via the env.

    Worker processes inherit ``REPRO_FAULTS`` (and the parent adopts it
    lazily too), so the identical plan replays in every process.
    """
    os.environ[FAULTS_ENV] = plan.to_env()
    clear_fault_plan()  # forget any installed plan; re-examine the env


class TestWorkerKillRecovery:
    def test_killed_worker_respawns_and_campaign_completes(self, tmp_path):
        """A worker hard-exiting mid-task costs one respawn, not the run.

        The ledger makes the kill one-shot: the claim file outlives the
        dead worker, so the resubmitted chunk does not re-fire it.
        """
        plan = FaultPlan(
            specs=(FaultSpec("pool.task", mode="kill", at=(1,)),),
            ledger=str(tmp_path / "ledger"),
        )
        _activate_for_workers(plan)
        config = ParallelConfig(
            jobs=2, on_error="collect", retries=1, backoff=0.0
        )
        outcomes = parallel_map_outcomes(_double, list(range(8)), config=config)
        assert [o.ok for o in outcomes] == [True] * 8
        assert [o.value for o in outcomes] == [2 * i for i in range(8)]
        # The chunk whose worker died was charged a retry attempt.
        assert max(o.attempts for o in outcomes) == 2

    def test_respawn_budget_exhaustion_is_a_reliability_error(self, tmp_path):
        """Every invocation kills its worker; the pool must give up loudly."""
        plan = FaultPlan(
            specs=(FaultSpec("pool.task", mode="kill", at=tuple(range(1, 50))),),
            ledger=str(tmp_path / "ledger"),
        )
        _activate_for_workers(plan)
        config = ParallelConfig(
            jobs=2,
            on_error="collect",
            retries=10,
            backoff=0.0,
            pool_respawns=2,
        )
        with pytest.raises(ReliabilityError, match="gave up after 2 respawn"):
            parallel_map_outcomes(_double, list(range(8)), config=config)

    def test_raise_mode_without_retry_surfaces_the_crash(self, tmp_path):
        plan = FaultPlan(
            specs=(FaultSpec("pool.task", mode="kill", at=(1,)),),
            ledger=str(tmp_path / "ledger"),
        )
        _activate_for_workers(plan)
        config = ParallelConfig(jobs=2, retries=0)
        with pytest.raises(ExperimentError, match="failed after 1 attempt"):
            parallel_map(_double, list(range(8)), config=config)


def _breaking_executor(monkeypatch, *, hold_first: bool) -> dict:
    """Swap the pool's executor for an inline one that breaks once.

    Chunks run at submit time.  The second submit of the run finds the
    executor broken, as after a worker died between two submits: it
    raises ``BrokenProcessPool``, and so does every later submit to that
    executor.  With ``hold_first`` the first chunk's future stays pending
    until the break and then fails with it, like a chunk in flight on the
    dead pool.  Returns the counters the tests read.
    """
    log = {"executors": 0, "submits": 0}

    class BreakingExecutor:
        def __init__(self, max_workers):
            log["executors"] += 1
            self.broken = False
            self.held: list[Future] = []

        def submit(self, fn, *args):
            log["submits"] += 1
            if self.broken or log["submits"] == 2:
                self.broken = True
                for future in self.held:
                    future.set_exception(BrokenProcessPool("worker died"))
                self.held.clear()
                raise BrokenProcessPool("executor is broken")
            future: Future = Future()
            if hold_first and log["submits"] == 1:
                self.held.append(future)
            else:
                future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(pool_module, "ProcessPoolExecutor", BreakingExecutor)
    return log


class TestBrokenPoolOnSubmit:
    """``submit`` itself raising ``BrokenProcessPool`` is a pool crash."""

    def test_nothing_in_flight_respawns_without_charging(self, monkeypatch):
        log = _breaking_executor(monkeypatch, hold_first=False)
        config = ParallelConfig(jobs=2, max_pending=1, on_error="collect")
        outcomes = parallel_map_outcomes(_double, list(range(4)), config=config)
        assert [o.value for o in outcomes] == [0, 2, 4, 6]
        assert [o.attempts for o in outcomes] == [1, 1, 1, 1]
        assert log["executors"] == 2

    def test_in_flight_chunk_surfaces_the_break_and_is_charged(
        self, monkeypatch
    ):
        log = _breaking_executor(monkeypatch, hold_first=True)
        config = ParallelConfig(
            jobs=2, max_pending=2, on_error="collect", retries=1, backoff=0.0
        )
        outcomes = parallel_map_outcomes(_double, list(range(4)), config=config)
        assert [o.value for o in outcomes] == [0, 2, 4, 6]
        # Chunk 0 was in flight on the dead executor; chunk 1 was refused
        # and never ran, so only chunk 0 pays an attempt.
        assert [o.attempts for o in outcomes] == [2, 1, 1, 1]
        assert log["executors"] == 2

    def test_respawn_budget_still_applies(self, monkeypatch):
        _breaking_executor(monkeypatch, hold_first=False)
        config = ParallelConfig(jobs=2, max_pending=1, pool_respawns=0)
        with pytest.raises(ReliabilityError, match="gave up after 0 respawn"):
            parallel_map(_double, list(range(4)), config=config)


class TestInjectedErrorRetry:
    def test_transient_injected_fault_is_retried_away_serial(self):
        plan = FaultPlan(specs=(FaultSpec("pool.task", at=(2,)),))
        _activate_for_workers(plan)
        config = ParallelConfig(jobs=1, retries=1, backoff=0.0)
        outcomes = parallel_map_outcomes(_double, [5, 6, 7], config=config)
        assert [o.value for o in outcomes] == [10, 12, 14]
        assert [o.attempts for o in outcomes] == [1, 2, 1]

    def test_match_targets_one_item_only(self):
        plan = FaultPlan(
            specs=(FaultSpec("pool.task", match="6", at=(1, 2, 3, 4)),)
        )
        _activate_for_workers(plan)
        config = ParallelConfig(
            jobs=1, on_error="collect", retries=1, backoff=0.0
        )
        outcomes = parallel_map_outcomes(_double, [5, 6, 7], config=config)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert isinstance(outcomes[1].error, FaultInjected)
        assert outcomes[1].attempts == 2  # first try + one retry, both injected


class TestTaskTimeout:
    def test_stuck_chunk_times_out_and_the_rest_complete(self):
        items = [("fast-a", 0.0), ("stuck", 5.0), ("fast-b", 0.0)]
        config = ParallelConfig(
            jobs=2,
            on_error="collect",
            task_timeout=0.5,
            retries=0,
            pool_respawns=3,
        )
        start = time.monotonic()
        outcomes = parallel_map_outcomes(_sleepy, items, config=config)
        assert time.monotonic() - start < 4.0, "timeout did not preempt"
        by_ok = {o.index: o.ok for o in outcomes}
        assert by_ok[0] and by_ok[2]
        assert not by_ok[1]
        assert isinstance(outcomes[1].error, ReliabilityError)
        assert "task_timeout" in str(outcomes[1].error)

    def test_timeout_config_validation(self):
        with pytest.raises(ExperimentError):
            ParallelConfig(task_timeout=0.0)
        with pytest.raises(ExperimentError):
            ParallelConfig(pool_respawns=-1)
        with pytest.raises(ExperimentError):
            ParallelConfig(retries=-1)
