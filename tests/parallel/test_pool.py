"""parallel_map semantics: ordering, fallback, chunking, error policies.

Worker functions live at module level so the multi-process paths genuinely
pickle them; the serial path (jobs=1) must behave identically.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ExperimentError
from repro.parallel.pool import (
    ParallelConfig,
    cpu_jobs,
    parallel_map,
    parallel_map_outcomes,
)


def square(x: int) -> int:
    return x * x


def fail_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("three is right out")
    return x


def pid_of(_: int) -> int:
    return os.getpid()


class TestCpuJobs:
    def test_at_least_one(self):
        assert cpu_jobs(reserve=10**6) == 1

    def test_cap(self):
        assert cpu_jobs(reserve=0, cap=2) <= 2

    def test_default_leaves_headroom(self):
        count = os.cpu_count() or 1
        assert cpu_jobs() == max(1, count - 1)


class TestSerialPath:
    def test_order_preserved(self):
        assert parallel_map(square, [3, 1, 2]) == [9, 1, 4]

    def test_empty(self):
        assert parallel_map(square, []) == []

    def test_single_item(self):
        assert parallel_map(square, [5]) == [25]

    def test_error_raises_with_context(self):
        with pytest.raises(ExperimentError, match="item 3"):
            parallel_map(fail_on_three, [1, 2, 3, 4])

    def test_error_collect_keeps_going(self):
        config = ParallelConfig(on_error="collect")
        outcomes = parallel_map_outcomes(fail_on_three, [1, 3, 4], config=config)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[0].value == 1
        assert isinstance(outcomes[1].error, ValueError)
        # parallel_map drops the failed slot
        assert parallel_map(fail_on_three, [1, 3, 4], config=config) == [1, 4]

    def test_lambda_allowed_serially(self):
        # serial path never pickles, so lambdas are fine with jobs=1
        assert parallel_map(lambda x: x + 1, [1, 2]) == [2, 3]


class TestParallelPath:
    def test_order_preserved(self):
        items = list(range(40))
        assert parallel_map(square, items, jobs=3) == [x * x for x in items]

    def test_uses_multiple_processes(self):
        pids = set(parallel_map(pid_of, range(16), jobs=2))
        # with two workers over 16 tasks we should see >1 worker pid,
        # and never the parent's
        assert os.getpid() not in pids
        assert len(pids) >= 1

    def test_chunked(self):
        config = ParallelConfig(jobs=2, chunk_size=5)
        items = list(range(23))
        assert parallel_map(square, items, config=config) == [x * x for x in items]

    def test_error_raises(self):
        with pytest.raises(ExperimentError):
            parallel_map(fail_on_three, [1, 2, 3, 4], jobs=2)

    def test_error_collect(self):
        config = ParallelConfig(jobs=2, on_error="collect")
        outcomes = parallel_map_outcomes(
            fail_on_three, [1, 3, 4, 5], config=config
        )
        oks = [o.ok for o in outcomes]
        assert oks == [True, False, True, True]

    def test_error_collect_chunk_marks_whole_chunk(self):
        # with chunk_size > 1 the failing chunk is marked failed wholesale
        config = ParallelConfig(jobs=2, chunk_size=2, on_error="collect")
        outcomes = parallel_map_outcomes(
            fail_on_three, [1, 3, 4, 5], config=config
        )
        assert [o.ok for o in outcomes] == [False, False, True, True]

    def test_backpressure_bound_respected(self):
        config = ParallelConfig(jobs=2, max_pending=2)
        items = list(range(30))
        assert parallel_map(square, items, config=config) == [x * x for x in items]

    def test_matches_serial(self):
        items = list(range(25))
        assert parallel_map(square, items, jobs=2) == parallel_map(square, items)


def flaky_until_marker(item) -> int:
    """Fail until a marker file exists (created on the first attempt).

    File-backed state survives process boundaries, so the pooled retry
    path genuinely re-dispatches and succeeds on the second attempt.
    """
    marker, value = item
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return value
    os.close(fd)
    raise ValueError(f"first attempt on {value} always fails")


class TestCollectOutcomes:
    """on_error='collect' contracts: ordering, payloads, streaming."""

    def test_outcomes_come_back_in_submission_order(self):
        config = ParallelConfig(jobs=2, on_error="collect")
        items = list(range(20, 0, -1))
        outcomes = parallel_map_outcomes(fail_on_three, items, config=config)
        assert [o.index for o in outcomes] == list(range(len(items)))
        assert [o.value for o in outcomes if o.ok] == [
            x for x in items if x != 3
        ]

    def test_error_payload_carries_the_original_exception(self):
        config = ParallelConfig(jobs=2, on_error="collect")
        outcomes = parallel_map_outcomes(
            fail_on_three, [3, 1, 2], config=config
        )
        failed = outcomes[0]
        assert not failed.ok
        assert failed.index == 0
        assert failed.value is None
        assert isinstance(failed.error, ValueError)
        assert "three is right out" in str(failed.error)
        assert failed.attempts == 1

    def test_serial_and_pooled_collect_agree(self):
        items = [1, 3, 4, 3, 5]
        serial = parallel_map_outcomes(
            fail_on_three, items, config=ParallelConfig(on_error="collect")
        )
        pooled = parallel_map_outcomes(
            fail_on_three,
            items,
            config=ParallelConfig(jobs=2, on_error="collect"),
        )
        assert [(o.index, o.ok, o.value) for o in serial] == [
            (o.index, o.ok, o.value) for o in pooled
        ]

    def test_on_outcome_streams_each_terminal_outcome_once(self):
        streamed = []
        config = ParallelConfig(jobs=2, on_error="collect")
        outcomes = parallel_map_outcomes(
            fail_on_three,
            [1, 3, 4, 5],
            config=config,
            on_outcome=streamed.append,
        )
        # Streaming happens in completion order; same terminal outcomes.
        assert sorted(o.index for o in streamed) == [0, 1, 2, 3]
        assert {(o.index, o.ok) for o in streamed} == {
            (o.index, o.ok) for o in outcomes
        }

    def test_on_outcome_serial_is_submission_ordered(self):
        streamed = []
        parallel_map_outcomes(
            fail_on_three,
            [1, 3, 4],
            config=ParallelConfig(on_error="collect"),
            on_outcome=streamed.append,
        )
        assert [o.index for o in streamed] == [0, 1, 2]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retries_recover_and_count_attempts(self, jobs, tmp_path):
        items = [(str(tmp_path / f"marker-{i}"), i) for i in range(4)]
        config = ParallelConfig(
            jobs=jobs, on_error="collect", retries=1, backoff=0.0
        )
        outcomes = parallel_map_outcomes(
            flaky_until_marker, items, config=config
        )
        assert [o.ok for o in outcomes] == [True] * 4
        assert [o.value for o in outcomes] == [0, 1, 2, 3]
        assert [o.attempts for o in outcomes] == [2, 2, 2, 2]

    def test_retries_exhausted_keeps_the_last_error(self):
        config = ParallelConfig(on_error="collect", retries=2, backoff=0.0)
        outcomes = parallel_map_outcomes(fail_on_three, [3], config=config)
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 3  # first try + two retries


class TestConfigValidation:
    def test_bad_chunk_size(self):
        with pytest.raises(ExperimentError):
            ParallelConfig(chunk_size=0)

    def test_bad_error_policy(self):
        with pytest.raises(ExperimentError):
            ParallelConfig(on_error="explode")  # type: ignore[arg-type]

    def test_bad_max_pending(self):
        with pytest.raises(ExperimentError):
            ParallelConfig(jobs=2, max_pending=0).resolved_pending()

    def test_conflicting_jobs(self):
        with pytest.raises(ExperimentError):
            parallel_map(square, [1], config=ParallelConfig(jobs=2), jobs=3)

    def test_auto_jobs(self):
        assert ParallelConfig(jobs=0).resolved_jobs() >= 1
        assert ParallelConfig(jobs=-1).resolved_jobs() >= 1

    def test_default_pending(self):
        assert ParallelConfig(jobs=3).resolved_pending() == 12
