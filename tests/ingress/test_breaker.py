"""The circuit-breaker state machine, exhaustively.

Deterministic unit tests pin the intended closed → open → half-open
choreography under a fake clock; the hypothesis suite then drives the
machine through arbitrary success/failure/clock-advance sequences and
asserts the structural invariants hold at *every* step — no invalid
state, non-negative bounded probe accounting, and a half-open breaker
admitting exactly its probe budget.

The property tests need hypothesis (installed in CI); they are skipped
gracefully when absent, the deterministic tests always run.
"""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.ingress.breaker import (
    BREAKER_STATES,
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 50.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def breaker(
    threshold: int = 3, reset: float = 1.0, probes: int = 1
) -> tuple[CircuitBreaker, FakeClock]:
    clock = FakeClock()
    config = BreakerConfig(
        failure_threshold=threshold,
        reset_timeout=reset,
        probe_budget=probes,
    )
    return CircuitBreaker(config, clock=clock), clock


class TestBreakerConfig:
    def test_validation(self):
        with pytest.raises(ExperimentError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ExperimentError):
            BreakerConfig(reset_timeout=0.0)
        with pytest.raises(ExperimentError):
            BreakerConfig(probe_budget=0)


class TestChoreography:
    def test_trips_after_consecutive_failures_only(self):
        brk, _ = breaker(threshold=3)
        brk.record_failure()
        brk.record_failure()
        brk.record_success()  # success resets the consecutive count
        brk.record_failure()
        brk.record_failure()
        assert brk.state == CLOSED
        brk.record_failure()
        assert brk.state == OPEN
        assert brk.opens == 1

    def test_open_sheds_until_reset_timeout(self):
        brk, clock = breaker(threshold=1, reset=2.0)
        brk.record_failure()
        assert brk.state == OPEN
        assert not brk.allow()
        assert brk.retry_after() == pytest.approx(2.0)
        clock.advance(1.5)
        assert not brk.allow()
        assert brk.retry_after() == pytest.approx(0.5)
        clock.advance(0.5)
        assert brk.allow()  # the half-open probe
        assert brk.state == HALF_OPEN
        assert brk.retry_after() == 0.0

    def test_half_open_admits_exactly_the_probe_budget(self):
        brk, clock = breaker(threshold=1, probes=2)
        brk.record_failure()
        clock.advance(1.0)
        assert brk.allow()
        assert brk.allow()
        assert not brk.allow()  # budget spent, outcomes pending
        brk.record_success()
        assert brk.allow()  # resolved probe frees a slot

    def test_probe_successes_close_the_breaker(self):
        brk, clock = breaker(threshold=1, probes=2)
        brk.record_failure()
        clock.advance(1.0)
        assert brk.allow() and brk.allow()
        brk.record_success()
        assert brk.state == HALF_OPEN
        brk.record_success()
        assert brk.state == CLOSED
        assert brk.failures == 0

    def test_probe_failure_reopens_a_fresh_window(self):
        brk, clock = breaker(threshold=1, reset=1.0)
        brk.record_failure()
        clock.advance(1.0)
        assert brk.allow()
        brk.record_failure()
        assert brk.state == OPEN
        assert brk.opens == 2
        assert brk.retry_after() == pytest.approx(1.0)  # full window again

    def test_release_frees_a_probe_without_a_verdict(self):
        # A probe refused as malformed says nothing about the shard.
        brk, clock = breaker(threshold=2, probes=1)
        brk.record_failure()
        brk.release()  # closed: no effect on the failure streak
        brk.record_failure()
        assert brk.state == OPEN
        clock.advance(1.0)
        assert brk.allow()
        assert not brk.allow()
        brk.release()
        assert brk.state == HALF_OPEN and brk.probe_successes == 0
        assert brk.allow()  # the slot is free again

    def test_late_outcomes_while_open_are_ignored(self):
        # Acks for requests admitted before the trip must not
        # rehabilitate (or double-punish) the shard out of band.
        brk, _ = breaker(threshold=1)
        brk.record_failure()
        state = brk.snapshot()
        brk.record_success()
        brk.record_failure()
        assert brk.snapshot() == state

    def test_snapshot_shape(self):
        brk, _ = breaker()
        assert brk.snapshot() == {
            "state": CLOSED,
            "failures": 0,
            "opens": 0,
            "retry_after": 0.0,
        }


# ----------------------------------------------------------------------
# property suite: arbitrary event sequences, invariants at every step
# ----------------------------------------------------------------------
pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

EVENTS = st.lists(
    st.one_of(
        st.just(("allow",)),
        st.just(("success",)),
        st.just(("failure",)),
        st.floats(min_value=0.0, max_value=3.0).map(
            lambda s: ("advance", s)
        ),
    ),
    max_size=60,
)
CONFIGS = st.builds(
    BreakerConfig,
    failure_threshold=st.integers(min_value=1, max_value=5),
    reset_timeout=st.floats(min_value=0.1, max_value=2.0),
    probe_budget=st.integers(min_value=1, max_value=4),
)


def _check_invariants(brk: CircuitBreaker, admitted_probes: int) -> None:
    assert brk.state in BREAKER_STATES
    assert 0 <= brk.probes_inflight <= brk.config.probe_budget
    assert 0 <= brk.failures < brk.config.failure_threshold
    assert brk.opens >= 0
    assert brk.retry_after() >= 0.0
    if brk.state != OPEN:
        assert brk.retry_after() == 0.0
    if brk.state == HALF_OPEN:
        # Unresolved admissions this half-open phase never exceed the
        # probe budget.
        assert admitted_probes <= brk.config.probe_budget


class TestBreakerProperties:
    @settings(max_examples=200, deadline=None)
    @given(config=CONFIGS, events=EVENTS)
    def test_no_sequence_reaches_an_invalid_state(self, config, events):
        clock = FakeClock()
        brk = CircuitBreaker(config, clock=clock)
        unresolved_probes = 0
        for event in events:
            if event[0] == "advance":
                clock.advance(event[1])
            elif event[0] == "allow":
                was_half_open_path = brk.state in (OPEN, HALF_OPEN)
                admitted = brk.allow()
                if admitted and was_half_open_path:
                    unresolved_probes += 1
            elif event[0] == "success":
                if brk.state == HALF_OPEN and unresolved_probes:
                    unresolved_probes -= 1
                brk.record_success()
            else:
                if brk.state == HALF_OPEN and unresolved_probes:
                    unresolved_probes -= 1
                brk.record_failure()
            if brk.state != HALF_OPEN:
                unresolved_probes = 0
            _check_invariants(brk, unresolved_probes)

    @settings(max_examples=100, deadline=None)
    @given(config=CONFIGS, events=EVENTS)
    def test_half_open_admits_exactly_the_budget(self, config, events):
        """However the machine got to half-open, the next allow() burst
        admits exactly ``probe_budget`` requests and not one more."""
        clock = FakeClock()
        brk = CircuitBreaker(config, clock=clock)
        for event in events:
            if event[0] == "advance":
                clock.advance(event[1])
            elif event[0] == "allow":
                brk.allow()
            elif event[0] == "success":
                brk.record_success()
            else:
                brk.record_failure()
        if brk.state == OPEN:
            # Comfortably past the window (an exact advance can round
            # under the float deadline).
            clock.advance(config.reset_timeout * 2)
            inflight_before = 0  # the flip to half-open resets probes
        elif brk.state == HALF_OPEN:
            inflight_before = brk.probes_inflight
        else:
            return  # closed admits unboundedly by design
        admitted = sum(
            1 for _ in range(config.probe_budget * 3) if brk.allow()
        )
        assert brk.state == HALF_OPEN
        assert admitted == config.probe_budget - inflight_before
        assert brk.probes_inflight == config.probe_budget
