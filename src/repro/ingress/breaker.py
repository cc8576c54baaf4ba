"""Per-shard circuit breakers for the ingress gateway.

When a shard is sick — its dispatches erroring or blowing deadlines —
queueing more requests at it just converts them into slow failures.  The
gateway instead runs one :class:`CircuitBreaker` per shard, the classic
three-state machine:

* **closed** — requests flow; consecutive failures are counted, success
  resets the count;
* **open** — tripped after ``failure_threshold`` consecutive failures:
  requests for the shard are shed immediately with ``OVERLOAD`` (plus a
  retry-after hint of the remaining open window) instead of queueing
  doomed work.  After ``reset_timeout`` seconds the breaker half-opens;
* **half_open** — up to ``probe_budget`` probe requests are let through
  to test the shard; any failure re-opens (a fresh full window), while
  ``probe_budget`` consecutive successes close the breaker.

The machine is deliberately pure state + arithmetic over an injectable
clock: no threads, no timers, no I/O — which is what lets the hypothesis
property suite drive it through arbitrary success/failure/timeout
sequences and assert the transition invariants exhaustively.  It is not
itself thread safe; the gateway touches each shard's breaker from the
event loop plus that shard's single dispatcher, guarded there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import ExperimentError

__all__ = [
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "BreakerConfig",
    "CircuitBreaker",
]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Every state the machine can be in (anything else is a bug).
BREAKER_STATES = (CLOSED, OPEN, HALF_OPEN)


@dataclass(frozen=True)
class BreakerConfig:
    """Trip threshold, cool-down window, and half-open probe budget."""

    #: Consecutive failures (errors or deadline misses) that trip the
    #: breaker open.
    failure_threshold: int = 5
    #: Seconds the breaker stays open before allowing probes.
    reset_timeout: float = 1.0
    #: Concurrent probe admissions while half-open; the same number of
    #: consecutive probe successes closes the breaker.
    probe_budget: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ExperimentError(
                "breaker failure_threshold must be >= 1,"
                f" got {self.failure_threshold}"
            )
        if self.reset_timeout <= 0:
            raise ExperimentError(
                f"breaker reset_timeout must be > 0, got {self.reset_timeout}"
            )
        if self.probe_budget < 1:
            raise ExperimentError(
                f"breaker probe_budget must be >= 1, got {self.probe_budget}"
            )


class CircuitBreaker:
    """closed → open → half-open → closed, over an injectable clock."""

    def __init__(
        self,
        config: "BreakerConfig | None" = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or BreakerConfig()
        self.clock = clock
        self.state = CLOSED
        #: Consecutive failures while closed.
        self.failures = 0
        #: Times the breaker tripped open (monotone counter).
        self.opens = 0
        #: Probes admitted but not yet resolved while half-open.
        self.probes_inflight = 0
        #: Consecutive probe successes while half-open.
        self.probe_successes = 0
        self._opened_at = 0.0

    # -- admission -----------------------------------------------------
    def allow(self) -> bool:
        """May one request pass right now?  (May half-open the breaker.)

        While open, flips to half-open once ``reset_timeout`` has
        elapsed; while half-open, admits at most ``probe_budget``
        unresolved probes.  Closed always admits.
        """
        if self.state == OPEN:
            if self.clock() - self._opened_at >= self.config.reset_timeout:
                self.state = HALF_OPEN
                self.probes_inflight = 0
                self.probe_successes = 0
            else:
                return False
        if self.state == HALF_OPEN:
            if self.probes_inflight >= self.config.probe_budget:
                return False
            self.probes_inflight += 1
            return True
        return True

    def retry_after(self) -> float:
        """Seconds until the next admission chance (0.0 unless open)."""
        if self.state != OPEN:
            return 0.0
        remaining = (
            self.config.reset_timeout - (self.clock() - self._opened_at)
        )
        return max(0.0, remaining)

    # -- outcomes ------------------------------------------------------
    def record_success(self) -> None:
        """One admitted request served fine."""
        if self.state == HALF_OPEN:
            self.probes_inflight = max(0, self.probes_inflight - 1)
            self.probe_successes += 1
            if self.probe_successes >= self.config.probe_budget:
                self._close()
        elif self.state == CLOSED:
            self.failures = 0
        # Late ack while OPEN (outcome of a pre-trip request): ignored —
        # only the timed half-open probe may rehabilitate the shard.

    def release(self) -> None:
        """One admitted request ended without a verdict on the shard.

        A request refused as malformed before it reached the shard frees
        its half-open probe slot but counts neither way.
        """
        if self.state == HALF_OPEN:
            self.probes_inflight = max(0, self.probes_inflight - 1)

    def record_failure(self) -> None:
        """One admitted request errored or missed its deadline."""
        if self.state == HALF_OPEN:
            self.probes_inflight = max(0, self.probes_inflight - 1)
            self._trip()
        elif self.state == CLOSED:
            self.failures += 1
            if self.failures >= self.config.failure_threshold:
                self._trip()
        # Late failure while OPEN: already shedding, nothing to escalate.

    # -- views ---------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "failures": self.failures,
            "opens": self.opens,
            "retry_after": self.retry_after(),
        }

    # -- internals -----------------------------------------------------
    def _trip(self) -> None:
        self.state = OPEN
        self.opens += 1
        self.failures = 0
        self.probe_successes = 0
        self._opened_at = self.clock()

    def _close(self) -> None:
        self.state = CLOSED
        self.failures = 0
        self.probes_inflight = 0
        self.probe_successes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CircuitBreaker(state={self.state!r}, failures={self.failures},"
            f" opens={self.opens})"
        )
