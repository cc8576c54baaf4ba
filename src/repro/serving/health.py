"""Shard health supervision: heartbeats, deadlines, state machine.

Workers in a :class:`~repro.serving.farm.ServeFarm` emit periodic
heartbeats on a dedicated pipe (separate from the command pipe, so
liveness never interleaves with serve acknowledgements).  The farm's
supervisor thread feeds those beats into a :class:`HealthMonitor`, which
runs one small state machine per shard:

``healthy → suspect → down → recovering → healthy``

* **healthy** — beats arriving within ``suspect_after`` of the last one;
* **suspect** — the heartbeat deadline slipped but not past
  ``down_after``; dispatch continues (a busy GIL can starve a beat
  without the worker being dead);
* **down** — beats missed past ``down_after``, or the heartbeat pipe hit
  EOF (the worker process died — EOF is immediate, well before any
  deadline); the supervisor proactively respawns *before* a dispatch has
  to fail;
* **recovering** — a respawn (restore + journal replay) is in flight.

The monitor is deliberately passive: it owns no threads and no pipes.
``record_beat`` / ``mark`` / ``observe`` are called by the farm, which
makes the state machine trivially testable with a fake clock, and every
transition lands in :attr:`HealthMonitor.events` for post-mortems and
the chaos harness's time-to-detect measurements.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import ExperimentError

__all__ = [
    "HEALTHY",
    "SUSPECT",
    "DOWN",
    "RECOVERING",
    "HealthConfig",
    "HealthMonitor",
]

HEALTHY = "healthy"
SUSPECT = "suspect"
DOWN = "down"
RECOVERING = "recovering"

#: All states a shard can be in, in escalation order.
HEALTH_STATES = (HEALTHY, SUSPECT, DOWN, RECOVERING)


@dataclass(frozen=True)
class HealthConfig:
    """Heartbeat cadence and the missed-beat escalation deadlines.

    The defaults are deliberately conservative (a loaded CI box pausing
    a worker for a second must not trigger a spurious respawn); tests
    and the chaos harness shrink them for fast detection.
    """

    #: Worker-side heartbeat period, seconds.
    interval: float = 0.5
    #: Silence after which a shard turns ``suspect``.
    suspect_after: float = 2.0
    #: Silence after which a shard is declared ``down`` and proactively
    #: respawned.  Pipe EOF (worker death) short-circuits this deadline.
    down_after: float = 5.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ExperimentError(
                f"heartbeat interval must be > 0, got {self.interval}"
            )
        if self.suspect_after <= self.interval:
            raise ExperimentError(
                "suspect_after must exceed the heartbeat interval"
                f" ({self.suspect_after} <= {self.interval})"
            )
        if self.down_after <= self.suspect_after:
            raise ExperimentError(
                "down_after must exceed suspect_after"
                f" ({self.down_after} <= {self.suspect_after})"
            )


class HealthMonitor:
    """Per-shard heartbeat bookkeeping and the health state machine.

    Thread safe: the supervisor thread records beats and observes
    deadlines while dispatch threads read states and the farm marks
    recovery transitions.
    """

    def __init__(
        self,
        shards: int,
        config: Optional[HealthConfig] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if shards < 1:
            raise ExperimentError(f"shards must be >= 1, got {shards}")
        self.config = config or HealthConfig()
        self.clock = clock
        self.shards = shards
        self._lock = threading.Lock()
        now = self.clock()
        self._states = [HEALTHY] * shards
        self._last_beat = [now] * shards
        self._beats = [0] * shards
        #: Every transition: ``(monotonic_time, shard, old, new)``.
        self.events: list[tuple[float, int, str, str]] = []

    # -- inputs --------------------------------------------------------
    def record_beat(self, shard: int) -> str:
        """Fold one heartbeat in; returns the state *before* the beat.

        A beat while ``suspect`` heals the shard back to ``healthy``;
        beats during ``down``/``recovering`` are recorded (they advance
        the deadline for the replacement worker) but do not change
        state — only :meth:`mark` ends a recovery.
        """
        with self._lock:
            self._beats[shard] += 1
            self._last_beat[shard] = self.clock()
            state = self._states[shard]
            if state == SUSPECT:
                self._transition(shard, HEALTHY)
            return state

    def mark(self, shard: int, state: str) -> None:
        """Explicit transition (``recovering`` on respawn start, etc.)."""
        if state not in HEALTH_STATES:
            raise ExperimentError(f"unknown health state {state!r}")
        if not 0 <= shard < self.shards:
            raise ExperimentError(
                f"shard must be in 0..{self.shards - 1}, got {shard}"
            )
        with self._lock:
            self._last_beat[shard] = self.clock()
            if self._states[shard] != state:
                self._transition(shard, state)

    def observe(self) -> list[int]:
        """Apply the missed-beat deadlines; returns shards newly ``down``.

        Escalates ``healthy → suspect → down`` from heartbeat silence.
        Shards already ``down`` or ``recovering`` are left to the farm's
        respawn path.
        """
        now = self.clock()
        newly_down: list[int] = []
        with self._lock:
            for shard in range(self.shards):
                state = self._states[shard]
                if state in (DOWN, RECOVERING):
                    continue
                silence = now - self._last_beat[shard]
                if silence >= self.config.down_after:
                    self._transition(shard, DOWN)
                    newly_down.append(shard)
                elif silence >= self.config.suspect_after:
                    if state == HEALTHY:
                        self._transition(shard, SUSPECT)
        return newly_down

    # -- views ---------------------------------------------------------
    def state_of(self, shard: int) -> str:
        with self._lock:
            return self._states[shard]

    def states(self) -> list[str]:
        with self._lock:
            return list(self._states)

    def beats(self, shard: int) -> int:
        with self._lock:
            return self._beats[shard]

    def all_healthy(self) -> bool:
        with self._lock:
            return all(state == HEALTHY for state in self._states)

    def snapshot(self) -> dict[str, Any]:
        """One dict per shard: state, beat count, seconds of silence."""
        now = self.clock()
        with self._lock:
            return {
                "states": list(self._states),
                "beats": list(self._beats),
                "silence": [now - t for t in self._last_beat],
            }

    # -- internals -----------------------------------------------------
    def _transition(self, shard: int, new: str) -> None:
        # Caller holds self._lock.
        old = self._states[shard]
        self._states[shard] = new
        self.events.append((self.clock(), shard, old, new))
