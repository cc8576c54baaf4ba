"""Deterministic fault injection: named points, replayable plans.

Production code cannot prove its recovery paths work without a way to
*cause* the failures they recover from — deterministically, so the same
crash replays identically in a unit test, in CI and in a bisect.  This
module provides that harness:

* a :class:`FaultSpec` names one failure: an **injection point** (a dotted
  string compiled into the production code, e.g. ``"pool.task"``), a
  **mode** (how to fail), the **invocation indices** at which to fire and
  an optional **match** substring narrowing the firing to specific
  contexts (e.g. one scenario cell out of a campaign);
* a :class:`FaultPlan` is a frozen, JSON-round-tripping set of specs plus
  an optional file-backed **ledger** directory that makes invocation
  counting global across worker processes (essential for ``kill`` faults:
  the marker outlives the process it killed, so the respawned worker does
  not re-fire);
* production code calls :func:`fire_fault` at its injection points; with
  no plan installed this is a dict lookup and an early return, so the
  hooks cost nothing in normal operation;
* plans activate either in-process (:func:`install_fault_plan` /
  :func:`inject_faults`) or via the ``REPRO_FAULTS`` environment variable
  (JSON text, or ``@/path/to/plan.json``), which worker processes inherit
  — the same plan replays in every process of a pooled run.

Injection points compiled into the repository (mode semantics are
interpreted by the site):

=====================  ======================================================
``pool.task``          around one task item in a pool worker
                       (``error`` raises :class:`FaultInjected`;
                       ``kill`` hard-exits the worker process —
                       a SIGKILL stand-in producing ``BrokenProcessPool``)
``sink.write``         in :meth:`JsonlStore.write` (``error`` fails the
                       write; ``truncate`` leaves a torn partial line on
                       disk, then fails — a mid-``write`` SIGKILL stand-in)
``native.load``        in the native kernel loader (``corrupt`` overwrites
                       the cached shared object with garbage before the
                       load attempt; ``error`` fails the load outright)
``session.snapshot``   in :meth:`Session.snapshot` (``corrupt`` tampers the
                       checkpointed tree state so a post-restore
                       :meth:`Session.audit` must detect it;
                       ``error`` fails the snapshot)
``farm.serve``         around one dispatched window in a serve-farm shard
                       worker (``error`` raises :class:`FaultInjected`,
                       relayed to the farm parent; ``kill`` hard-exits the
                       worker — the parent respawns it and replays its
                       journal; use a ledger so the kill stays fired)
``ingress.accept``     as the ingress gateway accepts a connection
                       (``error`` closes the socket before the handshake —
                       a refused/reset connection the client's retry
                       policy must absorb; ``kill`` hard-exits the server
                       process)
``ingress.dispatch``   around one coalesced micro-batch in an ingress
                       dispatcher (context ``shard=N``; ``error`` raises
                       :class:`FaultInjected`, answered to every affected
                       client as an ``ERROR`` response; ``kill`` hard-exits
                       the server mid-stream — clients see a dropped
                       connection, the retryable state)
=====================  ======================================================
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional, Sequence

from repro.errors import FaultInjected, ReliabilityError

__all__ = [
    "FAULTS_ENV",
    "FaultPlan",
    "FaultSpec",
    "active_fault_plan",
    "clear_fault_plan",
    "fire_fault",
    "inject_faults",
    "install_fault_plan",
]

#: Environment variable carrying a serialized plan (JSON text, or
#: ``@<path>`` naming a JSON file).  Inherited by worker processes, so one
#: export activates the identical plan across a whole pooled campaign.
FAULTS_ENV = "REPRO_FAULTS"

#: Failure modes a spec may request (sites interpret them; unknown
#: combinations degrade to ``error``).
FAULT_MODES = ("error", "kill", "truncate", "corrupt")


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic failure: where, how, and at which invocations.

    Attributes
    ----------
    point:
        Injection-point name (see the module table).
    mode:
        Failure mode the site should enact.
    at:
        1-based invocation indices (of calls matching ``point`` +
        ``match``) at which the fault fires.  Default: first call only.
    match:
        Substring that must appear in the call's context string for the
        call to count — e.g. ``"seed=3"`` to target one cell of a
        campaign.  Empty matches every call at the point.
    detail:
        Free-form text carried into the raised :class:`FaultInjected`.
    """

    point: str
    mode: str = "error"
    at: tuple[int, ...] = (1,)
    match: str = ""
    detail: str = ""

    def __post_init__(self) -> None:
        if not self.point:
            raise ReliabilityError("FaultSpec.point must be non-empty")
        if self.mode not in FAULT_MODES:
            raise ReliabilityError(
                f"unknown fault mode {self.mode!r}; choose from {FAULT_MODES}"
            )
        object.__setattr__(self, "at", tuple(int(i) for i in self.at))
        if any(i < 1 for i in self.at):
            raise ReliabilityError("FaultSpec.at indices are 1-based (>= 1)")

    def to_dict(self) -> dict[str, Any]:
        return {
            "point": self.point,
            "mode": self.mode,
            "at": list(self.at),
            "match": self.match,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        known = {"point", "mode", "at", "match", "detail"}
        unknown = set(data) - known
        if unknown:
            raise ReliabilityError(f"unknown FaultSpec fields {sorted(unknown)}")
        return cls(
            point=data["point"],
            mode=data.get("mode", "error"),
            at=tuple(data.get("at", (1,))),
            match=data.get("match", ""),
            detail=data.get("detail", ""),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A replayable set of :class:`FaultSpec` injections.

    ``ledger`` (optional) is a directory used to count invocations
    *globally* across processes: each matching call claims the next
    marker file atomically (``O_CREAT | O_EXCL``), so an index fired in a
    worker that was then killed stays fired for the respawned worker.
    Without a ledger, counters are per-process (fine for single-process
    tests).

    Markers live under ``ledger/<run_id>/`` so two drills sharing a
    ledger directory never see each other's claims.  ``run_id`` is
    auto-generated when a ledger is set, serialized with the plan (so
    worker processes inheriting it via ``REPRO_FAULTS`` share the run's
    namespace), and its subdirectory is removed by
    :func:`inject_faults` on exit.
    """

    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)
    ledger: Optional[str] = None
    run_id: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        if self.ledger is not None and not self.run_id:
            object.__setattr__(self, "run_id", uuid.uuid4().hex[:12])

    def for_point(self, point: str) -> tuple[FaultSpec, ...]:
        return tuple(spec for spec in self.specs if spec.point == point)

    def ledger_dir(self) -> Optional[Path]:
        """This run's marker directory (``ledger/<run_id>``), or ``None``."""
        if self.ledger is None:
            return None
        return Path(self.ledger) / self.run_id

    # -- JSON / environment round trip ---------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "specs": [spec.to_dict() for spec in self.specs],
            "ledger": self.ledger,
            "run_id": self.run_id,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            specs=tuple(
                FaultSpec.from_dict(item) for item in data.get("specs", ())
            ),
            ledger=data.get("ledger"),
            run_id=data.get("run_id", ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ReliabilityError("FaultPlan JSON must be an object")
        return cls.from_dict(data)

    def to_env(self) -> str:
        """The ``REPRO_FAULTS`` value activating this plan (JSON text)."""
        return self.to_json()

    @classmethod
    def from_env(cls, value: str) -> "FaultPlan":
        """Parse a ``REPRO_FAULTS`` value (JSON text or ``@<path>``)."""
        text = value.strip()
        if text.startswith("@"):
            text = Path(text[1:]).read_text()
        return cls.from_json(text)


# ----------------------------------------------------------------------
# runtime state: the installed plan + invocation counters
# ----------------------------------------------------------------------
_lock = threading.Lock()
_plan: Optional[FaultPlan] = None
_plan_from_env = False
_env_checked = False
_counters: dict[tuple[str, str], int] = {}


def install_fault_plan(plan: FaultPlan) -> None:
    """Activate ``plan`` in this process (counters reset)."""
    global _plan, _plan_from_env, _env_checked
    with _lock:
        _plan = plan
        _plan_from_env = False
        _env_checked = True
        _counters.clear()


def clear_fault_plan() -> None:
    """Deactivate any installed plan and forget the counters.

    Also forgets a plan adopted from ``REPRO_FAULTS`` — the environment
    is re-examined on the next :func:`fire_fault` call, so tests that
    monkeypatch the variable get fresh behaviour.
    """
    global _plan, _plan_from_env, _env_checked
    with _lock:
        _plan = None
        _plan_from_env = False
        _env_checked = False
        _counters.clear()


def active_fault_plan() -> Optional[FaultPlan]:
    """The plan in effect (installed, or adopted from ``REPRO_FAULTS``)."""
    global _plan, _plan_from_env, _env_checked
    with _lock:
        if _plan is None and not _env_checked:
            _env_checked = True
            value = os.environ.get(FAULTS_ENV)
            if value:
                _plan = FaultPlan.from_env(value)
                _plan_from_env = True
        return _plan


@contextmanager
def inject_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Context manager: activate ``plan``, deactivate on exit.

    Exit also removes the run's ledger markers (``ledger/<run_id>/``),
    so consecutive drills sharing a ledger directory start from a clean
    invocation count.
    """
    install_fault_plan(plan)
    try:
        yield plan
    finally:
        clear_fault_plan()
        run_dir = plan.ledger_dir()
        if run_dir is not None:
            shutil.rmtree(run_dir, ignore_errors=True)


def _next_index(plan: FaultPlan, spec: FaultSpec) -> int:
    """Claim this call's 1-based invocation index for ``spec``.

    With a ledger directory the claim is a marker file created with
    ``O_CREAT | O_EXCL`` — atomic across processes, persistent across a
    killed worker.  Without one it is a per-process counter.
    """
    key = (spec.point, spec.match)
    root = plan.ledger_dir()
    if root is None:
        with _lock:
            index = _counters.get(key, 0) + 1
            _counters[key] = index
        return index
    root.mkdir(parents=True, exist_ok=True)
    tag = f"{spec.point}.{spec.match}".replace(os.sep, "_").replace(" ", "_")
    index = 1
    while True:
        marker = root / f"{tag}.{index}"
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            index += 1
            continue
        os.close(fd)
        return index


def fire_fault(point: str, context: str = "") -> Optional[FaultSpec]:
    """The injection hook production code compiles in.

    Returns the matching :class:`FaultSpec` when a fault should fire at
    this call (the site enacts the mode), or ``None``.  ``mode="error"``
    is fully handled here: :class:`FaultInjected` is raised directly, so
    the common case needs no site-side logic beyond the call.
    """
    plan = active_fault_plan()
    if plan is None:
        return None
    for spec in plan.for_point(point):
        if spec.match and spec.match not in context:
            continue
        index = _next_index(plan, spec)
        if index not in spec.at:
            continue
        if spec.mode == "error":
            raise FaultInjected(
                f"injected fault at {point} (invocation {index}"
                + (f", context {context!r}" if context else "")
                + (f"): {spec.detail}" if spec.detail else ")")
            )
        return spec
    return None


def kill_process(spec: FaultSpec) -> None:
    """Enact a ``kill`` fault: hard-exit without cleanup (SIGKILL stand-in).

    ``os._exit`` skips ``atexit`` hooks, ``finally`` blocks and buffered
    I/O exactly as a real SIGKILL would; the parent observes a broken
    worker, not an exception.
    """
    os._exit(77)
