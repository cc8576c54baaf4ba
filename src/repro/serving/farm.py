"""The sharded serve farm: resident native trees across worker processes.

:class:`ServeFarm` scales the single-process serving stack *out*: session
keys are hash-partitioned (:mod:`repro.serving.router`) across worker
processes, each worker owning one shard's sessions — resident
:class:`~repro.core.native.NativeTree` handles behind the
:func:`~repro.net.session.open_session` API (degrading per worker to the
object engine when the kernel is unavailable, e.g. ``REPRO_NATIVE=0``).
The parent dispatches batched request windows to all owning shards before
collecting any acknowledgement, so shards serve concurrently; aggregate
metrics (cost totals plus a mergeable latency histogram) accumulate
incrementally from the acks.

Fault tolerance follows the PR 6 pool-hardening playbook:

* every worker batch passes a ``farm.serve`` injection point
  (:func:`~repro.reliability.faults.fire_fault`), so the reliability
  suite can kill a worker deterministically mid-campaign;
* a dead worker (broken pipe on send or EOF on receive) is respawned and
  its state rebuilt by **journal replay**: the parent keeps every
  acknowledged pair per shard per key — one growable packed int64
  buffer per key plus the cumulative ends of its batches — and replays
  each key's pairs as one batch (the serve discipline is deterministic,
  so the rebuilt trees are cell-for-cell identical), then re-sends the
  in-flight batch.  Replay acks are dropped, so nothing is double
  counted.  Kill-style faults need a ledger-backed
  :class:`~repro.reliability.faults.FaultPlan` (exactly as with
  ``pool.task``) so the respawned worker does not re-fire the kill;
* the respawn budget (``max_respawns``) turns a crash loop into a loud
  :class:`~repro.errors.ReliabilityError` instead of a hang.

Two layers on top of reactive replay (the self-healing subsystem):

* **health supervision** (:mod:`repro.serving.health`): every worker runs
  a heartbeat thread on a dedicated pipe; a supervisor thread in the
  parent feeds a :class:`~repro.serving.health.HealthMonitor` and
  *proactively* respawns a shard on heartbeat-pipe EOF (instant — the
  worker died) or on a missed-beat deadline, before any dispatch has to
  fail.  Per-shard locks make the proactive and reactive paths mutually
  exclusive, and an epoch counter makes respawn idempotent when both
  notice the same death.
* **warm standby** (``checkpoint_every=N``): workers cut engine-
  transferable :class:`~repro.net.session.SessionSnapshot` checkpoints
  at batch boundaries every ``N`` requests per key and ship them in the
  serve ack; the parent prunes the journal prefix each snapshot covers,
  so a replacement worker restores from the latest snapshots and replays
  **at most ~N requests per key** instead of the whole history.

Pairs cross the worker pipe packed: every dispatch is one
``(keys, counts, sources, targets)`` message whose pairs are two
contiguous int64 arrays (:func:`_pack`), whatever mix of lists and arrays
the caller passed.  Non-integer node ids (floats, bools, objects) are
rejected there rather than truncated, and so is a dispatch holding any
pair outside ``1..n`` (:class:`~repro.errors.RejectedRequestError`) —
before anything of it is served.  The packer groups each key's entries
into one contiguous run, and the worker serves each run with **one
kernel call** (:meth:`~repro.net.session.Session.serve_segments`) that
still returns every entry's own totals: the per-call Python cost is paid
once per key run, not once per coalesced client frame.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from dataclasses import dataclass, field
from bisect import bisect_left
from itertools import accumulate, groupby, islice
from operator import itemgetter
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.errors import (
    ExperimentError,
    RejectedRequestError,
    ReliabilityError,
)
from repro.net.session import DEFAULT_CHUNK, LatencyStats, node_ids
from repro.net.spec import NetworkSpec
from repro.network.protocols import BatchServeResult
from repro.serving.health import (
    DOWN,
    HEALTHY,
    RECOVERING,
    HealthConfig,
    HealthMonitor,
)
from repro.serving.router import ShardRouter

__all__ = ["FarmMetrics", "ServeFarm"]

#: Injection point fired in a worker before serving each dispatched
#: window (see repro.reliability.faults for the catalogue).
FARM_FAULT_POINT = "farm.serve"


@dataclass
class FarmMetrics:
    """Aggregate incremental metrics of a whole farm (all shards)."""

    requests: int = 0
    total_routing: int = 0
    total_rotations: int = 0
    total_links_changed: int = 0
    windows: int = 0
    #: Summed worker-side serve CPU seconds per shard.  ``max`` over
    #: shards is the farm's critical path — the farm's aggregate capacity
    #: (``requests / max``) scales with shard count even when the host
    #: has fewer cores than shards, where wall clock (and worker wall
    #: time, inflated by timesharing) cannot show it.
    busy_seconds: dict[int, float] = field(default_factory=dict, repr=False)
    latency: LatencyStats = field(default_factory=LatencyStats, repr=False)

    @property
    def average_routing(self) -> float:
        return self.total_routing / self.requests if self.requests else 0.0

    @property
    def latency_p50(self) -> float:
        return self.latency.p50

    @property
    def latency_p99(self) -> float:
        return self.latency.p99

    @property
    def critical_path_seconds(self) -> float:
        """The busiest shard's total serve time (0.0 before any batch)."""
        return max(self.busy_seconds.values(), default=0.0)

    def record_batch(
        self,
        shard: int,
        m: int,
        routing: int,
        rotations: int,
        links: int,
        elapsed: float,
        cpu: float,
    ) -> None:
        self.requests += m
        self.total_routing += routing
        self.total_rotations += rotations
        self.total_links_changed += links
        self.windows += 1
        self.busy_seconds[shard] = self.busy_seconds.get(shard, 0.0) + cpu
        if m:
            self.latency.record(elapsed / m, m)

    def to_dict(self) -> dict[str, Any]:
        # Cost fields are deterministic; latency is reported separately
        # (same split as SessionMetrics.to_dict).
        return {
            "requests": self.requests,
            "total_routing": self.total_routing,
            "total_rotations": self.total_rotations,
            "total_links_changed": self.total_links_changed,
        }


def _pack(batches, what: str, n: int):
    """Pack ``(key, sources, targets)`` entries into one serve message.

    Returns ``(packed, order)``.  ``packed`` is ``(keys, counts, sources,
    targets)``: the entries regrouped by key — stably, so each key's
    entries keep their order; keys are independent sessions, so this
    changes no outcome — with every pair concatenated into two int64
    arrays.  ``order[j]`` is the input index of packed entry ``j``.  The
    grouping makes each key's pairs one contiguous run, which the
    journal appends in one copy and the worker serves in one kernel
    call.

    Every pair is checked here, before anything is sent: a pair with
    ``u != v`` and an id outside ``1..n`` raises
    :class:`~repro.errors.RejectedRequestError` naming the offending
    input entries, so a bad dispatch serves nothing.
    """
    batches = list(batches)
    runs: dict[Any, list[int]] = {}
    for index, (key, _, _) in enumerate(batches):
        runs.setdefault(key, []).append(index)
    order = [index for run in runs.values() for index in run]
    keys, counts, sources, targets = [], [], [], []
    for index in order:
        key, src, dst = batches[index]
        m = len(src)
        if m != len(dst):
            raise ExperimentError(
                f"{what} sources and targets must be equal length"
            )
        keys.append(key)
        counts.append(m)
        if m:
            sources.append(src)
            targets.append(dst)
    # Both sides in one int64 array: one copy, and one pass of each
    # bound over every id; the per-pair mask (a self-pair may be out of
    # range) is only built when some id is.
    parts = [node_ids(part, what) for part in sources + targets]
    ids = np.concatenate(parts) if parts else np.empty(0, np.int64)
    ids = ids.astype(np.int64, copy=False)
    total = len(ids) // 2
    sources, targets = ids[:total], ids[total:]
    bad = ()
    if total and (np.minimum.reduce(ids) < 1 or np.maximum.reduce(ids) > n):
        bad = np.flatnonzero(
            ((sources < 1) | (sources > n) | (targets < 1) | (targets > n))
            & (sources != targets)
        )
    if len(bad):
        entries = np.searchsorted(np.cumsum(counts), bad, side="right")
        raise RejectedRequestError(
            f"{what} node ids must be in 1..{n} (a self-pair u = v"
            " excepted)",
            entries=sorted({order[j] for j in entries.tolist()}),
        )
    return (keys, counts, sources, targets), order


class _PairJournal:
    """One key's acknowledged pairs past its snapshot, packed.

    ``sources[:size]``/``targets[:size]`` hold the pairs served after the
    first ``base`` requests (the ones the stored snapshot covers);
    ``ends`` holds the key's cumulative request count at the end of each
    journaled batch — the only places a snapshot can be cut.
    """

    __slots__ = ("sources", "targets", "size", "base", "ends")

    def __init__(self) -> None:
        self.sources = np.empty(0, dtype=np.int64)
        self.targets = np.empty(0, dtype=np.int64)
        self.size = 0
        self.base = 0
        self.ends: list[int] = []

    def append(self, sources, targets, counts: list[int]) -> None:
        """Append one run of batches (``counts`` pairs each)."""
        size = self.size + len(sources)
        if size > len(self.sources):
            capacity = max(size, 2 * len(self.sources), 256)
            for name in ("sources", "targets"):
                grown = np.empty(capacity, dtype=np.int64)
                grown[: self.size] = getattr(self, name)[: self.size]
                setattr(self, name, grown)
        self.sources[self.size : size] = sources
        self.targets[self.size : size] = targets
        first = self.base + self.size
        self.ends.extend(islice(accumulate(counts, initial=first), 1, None))
        self.size = size

    def prune(self, covered: int) -> bool:
        """Drop the first ``covered - base`` pairs if that is a batch end."""
        cut = bisect_left(self.ends, covered)
        if cut == len(self.ends) or self.ends[cut] != covered:
            return False
        drop = covered - self.base
        self.sources = self.sources[drop : self.size].copy()
        self.targets = self.targets[drop : self.size].copy()
        self.size -= drop
        self.base = covered
        del self.ends[: cut + 1]
        return True


def _heartbeat_loop(hb_conn, interval: float, stop) -> None:
    """Worker-side liveness thread: one beat per ``interval`` seconds."""
    seq = 0
    while True:
        try:
            hb_conn.send(("beat", seq))
        except (BrokenPipeError, OSError):  # parent gone
            return
        seq += 1
        if stop.wait(interval):
            return


def _worker_main(
    conn,
    hb_conn,
    inherited: tuple,
    spec_data: dict,
    shard_index: int,
    hb_interval: float,
    checkpoint_every: Optional[int],
) -> None:
    """One shard's serve loop: sessions owned here, commands via pipe.

    Messages in: ``("serve", (keys, counts, sources, targets), replay)``
    — one packed dispatch (see :func:`_pack`): entry ``i`` serves the
    next ``counts[i]`` pairs of the two int64 arrays on session
    ``keys[i]``.  Each key's run of consecutive entries is served by one
    ``Session.serve_segments`` call on array views — one kernel call per
    key run, not one per entry — which still answers every entry with its
    own totals;
    ``("restore", [(key, snapshot, covered)])``; ``("status",)``;
    ``("metrics",)``; ``("close",)``.
    Every reply is a tuple whose first element is ``"ok"`` or ``"error"``;
    serve acks carry per-batch detail totals (one ``(m, routing,
    rotations, links)`` 4-tuple per dispatched batch, in order — the
    ingress gateway answers each coalesced client request from exactly
    its own entry), the wall and CPU time spent serving (wall feeds the
    latency histogram, CPU the contention-immune per-shard busy
    accounting), the echoed ``replay`` flag, and any warm-standby
    snapshots cut this window (``[(key, SessionSnapshot, covered)]``
    with ``covered`` the key's total served requests at the cut — always
    a batch boundary, so the parent can prune its journal exactly).

    Liveness is out of band: a daemon thread beats on ``hb_conn`` every
    ``hb_interval`` seconds so a stuck or dead worker is visible to the
    supervisor without touching the command pipe.

    ``inherited`` holds the parent's ends of this worker's two pipes,
    which a forked child inherits.  They are closed first thing: while
    the worker holds them, ``conn.recv()`` never sees EOF, so a farm
    process that dies without ``close()`` (a ``kill`` fault, an OOM kill)
    would leave the worker running forever.
    """
    for end in inherited:
        end.close()
    # Imports inside the worker: with the spawn start method this module
    # is re-imported fresh, and the kernel loads (or degrades to object)
    # per process.
    from repro.net.session import open_session
    from repro.reliability.faults import fire_fault, kill_process

    stop_beat = threading.Event()
    threading.Thread(
        target=_heartbeat_loop,
        args=(hb_conn, hb_interval, stop_beat),
        daemon=True,
        name=f"repro-heartbeat-{shard_index}",
    ).start()

    sessions: dict[Any, Any] = {}
    served_total: dict[Any, int] = {}
    since_snapshot: dict[Any, int] = {}
    try:
        while True:
            message = conn.recv()
            command = message[0]
            if command == "serve":
                _, (keys, counts, sources, targets), replay = message
                try:
                    fault = fire_fault(
                        FARM_FAULT_POINT, context=f"shard={shard_index}"
                    )
                    if fault is not None and fault.mode == "kill":
                        kill_process(fault)
                    started = time.perf_counter()
                    cpu_started = time.process_time()
                    details: list[tuple[int, int, int, int]] = []
                    snapshots = []
                    start = 0
                    for key, run in groupby(
                        zip(keys, counts), key=itemgetter(0)
                    ):
                        session = sessions.get(key)
                        if session is None:
                            session = open_session(spec_data)
                            sessions[key] = session
                        run = [count for _, count in run]
                        while run:
                            # One serve_segments call per key run.  With
                            # checkpoints on, the run is split after the
                            # entry where the cadence comes due, so
                            # snapshots are cut at the same entry
                            # boundaries as serving entry by entry.
                            piece = len(run)
                            if checkpoint_every:
                                due = since_snapshot.get(key, 0)
                                for piece, count in enumerate(run, 1):
                                    due += count
                                    if due >= checkpoint_every:
                                        break
                            served = sum(run[:piece])
                            end = start + served
                            details.extend(
                                session.serve_segments(
                                    sources[start:end],
                                    targets[start:end],
                                    run[:piece],
                                )
                            )
                            start = end
                            run = run[piece:]
                            if not checkpoint_every:
                                continue
                            total = served_total.get(key, 0) + served
                            served_total[key] = total
                            since = since_snapshot.get(key, 0) + served
                            if since >= checkpoint_every:
                                try:
                                    snapshots.append(
                                        (key, session.snapshot(), total)
                                    )
                                    since = 0
                                except ExperimentError:
                                    # Engine without snapshot support:
                                    # degrade to replay-only recovery.
                                    pass
                            since_snapshot[key] = since
                    cpu = time.process_time() - cpu_started
                    elapsed = time.perf_counter() - started
                    conn.send(
                        ("ok", details, elapsed, cpu, replay, snapshots)
                    )
                except Exception as exc:  # noqa: BLE001 - relayed to parent
                    conn.send(("error", f"{type(exc).__name__}: {exc}"))
            elif command == "restore":
                _, restores = message
                try:
                    for key, snapshot, covered in restores:
                        session = open_session(spec_data)
                        session.restore(snapshot)
                        sessions[key] = session
                        served_total[key] = covered
                        since_snapshot[key] = 0
                    conn.send(("ok", len(restores)))
                except Exception as exc:  # noqa: BLE001 - relayed
                    conn.send(("error", f"{type(exc).__name__}: {exc}"))
            elif command == "status":
                from repro.core.engine import native_available

                conn.send(
                    (
                        "ok",
                        {
                            "shard": shard_index,
                            "pid": os.getpid(),
                            "native_available": native_available(),
                            "sessions": {
                                key: getattr(
                                    session.network, "engine", "object"
                                )
                                for key, session in sessions.items()
                            },
                        },
                    )
                )
            elif command == "metrics":
                conn.send(
                    (
                        "ok",
                        {
                            key: session.metrics.to_dict()
                            for key, session in sessions.items()
                        },
                    )
                )
            elif command == "close":
                stop_beat.set()
                conn.send(("ok",))
                return
            else:  # pragma: no cover - protocol misuse
                conn.send(("error", f"unknown farm command {command!r}"))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - parent gone
        return


def _farm_context():
    """Start method for farm workers: fork where supported, else spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class ServeFarm:
    """A shard-routed farm of serving workers (one process per shard).

    >>> farm = ServeFarm("kary-splaynet", n=64, k=4, shards=2)
    >>> farm.serve("user-7", 3, 60)          # doctest: +SKIP
    >>> farm.serve_stream(stream)            # (key, u, v) iterable
    >>> farm.metrics.latency_p99             # aggregate, incremental
    >>> farm.health.states()                 # per-shard health
    >>> farm.close()

    Constructor arguments besides the farm knobs are exactly
    :func:`~repro.net.session.open_session`'s spec inputs — a
    :class:`~repro.net.spec.NetworkSpec`, a mapping, or an algorithm name
    plus keyword arguments.  One session is opened lazily per key in the
    owning worker.  Use as a context manager to guarantee teardown.

    ``health`` sets the heartbeat supervision deadlines (conservative
    by default).  Reactive journal replay stays underneath supervision:
    a dispatch can hit a dead worker before the supervisor notices.
    ``checkpoint_every=N`` turns on warm-standby recovery: replay after
    a respawn is bounded by the checkpoint cadence instead of the full
    journal.
    """

    def __init__(
        self,
        spec: Union[NetworkSpec, Mapping[str, Any], str, None] = None,
        *,
        shards: int = 2,
        window: int = DEFAULT_CHUNK,
        max_respawns: int = 2,
        health: Optional[HealthConfig] = None,
        checkpoint_every: Optional[int] = None,
        **kwargs: Any,
    ) -> None:
        if shards < 1:
            raise ExperimentError(f"shards must be >= 1, got {shards}")
        if window < 1:
            raise ExperimentError(f"window must be >= 1, got {window}")
        if max_respawns < 0:
            raise ExperimentError(
                f"max_respawns must be >= 0, got {max_respawns}"
            )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ExperimentError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        from repro.net.registry import coerce_network_spec

        self.spec = coerce_network_spec(spec, **kwargs)
        if self.spec.engine is None:
            # Workers own resident native trees unless the spec pins an
            # engine; resolution happens per worker process, so a farm
            # degrades to the object engine wherever the kernel is
            # unavailable (REPRO_NATIVE=0, no C toolchain).
            self.spec = self.spec.replace(engine="native")
        self._spec_data = self.spec.to_dict()
        self.shards = shards
        self.window = window
        self.max_respawns = max_respawns
        self.checkpoint_every = checkpoint_every
        self.respawns = 0
        self.replayed_requests = 0
        self.recoveries = {"proactive": 0, "reactive": 0}
        self.shard_recoveries = [0] * shards
        self.router = ShardRouter(shards)
        self.metrics = FarmMetrics()
        self.health_config = health or HealthConfig()
        self.health = HealthMonitor(shards, self.health_config)
        #: Per shard: ``{key: _PairJournal}`` — every acknowledged pair
        #: not yet covered by a snapshot, in serve order (order across
        #: keys is immaterial: sessions are independent per key).
        self._journal: list[dict[Any, _PairJournal]] = [
            {} for _ in range(shards)
        ]
        self._snapshots: list[dict[Any, Any]] = [{} for _ in range(shards)]
        self._ctx = _farm_context()
        self._procs: list[Optional[Any]] = [None] * shards
        self._conns: list[Optional[Any]] = [None] * shards
        self._hb_conns: list[Optional[Any]] = [None] * shards
        self._hb_graveyard: list[Any] = []
        self._closed = False
        # Per-shard reentrant locks serialize everything that touches a
        # shard's pipe + journal (dispatch, introspection, respawn), so
        # the supervisor's proactive respawn and the dispatch path's
        # reactive respawn are mutually exclusive.  Epochs make respawn
        # idempotent when both notice the same death.
        self._locks = [threading.RLock() for _ in range(shards)]
        self._epochs = [0] * shards
        # Shared-state guard for per-shard concurrent dispatch (see
        # serve_grouped): aggregate metrics and the respawn budget are
        # the only cross-shard state touched on the dispatch path.
        self._metrics_lock = threading.Lock()
        self._supervisor = threading.Thread(
            target=self._supervise,
            daemon=True,
            name="repro-farm-supervisor",
        )
        self._stop_supervisor = threading.Event()
        try:
            for shard in range(shards):
                self._start_worker(shard)
        except BaseException:
            # A later worker failing to spawn must not leak the earlier
            # ones: close the partial farm before re-raising.
            self.close()
            raise
        self._supervisor.start()

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "ServeFarm":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    def _start_worker(self, shard: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        # Dedicated one-way liveness pipe: worker writes, parent reads.
        # EOF on it is the fastest possible death signal.
        hb_parent, hb_child = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                hb_child,
                (parent_conn, hb_parent),
                self._spec_data,
                shard,
                self.health_config.interval,
                self.checkpoint_every,
            ),
            daemon=True,
            name=f"repro-serve-shard-{shard}",
        )
        proc.start()
        child_conn.close()
        hb_child.close()
        self._procs[shard] = proc
        self._conns[shard] = parent_conn
        self._hb_conns[shard] = hb_parent

    def close(self) -> None:
        """Shut every worker down and join it (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._stop_supervisor.set()
        supervisor = self._supervisor
        if (
            supervisor.is_alive()
            and supervisor is not threading.current_thread()
        ):
            supervisor.join(timeout=5.0)
        for shard in range(self.shards):
            conn = self._conns[shard]
            if conn is None:
                continue
            try:
                conn.send(("close",))
                conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
            conn.close()
            self._conns[shard] = None
        for shard in range(self.shards):
            hb = self._hb_conns[shard]
            if hb is not None:
                try:
                    hb.close()
                except OSError:  # pragma: no cover - already gone
                    pass
                self._hb_conns[shard] = None
        for hb in self._hb_graveyard:
            try:
                hb.close()
            except OSError:  # pragma: no cover - already gone
                pass
        self._hb_graveyard.clear()
        for shard in range(self.shards):
            proc = self._procs[shard]
            if proc is not None:
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
                    proc.join(timeout=5.0)
                self._procs[shard] = None

    def _check_open(self) -> None:
        if self._closed:
            raise ExperimentError("serve farm is closed")

    # -- supervision ---------------------------------------------------
    def _supervise(self) -> None:
        """Supervisor thread: drain heartbeats, escalate missed deadlines.

        Detection is two-speed: heartbeat-pipe EOF (the worker process
        died) triggers an immediate proactive respawn, while silence on a
        live pipe escalates through ``suspect`` to ``down`` on the
        configured deadlines.  Both paths converge on
        :meth:`_proactive_respawn`, which is epoch-guarded against the
        dispatch path's reactive recovery.
        """
        from multiprocessing.connection import wait as _wait

        config = self.health_config
        timeout = min(config.interval, config.suspect_after / 2)
        while not self._stop_supervisor.is_set():
            current: dict[int, tuple[Any, int]] = {}
            targets: list[Any] = []
            for shard in range(self.shards):
                conn = self._hb_conns[shard]
                if conn is not None:
                    current[id(conn)] = (conn, shard)
                    targets.append(conn)
            graveyard = list(self._hb_graveyard)
            try:
                ready = _wait(targets + graveyard, timeout=timeout)
            except OSError:  # pragma: no cover - pipe replaced mid-wait
                continue
            for conn in ready:
                if self._stop_supervisor.is_set():
                    return
                entry = current.get(id(conn))
                if entry is None or conn is not self._hb_conns[entry[1]]:
                    # A pre-respawn pipe: drain it until EOF, then drop.
                    try:
                        conn.recv()
                    except (EOFError, OSError):
                        if conn in self._hb_graveyard:
                            self._hb_graveyard.remove(conn)
                        try:
                            conn.close()
                        except OSError:  # pragma: no cover
                            pass
                    continue
                shard = entry[1]
                try:
                    conn.recv()
                except (EOFError, OSError):
                    # The worker died: EOF beats any deadline.  Declare
                    # down and respawn before a dispatch can fail.
                    self.health.mark(shard, DOWN)
                    self._proactive_respawn(shard)
                else:
                    self.health.record_beat(shard)
            for shard in self.health.observe():
                self._proactive_respawn(shard)

    def _proactive_respawn(self, shard: int) -> None:
        """Supervisor-initiated recovery, idempotent against races."""
        epoch = self._epochs[shard]
        with self._locks[shard]:
            if self._closed or self._epochs[shard] != epoch:
                return  # the reactive path (or close) got there first
            try:
                self._respawn(shard, proactive=True)
            except ReliabilityError:
                # Budget exhausted: the shard stays down and the next
                # dispatch raises the loud give-up error.
                pass

    def shard_pids(self) -> list[Optional[int]]:
        """Current worker pid per shard (changes across respawns)."""
        return [
            proc.pid if proc is not None else None for proc in self._procs
        ]

    def health_states(self) -> list[str]:
        """Per-shard health."""
        return self.health.states()

    # -- fault recovery ------------------------------------------------
    def _respawn(self, shard: int, *, proactive: bool = False) -> None:
        """Replace a dead worker; rebuild its state from snapshots + journal.

        Warm standby first: the replacement restores every key's latest
        shipped snapshot, then replays only the journal suffix past each
        snapshot — bounded by ``checkpoint_every`` requests per key.
        Without checkpoints this degrades to full journal replay.
        """
        with self._locks[shard]:
            with self._metrics_lock:
                self.respawns += 1
                spent = self.respawns
            if spent > self.max_respawns:
                self.health.mark(shard, DOWN)
                raise ReliabilityError(
                    f"serve farm gave up after {self.max_respawns}"
                    f" respawn(s): shard {shard} keeps dying"
                )
            self.health.mark(shard, RECOVERING)
            old_conn = self._conns[shard]
            if old_conn is not None:
                old_conn.close()
            old_hb = self._hb_conns[shard]
            if old_hb is not None:
                # The supervisor may be mid-wait on this pipe: hand it
                # to the graveyard instead of closing under its feet.
                self._hb_conns[shard] = None
                self._hb_graveyard.append(old_hb)
            old_proc = self._procs[shard]
            if old_proc is not None:
                if old_proc.is_alive():
                    # Proactive deadline-based respawn: the old worker
                    # may be wedged rather than dead.
                    old_proc.terminate()
                old_proc.join(timeout=5.0)
                if old_proc.is_alive():  # pragma: no cover - defensive
                    old_proc.kill()
                    old_proc.join(timeout=5.0)
            self._start_worker(shard)
            self._epochs[shard] += 1
            # Deterministic rebuild: restore the latest snapshots, then
            # replay the journal suffix per key in order.  Replay acks
            # carry replay=True and are not re-aggregated; a ledger-
            # backed fault plan guarantees a fired kill stays fired.
            conn = self._conns[shard]
            try:
                journal = self._journal[shard]
                restores = [
                    (key, snapshot, journal[key].base)
                    for key, snapshot in self._snapshots[shard].items()
                ]
                if restores:
                    conn.send(("restore", restores))
                    reply = conn.recv()
                    if reply[0] == "error":
                        self.health.mark(shard, DOWN)
                        raise ReliabilityError(
                            f"serve farm shard {shard} failed snapshot"
                            f" restore: {reply[1]}"
                        )
                # Each key's uncovered pairs replay as one batch.
                replay = [
                    (key, e.sources[: e.size], e.targets[: e.size])
                    for key, e in journal.items()
                    if e.size
                ]
                if replay:
                    packed, _ = _pack(replay, "replay", self.spec.n)
                    conn.send(("serve", packed, True))
                    reply = conn.recv()
                    if reply[0] == "error":
                        self.health.mark(shard, DOWN)
                        raise ReliabilityError(
                            f"serve farm shard {shard} failed during"
                            f" journal replay: {reply[1]}"
                        )
                    with self._metrics_lock:
                        self.replayed_requests += len(packed[2])
            except (BrokenPipeError, EOFError, OSError):
                self._respawn(shard, proactive=proactive)
                return  # budget-bounded recursion finished the job
            with self._metrics_lock:
                self.recoveries[
                    "proactive" if proactive else "reactive"
                ] += 1
                self.shard_recoveries[shard] += 1
            self.health.mark(shard, HEALTHY)

    # -- dispatch ------------------------------------------------------
    def _send_serve(self, shard: int, packed) -> None:
        try:
            self._conns[shard].send(("serve", packed, False))
        except (BrokenPipeError, OSError):
            self._respawn(shard)
            self._conns[shard].send(("serve", packed, False))

    def _await_ack(self, shard: int, packed):
        """Collect one non-replay serve ack, surviving a worker death."""
        while True:
            try:
                reply = self._conns[shard].recv()
            except (EOFError, OSError):
                self._respawn(shard)
                self._send_serve(shard, packed)
                continue
            if reply[0] == "error":
                raise ReliabilityError(
                    f"serve farm shard {shard} failed: {reply[1]}"
                )
            _, details, elapsed, cpu, replay, snapshots = reply
            if replay:  # stale ack from a pre-respawn replay: drop
                continue
            return details, elapsed, cpu, snapshots

    def _record_journal(self, shard: int, packed, snapshots) -> None:
        """Append acknowledged pairs; prune what snapshots now cover.

        Snapshots are cut at batch boundaries in the worker and the
        parent journals the same batches in the same order, so a
        snapshot covering ``covered`` requests lands on a recorded batch
        end (checked, never assumed: otherwise the old snapshot stays).
        ``packed`` holds each key's entries as one contiguous run.
        """
        keys, counts, sources, targets = packed
        journal = self._journal[shard]
        start = 0
        for key, run in groupby(zip(keys, counts), key=itemgetter(0)):
            run = [count for _, count in run]
            end = start + sum(run)
            if end > start:
                entry = journal.get(key)
                if entry is None:
                    entry = journal[key] = _PairJournal()
                entry.append(sources[start:end], targets[start:end], run)
            start = end
        for key, snapshot, covered in snapshots:
            entry = journal.get(key)
            if entry is not None and entry.prune(covered):
                self._snapshots[shard][key] = snapshot

    def _collect_shard(self, shard: int, packed):
        """Await one shard's ack and fold it into the aggregate state.

        Returns the per-batch detail list, in ``packed`` order.  Journal
        updates are per-shard (the caller holds the shard lock); the
        aggregate metrics update takes the shared lock.
        """
        details, elapsed, cpu, snapshots = self._await_ack(shard, packed)
        m, routing, rotations, links = (
            map(sum, zip(*details)) if details else (0, 0, 0, 0)
        )
        with self._metrics_lock:
            self.metrics.record_batch(
                shard, m, routing, rotations, links, elapsed, cpu
            )
        self._record_journal(shard, packed, snapshots)
        return details

    def _dispatch(
        self, packed: Mapping[int, Any]
    ) -> tuple[int, int, int, int]:
        """Send one window to all owning shards, then collect the acks.

        ``packed`` maps each shard to its :func:`_pack`-ed message.  All
        sends complete before the first receive, so shards serve the
        window concurrently; acknowledged batches enter the journal.
        Involved shard locks are taken in sorted order (the supervisor
        takes one at a time, so lock order cannot deadlock).
        """
        shards = sorted(packed)
        for shard in shards:
            self._locks[shard].acquire()
        try:
            for shard in shards:
                self._send_serve(shard, packed[shard])
            totals = [0, 0, 0, 0]
            for shard in shards:
                for m, routing, rotations, links in self._collect_shard(
                    shard, packed[shard]
                ):
                    totals[0] += m
                    totals[1] += routing
                    totals[2] += rotations
                    totals[3] += links
        finally:
            for shard in reversed(shards):
                self._locks[shard].release()
        return tuple(totals)  # type: ignore[return-value]

    def serve_grouped(
        self,
        shard: int,
        batches: Sequence[tuple[Any, Sequence[int], Sequence[int]]],
    ) -> list[BatchServeResult]:
        """Dispatch pre-grouped key batches to one shard, detail per batch.

        ``batches`` is a list of ``(key, sources, targets)`` entries, every
        key owned by ``shard`` (validated) — the ingress gateway's dispatch
        primitive: one worker round trip serves the whole coalesced list,
        and the returned :class:`BatchServeResult` per entry carries that
        entry's exact totals, so each client request gets its own answer.
        ``sources``/``targets`` may be integer lists or integer arrays
        (the gateway passes the decoded frames' read-only views).

        Thread safety: concurrent calls for *distinct* shards are safe
        (each shard's pipe and journal are guarded by that shard's lock;
        the aggregate metrics and respawn budget are lock-guarded).
        Concurrent calls for the same shard serialize on the shard lock.
        """
        self._check_open()
        packed, order = _pack(batches, "serve_grouped", self.spec.n)
        for key in dict.fromkeys(packed[0]):
            if self.router.shard_of(key) != shard:
                raise ExperimentError(
                    f"key {key!r} routes to shard"
                    f" {self.router.shard_of(key)}, not {shard}"
                )
        if not order:
            return []
        with self._locks[shard]:
            self._send_serve(shard, packed)
            details = self._collect_shard(shard, packed)
        results: list[Any] = [None] * len(order)
        for index, (m, routing, rotations, links) in zip(order, details):
            results[index] = BatchServeResult(
                m, routing, rotations, links, None, None
            )
        return results

    # -- serving -------------------------------------------------------
    def serve(self, key: Any, u: int, v: int) -> None:
        """Serve one request for ``key`` on its owning shard (round trip)."""
        self.serve_batch(key, [u], [v])

    def serve_batch(self, key: Any, sources, targets) -> BatchServeResult:
        """Serve one key's request batch on its owning shard."""
        self._check_open()
        packed, _ = _pack(
            [(key, sources, targets)], "serve_batch", self.spec.n
        )
        m, routing, rotations, links = self._dispatch(
            {self.router.shard_of(key): packed}
        )
        return BatchServeResult(m, routing, rotations, links, None, None)

    def serve_stream(
        self,
        requests: Iterable[tuple[Any, int, int]],
        *,
        window: Optional[int] = None,
    ) -> BatchServeResult:
        """Serve a keyed request stream, ``window`` requests per round.

        ``requests`` is any iterable of ``(key, u, v)``.  Each window is
        hash-split across the owning shards and dispatched to all of them
        before any acknowledgement is awaited — the farm's concurrent hot
        path.  Returns the accumulated totals for this stream;
        :attr:`metrics` advances by the same amounts.
        """
        self._check_open()
        if window is None:
            window = self.window
        elif window < 1:
            raise ExperimentError(f"window must be >= 1, got {window}")
        iterator = iter(requests)
        totals = [0, 0, 0, 0]
        while True:
            block = list(islice(iterator, window))
            if not block:
                break
            m, routing, rotations, links = self._dispatch(
                {
                    shard: _pack(batches, "serve_stream", self.spec.n)[0]
                    for shard, batches in self.router.group(block).items()
                }
            )
            totals[0] += m
            totals[1] += routing
            totals[2] += rotations
            totals[3] += links
        return BatchServeResult(
            totals[0], totals[1], totals[2], totals[3], None, None
        )

    # -- introspection -------------------------------------------------
    def _query(self, shard: int, command: str):
        self._check_open()
        with self._locks[shard]:
            conn = self._conns[shard]
            conn.send((command,))
            reply = conn.recv()
        if reply[0] == "error":
            raise ReliabilityError(
                f"serve farm shard {shard} failed {command}: {reply[1]}"
            )
        return reply[1]

    def status(self) -> list[dict[str, Any]]:
        """Per-shard liveness report: pid, kernel availability, engines."""
        return [self._query(shard, "status") for shard in range(self.shards)]

    def session_metrics(self) -> dict[Any, dict[str, Any]]:
        """Authoritative per-key metrics, collected from the workers.

        Deterministic cost dicts (:meth:`SessionMetrics.to_dict`) — the
        cell-for-cell comparison surface of the reliability suite.
        """
        merged: dict[Any, dict[str, Any]] = {}
        for shard in range(self.shards):
            merged.update(self._query(shard, "metrics"))
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServeFarm(shards={self.shards},"
            f" requests={self.metrics.requests},"
            f" respawns={self.respawns}, closed={self._closed})"
        )
