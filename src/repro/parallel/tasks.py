"""Worker-side trace materialization for experiment cells.

A cell (:class:`repro.scenarios.ScenarioSpec`) names its workload by
coordinates ``(workload, n, m, seed)`` and *regenerates* the trace inside
whichever process runs it — shipping four scalars instead of a
million-row trace array keeps IPC negligible and makes cells independent
of parent-process state.  :func:`materialize_trace` is the one place a
workload name is turned into a generator call.

Regenerated traces are memoized per process
(:func:`materialize_trace_cached`), so the up-to-27 cells of one paper
table materialize their shared trace once per worker rather than once
per cell; the static-optimum cells of a table row likewise share one
demand matrix (:func:`materialize_demand_cached`).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ExperimentError
from repro.workloads.datacenter import facebook_trace, hpc_trace, projector_trace
from repro.workloads.demand import DemandMatrix
from repro.workloads.synthetic import (
    permutation_trace,
    temporal_trace,
    uniform_trace,
    zipf_trace,
)
from repro.workloads.trace import Trace

__all__ = [
    "workload_generator",
    "materialize_trace",
    "materialize_trace_cached",
    "materialize_demand_cached",
    "clear_trace_cache",
    "trace_cache_stats",
]

#: Workloads named outright; ``temporal-<p>`` and ``zipf-<alpha>`` carry
#: their parameter in the name instead.
_NAMED_WORKLOADS: dict[str, Callable[[int, int, int], Trace]] = {
    "uniform": uniform_trace,
    "hpc": hpc_trace,
    "projector": projector_trace,
    "facebook": facebook_trace,
    "permutation": permutation_trace,
}


def workload_generator(workload: str) -> Callable[[int, int, int], Trace]:
    """The trace generator ``gen(n, m, seed)`` a workload name selects.

    Raises :class:`~repro.errors.ExperimentError` for a name no generator
    reads, including a ``temporal-``/``zipf-`` name whose parameter is
    not a number.
    """
    generator = _NAMED_WORKLOADS.get(workload)
    if generator is not None:
        return generator
    family, _, value = workload.partition("-")
    if family in ("temporal", "zipf"):
        try:
            parameter = float(value)
        except ValueError:
            raise ExperimentError(
                f"workload {workload!r} needs a numeric {family} parameter"
            ) from None
        if family == "temporal":
            return lambda n, m, seed: temporal_trace(n, m, parameter, seed)
        return lambda n, m, seed: zipf_trace(n, m, alpha=parameter, seed=seed)
    raise ExperimentError(f"unknown workload {workload!r}")


def materialize_trace(workload: str, n: int, m: int, seed: int) -> Trace:
    """Generate the trace at ``(workload, n, m, seed)``."""
    return workload_generator(workload)(n, m, seed)


# ----------------------------------------------------------------------
# per-worker trace memoization
# ----------------------------------------------------------------------
#: (workload, n, m, seed) → materialized trace, per process.  A paper table
#: fans out up to 27 cells over the *same* trace; without this cache every
#: cell regenerates it from scratch.
_TRACE_CACHE: dict[tuple[str, int, int, int], Trace] = {}
#: Same keys → the trace's demand matrix, shared by the static-optimum
#: cells of a table row (the DP subsystem's "dense demand computed once
#: per (workload, n, seed)" input; see repro.optimal.context for the
#: derived inputs shared below this layer).
_DEMAND_CACHE: dict[tuple[str, int, int, int], DemandMatrix] = {}
#: Keys pre-seeded with caller-provided traces (never auto-evicted: for
#: those, regeneration from coordinates would produce a *different* trace).
_PINNED_KEYS: set[tuple[str, int, int, int]] = set()
#: Bound on distinct auto-cached traces (a full reproduction touches 8
#: workloads; paper scale is ~8 MB per million-request trace).
_TRACE_CACHE_MAX = 16
_trace_cache_hits = 0
_trace_cache_misses = 0


def materialize_trace_cached(workload: str, n: int, m: int, seed: int) -> Trace:
    """Memoized :func:`materialize_trace` (per-process, bounded).

    Traces are immutable once generated, so sharing one instance across
    cells is safe; when the memo would exceed :data:`_TRACE_CACHE_MAX`
    distinct traces the auto-generated entries are dropped — pinned
    entries (:func:`seed_trace_cache`) always survive.
    """
    global _trace_cache_hits, _trace_cache_misses
    key = (workload, n, m, seed)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        _trace_cache_misses += 1
        if len(_TRACE_CACHE) >= _TRACE_CACHE_MAX:
            for stale in [k for k in _TRACE_CACHE if k not in _PINNED_KEYS]:
                del _TRACE_CACHE[stale]
        # Looked up at call time, so a wrapper installed on this module
        # (perfbench's layer clock) sees every generation.
        trace = materialize_trace(workload, n, m, seed)
        _TRACE_CACHE[key] = trace
    else:
        _trace_cache_hits += 1
    return trace


def seed_trace_cache(trace: Trace, workload: str, seed: int) -> tuple[str, int, int, int]:
    """Pre-seed (and pin) the memo with an explicit trace; returns the key.

    Used by the serial experiment adapters when a caller hands them a
    pre-built trace instead of workload coordinates.  Pinned entries are
    exempt from eviction until :func:`evict_trace` / :func:`clear_trace_cache`.
    """
    key = (workload, trace.n, trace.m, seed)
    _TRACE_CACHE[key] = trace
    # A demand counted from a previously *generated* trace under these
    # coordinates no longer describes the pinned trace — drop it, or the
    # static-optimum cells would build from the wrong workload.
    _DEMAND_CACHE.pop(key, None)
    _PINNED_KEYS.add(key)
    return key


def evict_trace(key: tuple[str, int, int, int]) -> None:
    """Drop one cache entry (undo of :func:`seed_trace_cache`)."""
    _TRACE_CACHE.pop(key, None)
    _DEMAND_CACHE.pop(key, None)
    _PINNED_KEYS.discard(key)


def clear_trace_cache() -> None:
    """Empty the per-process trace/demand memos and reset the counters."""
    global _trace_cache_hits, _trace_cache_misses
    _TRACE_CACHE.clear()
    _DEMAND_CACHE.clear()
    _PINNED_KEYS.clear()
    _trace_cache_hits = 0
    _trace_cache_misses = 0


def materialize_demand_cached(
    trace: Trace, key: tuple[str, int, int, int]
) -> DemandMatrix:
    """The demand matrix of the trace memoized under ``key``, per process.

    Keyed by the trace's coordinates (the same key as the trace memo, and
    evicted alongside it), so the up-to-9 static-optimum cells of a table
    row count their shared trace into a matrix once.
    """
    demand = _DEMAND_CACHE.get(key)
    if demand is None:
        if len(_DEMAND_CACHE) >= _TRACE_CACHE_MAX:
            for stale in [k for k in _DEMAND_CACHE if k not in _PINNED_KEYS]:
                del _DEMAND_CACHE[stale]
        demand = DemandMatrix.from_trace(trace)
        _DEMAND_CACHE[key] = demand
    return demand


def trace_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters of this process's trace memo (for tests)."""
    return {
        "hits": _trace_cache_hits,
        "misses": _trace_cache_misses,
        "size": len(_TRACE_CACHE),
    }
