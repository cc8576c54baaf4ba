"""The one execution core: run any spec list, serially or across processes.

Every experiment surface of the repository — the serial table functions,
the parallel table runners, ``run_all`` and the ``repro scenarios`` CLI —
funnels through :func:`run_specs` here, and every cell, the sweep
engine's simulation cells included, runs through :func:`run_scenario`.
That buys three properties in one place instead of three divergent code
paths:

* **Determinism** — results are reassembled in submission order, so a run
  is bit-identical for any worker count.
* **Trace memoization** — cells share the per-process trace memo of
  :mod:`repro.parallel.tasks`, so a table's up-to-27 cells materialize the
  workload once per worker instead of once per cell.
* **Engine policy** — engine-capable online cells default to the best
  available engine (the native C kernel where it builds, the pure-Python
  object engine otherwise); ``engine="object"`` remains one field away for
  cross-checks.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.analysis.distance import total_distance_via_potentials
from repro.core.builders import build_complete_tree
from repro.core.centroid import build_centroid_tree
from repro.errors import ExperimentError
from repro.net.registry import build_network, require_algorithm
from repro.network.cost import CostModel, ROUTING_ONLY, UNIT_ROTATIONS
from repro.network.simulator import Simulator
from repro.optimal.uniform import optimal_uniform_cost
from repro.parallel.pool import ParallelConfig, parallel_map_outcomes
from repro.parallel.tasks import (
    evict_trace,
    materialize_demand_cached,
    materialize_trace_cached,
    seed_trace_cache,
)
from repro.scenarios.spec import ScenarioSpec
from repro.workloads.trace import Trace

__all__ = ["ScenarioResult", "run_scenario", "run_specs"]

#: Analytic algorithm → closed-form cost in unordered-pair units.
_ANALYTIC: dict[str, Callable[[int, int], int]] = {
    "centroid-tree-distance": lambda n, k: total_distance_via_potentials(
        build_centroid_tree(n, k)
    )
    // 2,
    "optimal-uniform-distance": lambda n, k: optimal_uniform_cost(n, k),
    "complete-tree-distance": lambda n, k: total_distance_via_potentials(
        build_complete_tree(n, k)
    )
    // 2,
}

_COST_MODELS: dict[str, CostModel] = {
    "routing": ROUTING_ONLY,
    "unit_rotations": UNIT_ROTATIONS,
}


@dataclass(frozen=True)
class ScenarioResult:
    """Scalar outcome of one cell (small and picklable by construction)."""

    spec: ScenarioSpec
    total_routing: int
    total_rotations: int
    total_links_changed: int
    elapsed_seconds: float = 0.0

    @property
    def average_routing(self) -> float:
        return self.total_routing / self.spec.m if self.spec.m else 0.0

    def cost(self, model: Optional[CostModel] = None) -> float:
        """Total cost under a model (default: the spec's ``cost_model``)."""
        if model is None:
            model = _COST_MODELS[self.spec.cost_model]
        return (
            model.routing_weight * self.total_routing
            + model.rotation_cost * self.total_rotations
            + model.link_cost * self.total_links_changed
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly flat record (one JSONL line in the result sink)."""
        return {
            "spec": self.spec.to_dict(),
            "total_routing": self.total_routing,
            "total_rotations": self.total_rotations,
            "total_links_changed": self.total_links_changed,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioResult":
        return cls(
            spec=ScenarioSpec.from_dict(data["spec"]),
            total_routing=data["total_routing"],
            total_rotations=data["total_rotations"],
            total_links_changed=data["total_links_changed"],
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
        )


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Execute one cell (module-level, so it pickles into workers).

    Analytic cells evaluate their closed form.  The others materialize
    their trace from the per-process memo and build through
    :func:`repro.net.build_network`: static baselines are costed through
    their distance oracle in one vectorized ``serve_trace`` query, with
    demand-aware constructions reading the memoized demand matrix, and
    online algorithms serve the full trace through the simulator.
    """
    start = time.perf_counter()
    kind = spec.kind
    if kind == "analytic":
        totals = (_ANALYTIC[spec.algorithm](spec.n, spec.k), 0, 0)
    else:
        trace = materialize_trace_cached(*spec.trace_key())
        if kind == "static":
            demand = None
            if require_algorithm(spec.algorithm).needs_demand:
                demand = materialize_demand_cached(trace, spec.trace_key())
            network = build_network(spec.network_spec(), demand=demand)
            served = network.serve_trace(trace.sources, trace.targets)
            totals = (int(served.total_routing), 0, 0)
        else:
            run = Simulator().run(build_network(spec.network_spec()), trace)
            totals = (
                run.total_routing,
                run.total_rotations,
                run.total_links_changed,
            )
    return ScenarioResult(spec, *totals, time.perf_counter() - start)


def run_specs(
    specs: Sequence[ScenarioSpec],
    *,
    jobs: int = 1,
    config: Optional[ParallelConfig] = None,
    sink: Optional[Any] = None,
    traces: Optional[Mapping[tuple[str, int, int, int], Trace]] = None,
    cache: Optional[Any] = None,
    refresh: bool = False,
    resume: bool = False,
) -> list[ScenarioResult]:
    """Run a spec list through the core; results come back in spec order.

    Parameters
    ----------
    jobs, config:
        Worker processes: ``jobs=1`` (default) runs in-process,
        ``jobs=0``/negative resolves to all cores, and an explicit
        :class:`ParallelConfig` overrides ``jobs``.  Serial and pooled
        runs share one path
        (:func:`~repro.parallel.pool.parallel_map_outcomes`), so the
        config's reliability knobs apply to both: ``retries``/``backoff``
        re-attempt transiently failing cells,
        ``task_timeout``/``pool_respawns`` bound stuck and killed workers
        (pooled), and ``on_error="collect"`` turns per-cell failures into
        skipped cells — a warning per failure, the campaign completes,
        and the returned list holds the cells that succeeded (still in
        spec order).  The default remains fail-fast.
    sink:
        Optional result sink (anything with ``write(result)`` — any
        :class:`~repro.results.store.ResultStore` backend, e.g.
        :class:`repro.results.JsonlStore` or
        :class:`repro.results.SqliteStore`).  Every completed cell
        streams to the sink the moment it finishes — serially in spec
        order, pooled in completion order — so a killed campaign keeps
        every finished cell on disk.  Cache hits are written too, each
        right after the computed cell before it (or first, when none
        precedes it), so the sink record stays a complete campaign record
        and a serial record stays in spec order.
    traces:
        Optional pre-built traces keyed by ``(workload, n, m, seed)``,
        pre-seeded into the in-process trace memo — for callers holding a
        custom trace that has no generator.  Serial only: worker processes
        cannot see the parent's memo.  Cells running on a pinned trace
        bypass the result cache entirely (their coordinates no longer
        describe their data).
    cache:
        A :class:`repro.scenarios.cache.ResultCache`, ``True`` (the
        default cache directory), ``False`` (caching off), or ``None`` —
        defer to the ``REPRO_RESULT_CACHE`` environment variable.  Cells
        whose spec fingerprint has a recorded result are skipped (serial
        and pooled alike); freshly computed cells are stored.
    refresh:
        With a cache, recompute every cell and overwrite its entry
        (stale-cache escape hatch).
    resume:
        Crash-safe campaign resume: seed completed cells from the sink's
        existing record — streamed through the store's own iterator for
        any :class:`~repro.results.store.ResultStore` backend (for JSONL,
        tolerant of a truncated tail; see
        :func:`repro.results.iter_results_jsonl`) — and run only the
        remainder.  Requires a path-backed, append-mode sink; resumed
        cells are returned in place but **not** re-written to the
        record, so it stays deduplicated.  Combined with the result
        cache, a re-run after any interruption recomputes only cells
        that genuinely never finished.
    """
    from repro.scenarios.cache import resolve_result_cache

    specs = list(specs)
    serial = config.resolved_jobs() == 1 if config is not None else jobs == 1
    resolved_cache = resolve_result_cache(cache)
    pinned_keys: frozenset = frozenset(traces or ())
    if traces and not serial:
        raise ExperimentError(
            "explicit traces require serial execution (jobs=1): worker "
            "processes regenerate traces from coordinates and cannot see "
            "the caller's trace objects"
        )
    for (workload, n, m, seed), trace in (traces or {}).items():
        if (n, m) != (trace.n, trace.m):
            raise ExperimentError(
                f"traces key ({workload!r}, {n}, {m}, {seed}) does not "
                f"match the supplied trace (n={trace.n}, m={trace.m}); "
                "cells under the mismatched key would silently run on a "
                "regenerated trace"
            )

    def cacheable(cell: ScenarioSpec) -> bool:
        return resolved_cache is not None and cell.trace_key() not in pinned_keys

    def finish(cell: ScenarioSpec, result: ScenarioResult) -> ScenarioResult:
        if cacheable(cell):
            resolved_cache.store(result)
        return result

    # -- resume: seed completed cells from the sink's on-disk record ----
    resumed: dict[int, ScenarioResult] = {}
    if resume:
        resumed = _seed_resume(specs, sink)
        for index, result in resumed.items():
            # Re-store into the result cache so the *next* interruption
            # recovers these cells even without the JSONL record.
            finish(specs[index], result)

    hits: dict[int, ScenarioResult] = {}
    if resolved_cache is not None and not refresh:
        for index, cell in enumerate(specs):
            if index in resumed or not cacheable(cell):
                continue
            hit = resolved_cache.lookup(cell)
            if hit is not None:
                hits[index] = hit
    # Cache hits are not computed again; each rides with the pending cell
    # before it, so writing it after that cell's outcome keeps a serial
    # record in spec order.  ``after[p + 1]`` follows pending cell ``p``;
    # ``after[0]`` holds the hits that precede every pending cell.
    pending: list[int] = []
    after: list[list[ScenarioResult]] = [[]]
    for index in range(len(specs)):
        if index in hits:
            after[-1].append(hits[index])
        elif index not in resumed:
            pending.append(index)
            after.append([])
    merged: list[Optional[ScenarioResult]] = [None] * len(specs)
    for index, prior in {**resumed, **hits}.items():
        merged[index] = prior

    def write(*results: ScenarioResult) -> None:
        if sink is not None:
            for result in results:
                sink.write(result)

    def stream(outcome) -> None:
        # Runs in the calling process as each cell completes: cache store
        # and sink write immediately, so an abort later in the campaign
        # cannot lose this cell.
        spec_index = pending[outcome.index]
        if outcome.ok:
            merged[spec_index] = finish(specs[spec_index], outcome.value)
            write(merged[spec_index])
        else:
            warnings.warn(
                f"cell {specs[spec_index]!r} failed after"
                f" {outcome.attempts} attempt(s): {outcome.error}",
                RuntimeWarning,
            )
        write(*after[outcome.index + 1])

    seeded: list[tuple[str, int, int, int]] = []
    try:
        for (workload, _, _, seed), trace in (traces or {}).items():
            seeded.append(seed_trace_cache(trace, workload, seed))
        write(*after[0])
        parallel_map_outcomes(
            run_scenario,
            [specs[index] for index in pending],
            config=config,
            jobs=None if config else jobs,
            on_outcome=stream,
        )
    finally:
        for key in seeded:
            evict_trace(key)
    return [result for result in merged if result is not None]


def _seed_resume(
    specs: Sequence[ScenarioSpec], sink: Optional[Any]
) -> dict[int, ScenarioResult]:
    """Map spec indices to results recovered from the sink's on-disk record.

    Backend-independent: an iterable sink (any
    :class:`~repro.results.store.ResultStore` — JSONL or SQLite) is
    streamed directly, one record in memory at a time; a plain path-backed
    sink falls back to the tolerant JSONL reader.  Prior results are
    matched to pending specs by full-spec identity (``spec.to_json()``),
    duplicate records claiming one cell each.
    """
    from collections import deque

    from repro.results.jsonl import iter_results_jsonl

    path = getattr(sink, "path", None)
    if path is None:
        raise ExperimentError(
            "resume=True needs a path-backed sink (e.g. JsonlStore"
            " or SqliteStore) so completed cells can be recovered from"
            " its record"
        )
    if getattr(sink, "overwrite", False):
        raise ExperimentError(
            "resume=True with an overwrite sink would discard the very"
            " record it resumes from; use append mode"
        )
    resumed: dict[int, ScenarioResult] = {}
    path = Path(path)
    if not path.exists():
        return resumed
    records = iter(sink) if hasattr(sink, "__iter__") else iter_results_jsonl(path)
    prior: dict[str, Any] = {}
    for result in records:
        prior.setdefault(result.spec.to_json(), deque()).append(result)
    for index, cell in enumerate(specs):
        bucket = prior.get(cell.to_json())
        if bucket:
            resumed[index] = bucket.popleft()
    return resumed
