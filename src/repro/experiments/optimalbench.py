"""Optimal-tree DP subsystem benchmark: before/after + cache trajectory.

Two measurements, recorded together in ``BENCH_optimal_dp.json``:

* **DP before/after** — the historical float64 forward pass
  (:mod:`repro.optimal.legacy`, one cold run per arity, no input sharing)
  against the DP subsystem (exact int64 forward pass sharing one
  :class:`~repro.optimal.context.DemandContext` across the arity sweep),
  on the scale's DP-dominated demand (facebook, n = 1024 at quick scale).
  ``dp.forward`` names the subsystem's forward pass (``"native"`` kernel
  or ``"numpy"`` fallback) and ``dp.reconstruct`` the tree
  reconstruction the pipeline's optimal-tree cells take (``"native"``,
  in the kernel, or ``"python"``), read off one tree built through
  :func:`~repro.optimal.general.optimal_static_tree`.  Costs are cross-checked, so the benchmark
  doubles as an equivalence check at pipeline scale.
* **Result-cache trajectory** — one DP-dominated table campaign run cold
  (empty cache directory, every cell computed and stored) and then warm
  (same directory, cells served from the cache), with the per-cell
  summaries compared for exact equality and the skip fraction recorded.

CPU time (``time.process_time``) is the primary metric, as everywhere in
``benchmarks/results/`` — wall clock on a loaded box is ±15% noisy.
Used by ``python -m repro bench-optimal``.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.core import _native
from repro.errors import ExperimentError
from repro.experiments.presets import get_scale
from repro.optimal.context import DemandContext, clear_context_cache
from repro.optimal.general import optimal_static_cost_table, optimal_static_tree
from repro.optimal.legacy import legacy_optimal_cost_table
from repro.parallel.tasks import clear_trace_cache, materialize_trace_cached
from repro.scenarios.cache import ResultCache
from repro.scenarios.core import ScenarioResult, run_specs
from repro.scenarios.registry import expand
from repro.workloads.demand import DemandMatrix

__all__ = ["DEFAULT_CAMPAIGN", "optimal_dp_benchmark"]

#: The quick-scale campaign dominated by the n=1024 optimal-tree DP
#: (facebook is the workload whose DP the ROADMAP names the long pole).
DEFAULT_CAMPAIGN = "table3"

#: Workload the before/after DP timing runs on (the campaign's).
DEFAULT_WORKLOAD = "facebook"


def _cell_summary(results: Sequence[ScenarioResult]) -> list[tuple]:
    """Order-preserving, timing-free fingerprint of a campaign's results."""
    return [
        (
            r.spec.to_dict(),
            r.total_routing,
            r.total_rotations,
            r.total_links_changed,
        )
        for r in results
    ]


def optimal_dp_benchmark(
    scale: str = "quick",
    *,
    campaign: str = DEFAULT_CAMPAIGN,
    workload: str = DEFAULT_WORKLOAD,
    ks: Optional[Sequence[int]] = None,
    include_legacy: bool = True,
    cache_dir: "str | Path | None" = None,
    verbose: bool = False,
) -> dict:
    """Run both measurements; returns a JSON-serializable record.

    ``ks`` defaults to the scale's arity axis.  ``include_legacy=False``
    skips the (slow) historical forward pass — the record then carries
    only the subsystem timing and the cache trajectory.  ``cache_dir``
    pins the cache directory (default: a temporary directory, so the
    benchmark never pollutes the real cache with its own warm entries).
    """
    scale_obj = get_scale(scale)
    ks = tuple(ks or scale_obj.ks)
    if not ks:
        raise ExperimentError("ks must name at least one arity")
    n = scale_obj.workload_n(workload)
    record: dict = {
        "benchmark": "optimal_dp",
        "config": {
            "scale": scale_obj.name,
            "campaign": campaign,
            "workload": workload,
            "n": n,
            "m": scale_obj.m,
            "seed": scale_obj.seed,
            "ks": list(ks),
        },
    }

    # ---- DP before/after across the arity sweep ----------------------
    trace = materialize_trace_cached(workload, n, scale_obj.m, scale_obj.seed)
    demand = DemandMatrix.from_trace(trace)
    per_k: dict[str, dict] = {}
    subsystem_costs: dict[int, int] = {}
    context = DemandContext.from_demand(demand)
    subsystem_total = 0.0
    for k in ks:
        if verbose:
            print(f"[bench-optimal] subsystem DP k={k} ...", flush=True)
        cpu0 = time.process_time()
        subsystem_costs[k] = optimal_static_cost_table(demand, k, context=context)
        cpu = time.process_time() - cpu0
        subsystem_total += cpu
        per_k[str(k)] = {"subsystem_cpu_seconds": cpu}
    built = optimal_static_tree(demand, ks[0], context=context)
    dp: dict = {
        # Which forward pass the subsystem timings measure.
        "forward": "native" if _native.available() else "numpy",
        # Which reconstruction built that tree (kernel layout or objects).
        "reconstruct": "python" if built.layout is None else "native",
        "per_k": per_k,
        "subsystem_cpu_seconds": subsystem_total,
    }
    if include_legacy:
        legacy_total = 0.0
        costs_match = True
        for k in ks:
            if verbose:
                print(f"[bench-optimal] legacy DP k={k} ...", flush=True)
            cpu0 = time.process_time()
            legacy_cost = legacy_optimal_cost_table(demand, k)
            cpu = time.process_time() - cpu0
            legacy_total += cpu
            per_k[str(k)]["legacy_cpu_seconds"] = cpu
            if int(round(legacy_cost)) != subsystem_costs[k]:
                costs_match = False
        dp["legacy_cpu_seconds"] = legacy_total
        dp["speedup_subsystem_over_legacy"] = (
            legacy_total / subsystem_total if subsystem_total else float("inf")
        )
        dp["costs_match"] = costs_match
    record["dp"] = dp

    # ---- result-cache trajectory on the DP-dominated campaign --------
    specs = expand(campaign, scale_obj)
    with tempfile.TemporaryDirectory(prefix="bench-optimal-cache-") as tmp:
        root = Path(cache_dir) if cache_dir is not None else Path(tmp)
        runs: dict[str, dict] = {}
        summaries: dict[str, list] = {}
        for phase in ("cold", "warm"):
            if verbose:
                print(
                    f"[bench-optimal] {phase} campaign {campaign} "
                    f"({len(specs)} cells) ...",
                    flush=True,
                )
            # Cold means cold end to end: no warm trace/demand/context
            # memos left over from the DP timing above.
            clear_trace_cache()
            clear_context_cache()
            cache = ResultCache(root)
            cpu0 = time.process_time()
            wall0 = time.perf_counter()
            results = run_specs(specs, cache=cache)
            runs[phase] = {
                "cpu_seconds": time.process_time() - cpu0,
                "wall_seconds": time.perf_counter() - wall0,
                "cache_hits": cache.hits,
                "cache_stores": cache.stores,
            }
            summaries[phase] = _cell_summary(results)
        record["cache"] = {
            "campaign": campaign,
            "cells": len(specs),
            "cold": runs["cold"],
            "warm": runs["warm"],
            "warm_skipped_cells": runs["warm"]["cache_hits"],
            "skip_fraction": (
                runs["warm"]["cache_hits"] / len(specs) if specs else 0.0
            ),
            "summaries_match": summaries["cold"] == summaries["warm"],
            "speedup_warm_over_cold": (
                runs["cold"]["cpu_seconds"] / runs["warm"]["cpu_seconds"]
                if runs["warm"]["cpu_seconds"]
                else float("inf")
            ),
        }
    return record

