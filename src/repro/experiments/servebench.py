"""Serve-farm benchmark: resident scalar serving + shard-scaling farm.

Two measurements, emitted as one machine-readable record
(``python -m repro bench-servefarm``, recorded under
``benchmarks/results/BENCH_servefarm.json``):

* **Scalar modes** — single ``serve(u, v)`` calls on one network, per
  serving mode: ``resident`` (native kernel owning the tree state across
  calls) and ``object`` (the pure-Python reference engine).  Modes are timed
  by :func:`~repro.experiments.benchkit.best_of_interleaved` (interleaved
  repeats, best CPU and wall kept), the speedup is CPU-based, and cost
  totals are cross-checked exactly.
* **Farm scaling** — a :class:`~repro.serving.ServeFarm` under keyed Zipf
  traffic at increasing shard counts, recording p50/p99 per-request
  latency and aggregate requests/second two ways: observed wall clock,
  and *capacity* (requests over the busiest shard's summed worker-side
  serve time — the farm's critical path).  The recorded scaling factor
  uses capacity: it is what adding shards buys, and wall clock tracks it
  exactly when the host has a core per shard (observed speedups are
  informational — CI boxes vary — while equality gates are hard, so the
  record's provenance block carries the host's ``cpu_count``).  Per-key
  cost totals must agree exactly across shard counts (same keyed
  streams, shard-count-independent discipline).
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.core.engine import native_available
from repro.errors import ExperimentError
from repro.experiments.benchkit import (
    all_equal,
    best_of_interleaved,
    keyed_stream,
    require_engines,
)
from repro.net.registry import build_network
from repro.workloads.synthetic import zipf_trace

__all__ = [
    "SCALAR_MODES",
    "default_scalar_modes",
    "servefarm_benchmark",
]

#: Scalar serving modes, fastest first, and the engine each one runs.
SCALAR_MODES = ("resident", "object")
_MODE_ENGINES = {"resident": "native", "object": "object"}


def default_scalar_modes() -> tuple[str, ...]:
    """Every scalar mode measurable in this process.

    The resident mode needs the compiled kernel; without it only the
    object engine is measured (benchmarking the fallback as "native"
    would record a lie).
    """
    if native_available():
        return SCALAR_MODES
    return ("object",)


def _scalar_run(mode: str, n: int, k: int, policy: str, sources, targets):
    """Build one network (untimed); return the timed scalar-serve pass."""
    net = build_network(
        "kary-splaynet",
        n=n,
        k=k,
        engine=_MODE_ENGINES[mode],
        params={"policy": policy},
    )

    def run() -> tuple[int, int, int]:
        serve = net.serve
        routing = rotations = links = 0
        for u, v in zip(sources, targets):
            result = serve(u, v)
            routing += result.routing_cost
            rotations += result.rotations
            links += result.links_changed
        return routing, rotations, links

    return run


def servefarm_benchmark(
    n: int = 1024,
    k: int = 4,
    *,
    scalar_m: int = 2_000,
    farm_m: int = 100_000,
    zipf_alpha: float = 1.2,
    seed: int = 0,
    policy: str = "center",
    repeats: int = 1,
    scalar_modes: Optional[Sequence[str]] = None,
    shard_counts: Sequence[int] = (1, 2),
    keys: int = 8,
    window: int = 8_192,
) -> dict:
    """Measure resident scalar serving and farm shard scaling.

    Returns a JSON-serializable dict with per-mode scalar throughput
    (wall and CPU, CPU-based speedups, exact totals cross-check) and
    per-shard-count farm throughput (aggregate wall req/s, p50/p99
    latency, exact totals cross-check).  ``scalar_modes`` defaults to
    :func:`default_scalar_modes`; requesting a native mode on a machine
    without the kernel is an error rather than a silently mislabeled
    object measurement.
    """
    if repeats < 1:
        raise ExperimentError(f"repeats must be >= 1, got {repeats}")
    if keys < 1:
        raise ExperimentError(f"keys must be >= 1, got {keys}")
    if scalar_modes is None:
        scalar_modes = default_scalar_modes()
    scalar_modes = tuple(scalar_modes)
    for mode in scalar_modes:
        if mode not in SCALAR_MODES:
            raise ExperimentError(
                f"unknown scalar mode {mode!r}; choose from {SCALAR_MODES}"
            )
    require_engines(
        (_MODE_ENGINES[mode] for mode in scalar_modes),
        "use scalar_modes=('object',) or fix the toolchain",
    )
    shard_counts = tuple(shard_counts)
    if not shard_counts or any(s < 1 for s in shard_counts):
        raise ExperimentError(
            f"shard_counts must be positive, got {shard_counts!r}"
        )

    result: dict = {
        "benchmark": "servefarm",
        "config": {
            "n": n,
            "k": k,
            "scalar_m": scalar_m,
            "farm_m": farm_m,
            "trace": "zipf",
            "zipf_alpha": zipf_alpha,
            "seed": seed,
            "policy": policy,
            "repeats": repeats,
            "scalar_modes": list(scalar_modes),
            "shard_counts": list(shard_counts),
            "keys": keys,
            "window": window,
            "interleaved": True,
        },
        "native_available": native_available(),
        "scalar": {"modes": {}},
        "farm": {"shards": {}},
    }

    # -- scalar modes (interleaved repeats, best-of kept) ---------------
    if scalar_modes and scalar_m:
        trace = zipf_trace(n, scalar_m, zipf_alpha, seed)
        sources = trace.sources.tolist()
        targets = trace.targets.tolist()
        timings = best_of_interleaved(
            scalar_modes,
            repeats,
            lambda mode: _scalar_run(mode, n, k, policy, sources, targets),
        )
        for mode, timing in timings.items():
            routing, rotations, links = timing.result
            result["scalar"]["modes"][mode] = {
                "seconds": timing.wall,
                "cpu_seconds": timing.cpu,
                "requests_per_second": scalar_m / timing.wall,
                "requests_per_second_cpu": (
                    scalar_m / timing.cpu if timing.cpu > 0 else float("inf")
                ),
                "total_routing": routing,
                "total_rotations": rotations,
                "total_links_changed": links,
            }
        match = all_equal(timing.result for timing in timings.values())
        if match is not None:
            result["scalar"]["totals_match"] = match
        resident, reference = timings.get("resident"), timings.get("object")
        if resident and reference and resident.cpu > 0:
            result["scalar"]["speedup_resident_over_object"] = (
                reference.cpu / resident.cpu
            )

    # -- farm scaling (best wall per shard count) -----------------------
    if shard_counts and farm_m:
        from repro.serving import ServeFarm

        farm_trace = zipf_trace(n, farm_m, zipf_alpha, seed + 1)
        stream = keyed_stream(farm_trace, keys)
        farm_totals: dict[int, tuple[int, int, int]] = {}
        for shards in shard_counts:
            best: Optional[dict] = None
            for _ in range(repeats):
                with ServeFarm(
                    "kary-splaynet",
                    n=n,
                    k=k,
                    params={"policy": policy},
                    shards=shards,
                    window=window,
                ) as farm:
                    w0 = time.perf_counter()
                    batch = farm.serve_stream(stream)
                    wall = time.perf_counter() - w0
                    busy = farm.metrics.critical_path_seconds
                    if best is None or busy < best["busy_seconds_max"]:
                        best = {
                            "seconds": wall,
                            "requests_per_second": farm_m / wall,
                            "busy_seconds_max": busy,
                            "busy_seconds_per_shard": {
                                str(s): t
                                for s, t in sorted(
                                    farm.metrics.busy_seconds.items()
                                )
                            },
                            "capacity_requests_per_second": (
                                farm_m / busy if busy > 0 else float("inf")
                            ),
                            "latency_p50_seconds": farm.metrics.latency_p50,
                            "latency_p99_seconds": farm.metrics.latency_p99,
                            "windows": farm.metrics.windows,
                            "total_routing": batch.total_routing,
                            "total_rotations": batch.total_rotations,
                            "total_links_changed": batch.total_links_changed,
                        }
            farm_totals[shards] = (
                best["total_routing"],
                best["total_rotations"],
                best["total_links_changed"],
            )
            result["farm"]["shards"][str(shards)] = best
        match = all_equal(farm_totals.values())
        if match is not None:
            result["farm"]["totals_match"] = match
        base = min(shard_counts)
        base_entry = result["farm"]["shards"][str(base)]
        for shards in shard_counts:
            if shards == base:
                continue
            entry = result["farm"]["shards"][str(shards)]
            if base_entry["capacity_requests_per_second"] > 0:
                result["farm"][f"scaling_{shards}_over_{base}"] = (
                    entry["capacity_requests_per_second"]
                    / base_entry["capacity_requests_per_second"]
                )
            if base_entry["requests_per_second"] > 0:
                result["farm"][f"scaling_{shards}_over_{base}_wall"] = (
                    entry["requests_per_second"]
                    / base_entry["requests_per_second"]
                )
    return result

