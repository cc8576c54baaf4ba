"""Serve-farm benchmark: resident scalar serving + shard-scaling farm.

Two measurements back the PR's perf claims, emitted as one
machine-readable record (``python -m repro bench-servefarm``,
``benchmarks/bench_servefarm.py``, recorded under
``benchmarks/results/BENCH_servefarm.json``):

* **Scalar modes** — single ``serve(u, v)`` calls on one network, per
  serving mode: ``resident`` (native kernel owning the tree state across
  calls) and ``flat`` (the pure-Python array engine).  Modes are
  interleaved across repeats, CPU time is recorded next to wall clock,
  best-of is kept, the speedup is CPU-based, and cost totals are
  cross-checked exactly.
* **Farm scaling** — a :class:`~repro.serving.ServeFarm` under keyed Zipf
  traffic at increasing shard counts, recording p50/p99 per-request
  latency and aggregate requests/second two ways: observed wall clock,
  and *capacity* (requests over the busiest shard's summed worker-side
  serve time — the farm's critical path).  The recorded scaling factor
  uses capacity: it is what adding shards buys, and wall clock tracks it
  exactly when the host has a core per shard (PR 6 precedent: observed
  speedups are informational — CI boxes vary — while equality gates are
  hard, so the host's ``cpu_count`` is recorded alongside).  Per-key
  cost totals must agree exactly across shard counts (same keyed
  streams, shard-count-independent discipline).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.core.engine import native_available
from repro.errors import ExperimentError
from repro.net.registry import build_network
from repro.workloads.synthetic import zipf_trace

__all__ = [
    "SCALAR_MODES",
    "default_scalar_modes",
    "servefarm_benchmark",
    "write_servefarm_record",
]

#: Scalar serving modes, fastest first.
SCALAR_MODES = ("resident", "flat")


def default_scalar_modes() -> tuple[str, ...]:
    """Every scalar mode measurable in this process.

    The resident mode needs the compiled kernel; without it only the
    flat engine is measured (benchmarking the silent fallback as
    "native" would record a lie).
    """
    if native_available():
        return SCALAR_MODES
    return ("flat",)


def _measure_scalar(mode: str, n: int, k: int, policy: str, sources, targets):
    """One timed scalar-serve pass; returns (wall, cpu, totals)."""
    net = build_network(
        "kary-splaynet",
        n=n,
        k=k,
        engine="flat" if mode == "flat" else "native",
        params={"policy": policy},
    )
    serve = net.serve
    routing = rotations = links = 0
    w0 = time.perf_counter()
    c0 = time.process_time()
    for u, v in zip(sources, targets):
        result = serve(u, v)
        routing += result.routing_cost
        rotations += result.rotations
        links += result.links_changed
    cpu = time.process_time() - c0
    wall = time.perf_counter() - w0
    return wall, cpu, (routing, rotations, links)


def _keyed_stream(trace, keys: int) -> list:
    """Deterministic keyed traffic: Zipf requests, keys round-robin."""
    sources = trace.sources.tolist()
    targets = trace.targets.tolist()
    return [
        (f"key-{i % keys}", sources[i], targets[i])
        for i in range(len(sources))
    ]


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
    flat measurement.
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
    if (
        any(mode != "flat" for mode in scalar_modes)
        and not native_available()
    ):
        from repro.core import _native

        raise ExperimentError(
            "the resident scalar mode needs the compiled kernel, which is"
            f" unavailable ({_native.build_error()}); use"
            " scalar_modes=('flat',) or fix the toolchain"
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
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
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
        best_wall: dict[str, float] = {}
        best_cpu: dict[str, float] = {}
        totals: dict[str, tuple[int, int, int]] = {}
        for _ in range(repeats):
            for mode in scalar_modes:
                wall, cpu, mode_totals = _measure_scalar(
                    mode, n, k, policy, sources, targets
                )
                if mode not in best_wall or wall < best_wall[mode]:
                    best_wall[mode] = wall
                if mode not in best_cpu or cpu < best_cpu[mode]:
                    best_cpu[mode] = cpu
                totals[mode] = mode_totals
        for mode in scalar_modes:
            wall, cpu = best_wall[mode], best_cpu[mode]
            routing, rotations, links = totals[mode]
            result["scalar"]["modes"][mode] = {
                "seconds": wall,
                "cpu_seconds": cpu,
                "requests_per_second": scalar_m / wall,
                "requests_per_second_cpu": (
                    scalar_m / cpu if cpu > 0 else float("inf")
                ),
                "total_routing": routing,
                "total_rotations": rotations,
                "total_links_changed": links,
            }
        if len(totals) > 1:
            reference = next(iter(totals.values()))
            result["scalar"]["totals_match"] = all(
                t == reference for t in totals.values()
            )
        if best_cpu.get("resident") and "flat" in best_cpu:
            result["scalar"]["speedup_resident_over_flat"] = (
                best_cpu["flat"] / best_cpu["resident"]
            )

    # -- farm scaling (best wall per shard count) -----------------------
    if shard_counts and farm_m:
        from repro.serving import ServeFarm

        farm_trace = zipf_trace(n, farm_m, zipf_alpha, seed + 1)
        stream = _keyed_stream(farm_trace, keys)
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
        if len(farm_totals) > 1:
            reference = next(iter(farm_totals.values()))
            result["farm"]["totals_match"] = all(
                t == reference for t in farm_totals.values()
            )
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


def write_servefarm_record(result: dict, path: "str | Path") -> Path:
    """Persist a benchmark record as pretty-printed JSON."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return out
