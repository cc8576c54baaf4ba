"""Serve-loop throughput benchmark: object vs. native engine.

The paper's experiments are traces of 10^5–10^6 ``serve(u, v)`` calls, so
end-to-end reproduction time is dominated by the serve hot loop.  This
module measures that loop in isolation — requests/second and
rotations/second for each engine on the same Zipf trace — and emits a
machine-readable dict, used by ``python -m repro bench-hotpath`` and by
the tier-1 smoke test.

Methodology: engines are timed by
:func:`~repro.experiments.benchkit.best_of_interleaved` — interleaved
across repeats, CPU time next to wall clock, best-of-``repeats`` kept per
engine for both.  Recorded speedups are computed from CPU time — on a
loaded box wall-clock ratios wander by ±15%, CPU ratios do not.

The engines are also cross-checked: their cost totals must agree exactly
(they implement the same discipline), so a benchmark run doubles as an
end-to-end equivalence check at benchmark scale.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.engine import ENGINES, native_available
from repro.errors import ExperimentError
from repro.experiments.benchkit import (
    all_equal,
    batch_totals,
    best_of_interleaved,
    require_engines,
)
from repro.net.registry import build_network
from repro.workloads.synthetic import zipf_trace

__all__ = [
    "default_hotpath_engines",
    "hotpath_benchmark",
]

_HOTPATH_ALGORITHMS = {
    "ksplaynet": "kary-splaynet",
    "centroid-splaynet": "centroid-splaynet",
}

def default_hotpath_engines() -> tuple[str, ...]:
    """Every engine measurable in this process.

    ``"native"`` is included only when the compiled kernel is available —
    benchmarking its object fallback under that label would record a lie.
    """
    return tuple(
        engine
        for engine in ENGINES
        if engine != "native" or native_available()
    )


def _build_network(network: str, n: int, k: int, policy: str, engine: str):
    algorithm = _HOTPATH_ALGORITHMS.get(network)
    if algorithm is None:
        raise ExperimentError(
            f"unknown hotpath network {network!r};"
            " choose 'ksplaynet' or 'centroid-splaynet'"
        )
    return build_network(
        algorithm, n=n, k=k, engine=engine, params={"policy": policy}
    )


def hotpath_benchmark(
    n: int = 1024,
    k: int = 4,
    m: int = 100_000,
    *,
    network: str = "ksplaynet",
    zipf_alpha: float = 1.2,
    seed: int = 0,
    policy: str = "center",
    repeats: int = 1,
    engines: Optional[Sequence[str]] = None,
) -> dict:
    """Measure serve-loop throughput per engine on one Zipf trace.

    Each engine serves the identical trace on a freshly built network;
    the ``repeats`` rounds interleave the engines and the best wall-clock
    and best CPU time are kept per engine (self-adjustment makes state
    carry over, so every measurement restarts from the initial topology).
    ``engines`` defaults to :func:`default_hotpath_engines`; requesting
    ``"native"`` explicitly on a machine without the kernel is an error
    rather than a silently mislabeled object measurement.  Returns a
    JSON-serializable dict with per-engine throughput (wall and CPU),
    the native-over-object speedup, and an exact cross-engine totals check.
    """
    if engines is None:
        engines = default_hotpath_engines()
    engines = tuple(engines)
    if not engines:
        raise ExperimentError("need at least one engine to benchmark")
    require_engines(engines, "drop it from --engines or fix the toolchain")
    trace = zipf_trace(n, m, zipf_alpha, seed)

    def prepare(engine: str):
        net = _build_network(network, n, k, policy, engine)
        return lambda: net.serve_trace(trace.sources, trace.targets)

    best = best_of_interleaved(engines, repeats, prepare)
    result: dict = {
        "benchmark": "engine_hotpath",
        "config": {
            "network": network,
            "n": n,
            "k": k,
            "m": m,
            "trace": trace.name,
            "zipf_alpha": zipf_alpha,
            "seed": seed,
            "policy": policy,
            "repeats": repeats,
            "engines": list(engines),
            "interleaved": True,
        },
        "engines": {},
    }
    for engine, timing in best.items():
        batch = timing.result
        result["engines"][engine] = {
            "seconds": timing.wall,
            "cpu_seconds": timing.cpu,
            "requests_per_second": m / timing.wall,
            "requests_per_second_cpu": (
                m / timing.cpu if timing.cpu > 0 else float("inf")
            ),
            "rotations_per_second": batch.total_rotations / timing.wall,
            "total_routing": batch.total_routing,
            "total_rotations": batch.total_rotations,
            "total_links_changed": batch.total_links_changed,
        }
    match = all_equal(batch_totals(timing.result) for timing in best.values())
    if match is not None:
        result["totals_match"] = match
    if "native" in best and "object" in best and best["native"].cpu > 0:
        native, obj = best["native"], best["object"]
        result["speedup_native_over_object"] = obj.cpu / native.cpu
        result["speedup_native_over_object_wall"] = obj.wall / native.wall
    return result

