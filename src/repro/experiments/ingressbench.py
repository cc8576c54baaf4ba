"""Ingress gateway benchmark: socket serving vs. the in-process farm.

Answers three questions about the network front door
(:mod:`repro.ingress`), on the house methodology (one fixed keyed Zipf
stream, exact cost-total cross-checks, wall-clock req/s):

* **what does the socket cost?** — the same stream through a direct
  in-process :class:`~repro.serving.farm.ServeFarm` versus through
  :class:`~repro.ingress.IngressServer` over a UNIX socket;
* **what does micro-batching buy?** — the socket path with the server's
  batch-while-busy dispatch versus forced batch-size-1 dispatch (every
  request its own farm pipe round trip); each socket leg records its farm
  ``dispatches``, which fall below the request count whenever requests
  coalesce;
* **is it still exact?** — cost totals from every path must equal clean
  per-key :func:`~repro.net.session.open_session` runs
  (``totals_match``), since the gateway reorders *scheduling* but never
  per-key request order.

Latency percentiles are client-observed wall times recorded into the
constant-memory :class:`~repro.net.session.LatencyStats` histogram.
Run via ``repro bench-ingress``; records go to
``benchmarks/results/BENCH_ingress.json``.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import time

from repro.errors import ExperimentError
from repro.experiments.benchkit import (
    all_equal,
    batch_totals,
    clean_totals,
    keyed_stream,
)
from repro.ingress import AsyncIngressClient, IngressServer
from repro.serving.farm import ServeFarm
from repro.workloads.synthetic import zipf_trace

__all__ = ["ingress_benchmark"]

_ALGORITHM = "kary-splaynet"


def _direct_farm(stream, n: int, k: int, shards: int) -> dict:
    """The same stream through an in-process farm (no socket)."""
    with ServeFarm(_ALGORITHM, n=n, k=k, shards=shards) as farm:
        started = time.perf_counter()
        batch = farm.serve_stream(stream)
        elapsed = time.perf_counter() - started
    return {
        "seconds": elapsed,
        "requests_per_second": len(stream) / elapsed if elapsed > 0 else 0.0,
        "totals": batch_totals(batch),
    }


async def _socket_run(
    stream,
    n: int,
    k: int,
    shards: int,
    *,
    batch_max: int,
    concurrency: int,
) -> dict:
    farm = ServeFarm(_ALGORITHM, n=n, k=k, shards=shards)
    with tempfile.TemporaryDirectory(prefix="repro-ingress-") as tmp:
        server = IngressServer(
            farm,
            path=os.path.join(tmp, "ingress.sock"),
            batch_max=batch_max,
        )
        await server.start()
        try:
            async with AsyncIngressClient(path=server.address) as client:
                started = time.perf_counter()
                totals, latency = await client.serve_stream(
                    stream, concurrency=concurrency
                )
                elapsed = time.perf_counter() - started
        finally:
            await server.drain()
    return {
        "seconds": elapsed,
        "requests_per_second": len(stream) / elapsed if elapsed > 0 else 0.0,
        "latency_p50_seconds": latency.p50,
        "latency_p99_seconds": latency.p99,
        "batch_max": batch_max,
        "dispatches": farm.metrics.windows,
        "totals": batch_totals(totals),
    }


def ingress_benchmark(
    n: int = 256,
    k: int = 4,
    *,
    m: int = 4_000,
    keys: int = 8,
    shards: int = 2,
    zipf_alpha: float = 1.2,
    seed: int = 0,
    batch_max: int = 256,
    concurrency: int = 256,
) -> dict:
    """Measure the socket path against the in-process farm.

    Returns a JSON-serializable record with a ``direct`` (in-process
    farm) section and two socket sections — ``socket_batched`` (the
    server's micro-batching dispatch) and ``socket_unbatched``
    (``batch_max=1``: one farm round trip per request) — each with wall
    req/s, client-observed p50/p99 and its farm ``dispatches``, plus
    ``totals_match`` against clean per-key session runs and
    ``speedup_batched_over_unbatched``.
    """
    if m < 1:
        raise ExperimentError(f"m must be >= 1, got {m}")
    if keys < 1:
        raise ExperimentError(f"keys must be >= 1, got {keys}")
    if shards < 1:
        raise ExperimentError(f"shards must be >= 1, got {shards}")
    if concurrency < 1:
        raise ExperimentError(f"concurrency must be >= 1, got {concurrency}")
    trace = zipf_trace(n, m, zipf_alpha, seed)
    stream = keyed_stream(trace, keys)

    clean = clean_totals(stream, _ALGORITHM, n, k)
    direct = _direct_farm(stream, n, k, shards)
    batched = asyncio.run(
        _socket_run(
            stream, n, k, shards,
            batch_max=batch_max,
            concurrency=concurrency,
        )
    )
    unbatched = asyncio.run(
        _socket_run(
            stream, n, k, shards,
            batch_max=1,
            concurrency=concurrency,
        )
    )

    result = {
        "benchmark": "ingress",
        "config": {
            "n": n,
            "k": k,
            "m": m,
            "keys": keys,
            "shards": shards,
            "zipf_alpha": zipf_alpha,
            "seed": seed,
            "batch_max": batch_max,
            "concurrency": concurrency,
        },
        "clean_totals": clean,
        "direct": direct,
        "socket_batched": batched,
        "socket_unbatched": unbatched,
        "totals_match": all_equal(
            [clean, direct["totals"], batched["totals"], unbatched["totals"]]
        ),
    }
    if unbatched["requests_per_second"] > 0:
        result["speedup_batched_over_unbatched"] = (
            batched["requests_per_second"]
            / unbatched["requests_per_second"]
        )
    if direct["requests_per_second"] > 0:
        result["socket_overhead_vs_direct"] = (
            batched["requests_per_second"] / direct["requests_per_second"]
        )
    return result

