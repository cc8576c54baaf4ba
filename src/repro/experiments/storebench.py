"""Results-store benchmark: ingest and lookup, JSONL vs SQLite.

The measurement behind the pluggable :mod:`repro.results` layer: stream a
large synthetic campaign (default 50k cells) into each backend through
its batched ``append_many`` path — the record generator yields one cell
at a time and both backends consume it incrementally, so memory stays
bounded regardless of campaign size — then time indexed spec-hash
lookups, where the SQLite backend's B-tree should beat the JSONL
backend's whole-file scan by a wide margin (the recorded
``speedup_sqlite_lookup``).  A full record comparison across the two
backends pins conversion fidelity (``roundtrip_match``).

Record home: ``benchmarks/results/BENCH_results_store.json`` (see
``python -m repro bench-store``).
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Iterator

from repro.results import JsonlStore, SqliteStore, spec_store_hash

__all__ = [
    "results_store_benchmark",
    "synthetic_results",
]

#: Axes the synthetic campaign cycles through — enough variety that the
#: indexed columns carry real selectivity, cheap enough to generate 50k+.
_WORKLOADS = ("uniform", "temporal-0.5", "zipf-1.2", "hpc")
_ALGORITHMS = ("kary-splaynet", "full-tree")
_KS = (2, 3, 4)
_NS = (64, 128, 256)


def synthetic_results(cells: int, seed: int = 0) -> Iterator[object]:
    """Yield ``cells`` distinct, deterministic results one at a time.

    Specs cycle the workload/algorithm/arity/size axes with a unique
    ``seed`` per cell (so every spec — and every spec hash — is
    distinct); totals are cheap arithmetic functions of the index, not
    simulations: this benchmark measures storage, not tree serving.
    """
    from repro.scenarios.core import ScenarioResult
    from repro.scenarios.spec import ScenarioSpec

    for index in range(cells):
        spec = ScenarioSpec(
            workload=_WORKLOADS[index % len(_WORKLOADS)],
            n=_NS[index % len(_NS)],
            m=1000,
            seed=seed + index,
            algorithm=_ALGORITHMS[index % len(_ALGORITHMS)],
            k=_KS[index % len(_KS)],
            group="storebench",
        )
        yield ScenarioResult(
            spec=spec,
            total_routing=1000 + index * 7 % 9973,
            total_rotations=index * 3 % 4999,
            total_links_changed=index * 5 % 4999,
            elapsed_seconds=0.0,
        )


def _store_bytes(path: Path) -> int:
    """On-disk footprint including WAL/SHM sidecars (pre-checkpoint)."""
    total = path.stat().st_size
    for sidecar in ("-wal", "-shm"):
        side = Path(str(path) + sidecar)
        if side.exists():
            total += side.stat().st_size
    return total


def _time_lookups(store, hashes: list[str]) -> float:
    """Mean seconds per spec-hash query (results fully materialized)."""
    start = time.perf_counter()
    for spec_hash in hashes:
        matched = list(store.query(spec_hash=spec_hash))
        if not matched:
            raise AssertionError(f"lookup lost {spec_hash} in {store.path}")
    return (time.perf_counter() - start) / max(1, len(hashes))


def results_store_benchmark(
    *,
    cells: int = 50_000,
    lookups: int = 5,
    batch: int = 1000,
    seed: int = 0,
    workdir: "str | Path | None" = None,
) -> dict:
    """Ingest + lookup timing for both backends; returns the JSON record.

    ``workdir`` (default: a fresh temporary directory) holds the two
    record files; pass a path to keep them for inspection.
    """
    base = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix="storebench-"))
    base.mkdir(parents=True, exist_ok=True)

    # The spec hashes to look up afterwards: spread across the campaign,
    # computed from the same deterministic generator (no storage needed).
    lookups = max(1, min(lookups, cells))
    stride = max(1, cells // lookups)
    targets = {i * stride for i in range(lookups)}
    hashes = [
        spec_store_hash(result.spec)
        for index, result in enumerate(synthetic_results(cells, seed))
        if index in targets
    ]

    record: dict = {"cells": cells, "lookups": len(hashes), "batch": batch}
    stores = {
        "jsonl": JsonlStore(base / "storebench.jsonl", overwrite=True),
        "sqlite": SqliteStore(
            base / "storebench.sqlite", overwrite=True, batch=batch
        ),
    }
    for name, store in stores.items():
        with store:
            start = time.perf_counter()
            appended = store.append_many(synthetic_results(cells, seed))
            ingest = time.perf_counter() - start
            assert appended == cells
            per_query = _time_lookups(store, hashes)
            record[name] = {
                "ingest_seconds": round(ingest, 6),
                "ingest_cells_per_second": round(cells / ingest, 1),
                "lookup_seconds_per_query": round(per_query, 6),
                "file_bytes": _store_bytes(store.path),
            }

    record["speedup_sqlite_ingest"] = round(
        record["jsonl"]["ingest_seconds"] / record["sqlite"]["ingest_seconds"], 2
    )
    record["speedup_sqlite_lookup"] = round(
        record["jsonl"]["lookup_seconds_per_query"]
        / record["sqlite"]["lookup_seconds_per_query"],
        2,
    )

    # Cell-for-cell equality across the backends (conversion fidelity).
    jsonl_iter = iter(stores["jsonl"])
    sqlite_iter = iter(stores["sqlite"])
    match = all(a == b for a, b in zip(jsonl_iter, sqlite_iter))
    match = match and next(jsonl_iter, None) is None
    match = match and next(sqlite_iter, None) is None
    record["roundtrip_match"] = match
    for store in stores.values():
        store.close()
    return record

