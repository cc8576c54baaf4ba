"""End-to-end reproduction-pipeline benchmark: object vs. native engine.

Where :mod:`repro.experiments.hotpath` isolates the serve loop, this module
times the *whole* ``run_all`` reproduction pipeline — trace generation,
online simulation, static costing and the optimal-tree DPs — per tree
engine, so the perf trajectory in ``benchmarks/results/`` tracks what a
user actually waits for.  CPU time (``time.process_time``) is the primary
metric: wall clock on a loaded box is ±15% noisy, CPU time is stable.

Each engine runs the identical table subset ``repeats`` times (best kept);
the engines' table summaries are cross-checked for exact equality, so a
benchmark run doubles as an end-to-end engine-equivalence check at
pipeline scale.  Used by ``python -m repro bench-pipeline``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import ExperimentError
from repro.experiments.benchkit import (
    all_equal,
    best_of_interleaved,
    require_engines,
)
from repro.experiments.hotpath import SPEEDUP_PAIRS, default_hotpath_engines
from repro.experiments.presets import get_scale
from repro.experiments.runner import run_all
from repro.experiments.tables import TABLE_WORKLOAD

__all__ = [
    "DEFAULT_TABLES",
    "DEFAULT_REPEATS",
    "reproduce_pipeline_benchmark",
]

#: The recorded-trajectory defaults of ``repro bench-pipeline``, so every
#: refresh of ``BENCH_reproduce_pipeline.json`` is comparable.  Tables 3 and 8 are excluded: at quick scale both are dominated by the
#: engine-independent n=1024 optimal-tree DP, which dilutes the signal.
DEFAULT_TABLES = (1, 2, 4, 5, 6, 7)
DEFAULT_REPEATS = 2


def _comparable_summary(summary: dict) -> dict:
    """A summary with the timing/engine fields stripped (pure results)."""
    out = dict(summary)
    out.pop("elapsed_seconds", None)
    out.pop("engine", None)
    return out


def reproduce_pipeline_benchmark(
    scale: str = "quick",
    *,
    tables: tuple[int, ...] = DEFAULT_TABLES,
    include_table8: bool = False,
    include_remark10: bool = False,
    repeats: int = DEFAULT_REPEATS,
    engines: Optional[Sequence[str]] = None,
    jobs: int = 1,
    verbose: bool = False,
) -> dict:
    """Time ``run_all`` per engine on one table subset; best of ``repeats``.

    Defaults follow the recorded trajectory (:data:`DEFAULT_TABLES`,
    :data:`DEFAULT_REPEATS`): Table 8 and Remark 10 are excluded because
    their dominant costs (the n=1024 optimal-BST DP, analytic cells) are
    engine-independent and would only dilute the engine signal.  Returns a
    JSON-serializable record with per-engine CPU/wall seconds, the
    native-over-object speedup and the cross-engine summary check.
    """
    if engines is None:
        engines = default_hotpath_engines()
    require_engines(engines, "drop it from the engine list or fix the toolchain")
    if not tables:
        raise ExperimentError("tables must name at least one of Tables 1-7")
    unknown = sorted(set(tables) - set(TABLE_WORKLOAD))
    if unknown:
        raise ExperimentError(
            f"unknown table numbers {unknown}; choose from "
            f"{sorted(TABLE_WORKLOAD)} (Table 8 via include_table8)"
        )
    scale_obj = get_scale(scale)
    record: dict = {
        "benchmark": "reproduce_pipeline",
        "config": {
            "scale": scale_obj.name,
            "tables": list(tables),
            "include_table8": include_table8,
            "include_remark10": include_remark10,
            "repeats": repeats,
            "jobs": jobs,
        },
        "engines": {},
    }

    def prepare(engine: str):
        if verbose:
            print(f"[bench-pipeline] {engine} ...", flush=True)
        return lambda: run_all(
            scale=scale_obj,
            tables=tables,
            include_table8=include_table8,
            include_remark10=include_remark10,
            verbose=False,
            jobs=jobs,
            engine=engine,
        )

    best = best_of_interleaved(engines, repeats, prepare)
    for engine, timing in best.items():
        record["engines"][engine] = {
            "cpu_seconds": timing.cpu,
            "wall_seconds": timing.wall,
        }
    match = all_equal(
        _comparable_summary(timing.result.summary()) for timing in best.values()
    )
    if match is not None:
        record["summaries_match"] = match
    for fast, slow in SPEEDUP_PAIRS:
        if fast in best and slow in best and best[fast].cpu > 0:
            record[f"speedup_{fast}_over_{slow}"] = best[slow].cpu / best[fast].cpu
    return record

