"""Parallel experiment execution substrate.

The paper's evaluation sweeps a grid of (workload, algorithm, k) cells, each
an independent trace-driven simulation.  This package runs such grids across
processes with three guarantees that matter for reproducible HPC-style
experiment harnesses:

1. **Determinism** — results are bit-identical regardless of the number of
   worker processes or scheduling order.  Every cell derives its own RNG seed
   from a root seed through a stable hash (:mod:`repro.parallel.seeds`), and
   outputs are reassembled in submission order.
2. **Parameters travel, data does not** — workers receive small picklable
   cell descriptions (:class:`repro.scenarios.ScenarioSpec`) and
   regenerate traces locally from seeds rather than receiving
   multi-megabyte arrays through the pipe (:mod:`repro.parallel.tasks`
   holds the per-worker trace memo).
3. **Graceful degradation** — ``jobs=1`` (the default) executes serially in
   the calling process with identical semantics, so the parallel path never
   becomes the only tested path.

Typical use::

    from repro.parallel import parallel_map, SweepSpec, run_sweep

    spec = SweepSpec(axes={"k": [2, 3, 4], "workload": ["hpc", "uniform"]})
    results = run_sweep(my_cell_fn, spec, jobs=4)
"""

from repro.parallel.pool import ParallelConfig, cpu_jobs, parallel_map
from repro.parallel.seeds import derive_seed, spawn_seeds, seed_for_cell
from repro.parallel.sweep import (
    SweepCell,
    SweepResult,
    SweepSpec,
    run_scenario_sweep,
    run_sweep,
)
from repro.parallel.tasks import (
    clear_trace_cache,
    materialize_trace,
    materialize_trace_cached,
    trace_cache_stats,
)

__all__ = [
    "ParallelConfig",
    "parallel_map",
    "cpu_jobs",
    "derive_seed",
    "spawn_seeds",
    "seed_for_cell",
    "SweepSpec",
    "SweepCell",
    "SweepResult",
    "run_sweep",
    "run_scenario_sweep",
    "materialize_trace",
    "materialize_trace_cached",
    "clear_trace_cache",
    "trace_cache_stats",
]
