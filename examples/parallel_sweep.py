#!/usr/bin/env python
"""Parallel parameter sweep: arity × workload over worker processes.

Sweeps the k-ary SplayNet's routing cost over a (k, workload) grid using
the deterministic sweep engine — every cell regenerates its trace from a
derived seed inside the worker, so results are bit-identical for any job
count.  Prints the paper's central finding: routing cost falls as k grows,
on every workload.

Run:  python examples/parallel_sweep.py [jobs]     (default: cores - 1)
"""

import sys

from repro import bar_chart
from repro.parallel import SweepSpec, cpu_jobs, run_sweep
from repro.parallel.sweep import SweepCell
from repro.scenarios import ScenarioSpec, run_scenario

N = 128
M = 8_000


def simulate_cell(cell: SweepCell) -> float:
    """One grid point: average routing cost of k-ary SplayNet (module-level
    so it pickles into worker processes)."""
    spec = ScenarioSpec(
        workload=cell["workload"],
        n=N,
        m=M,
        seed=cell.seed,
        algorithm="kary-splaynet",
        k=cell["k"],
    )
    return run_scenario(spec).average_routing


def main() -> None:
    jobs = int(sys.argv[1]) if len(sys.argv) > 1 else cpu_jobs()
    spec = SweepSpec(
        axes={
            "workload": ("uniform", "temporal-0.5", "temporal-0.9", "hpc"),
            "k": (2, 3, 4, 6, 8),
        },
        root_seed=2024,
    )
    print(f"sweeping {spec.size()} cells over {jobs} worker process(es)...")
    result = run_sweep(simulate_cell, spec, jobs=jobs)

    for workload in result.axis_values("workload"):
        sub = result.select(workload=workload)
        rows = [
            (f"k={cell['k']}", round(value, 3))
            for cell, value in zip(sub.cells, sub.values)
        ]
        print(f"\n{workload}: average routing cost by arity")
        print(bar_chart(rows))
        ks = [cell["k"] for cell in sub.cells]
        costs = dict(zip(ks, sub.values))
        trend = "falls" if costs[max(ks)] < costs[2] else "does NOT fall"
        print(f"  → cost {trend} with k "
              f"({costs[2]:.2f} at k=2 → {costs[max(ks)]:.2f} at k={max(ks)})")


if __name__ == "__main__":
    main()
