"""Regeneration of the paper's Tables 1-8 and the Remark 10 experiment.

Each ``run_*`` function returns a structured result object whose
``render()`` (see :mod:`repro.experiments.report`) prints the same rows the
paper reports; EXPERIMENTS.md records paper-vs-measured values.

Since the scenario refactor these functions are thin adapters: they expand
their table into a :class:`~repro.scenarios.spec.ScenarioSpec` list via
:mod:`repro.scenarios.registry` and execute it through the one scenario
core (:func:`repro.scenarios.core.run_specs`) — serially by default,
across worker processes with ``jobs``/``config``, on the best available
tree engine unless ``engine="object"`` is requested.  Result objects are unchanged
(equality with the historical serial path is pinned by the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import ExperimentError
from repro.experiments.presets import Scale, WORKLOADS, get_scale
from repro.network.cost import CostModel, ROUTING_ONLY
from repro.network.simulator import SimulationResult
from repro.parallel.pool import ParallelConfig
from repro.scenarios.core import ScenarioResult, run_specs
from repro.scenarios.registry import (
    REMARK10_KS,
    REMARK10_NS,
    TABLE_WORKLOAD,
    kary_table_specs,
    remark10_specs,
    table8_specs,
)
from repro.workloads.trace import Trace

__all__ = [
    "KAryTableResult",
    "Table8Row",
    "Table8Result",
    "Remark10Result",
    "run_kary_table",
    "run_table8",
    "run_table8_row",
    "run_remark10",
    "TABLE_WORKLOAD",
]

# ----------------------------------------------------------------------
# Tables 1-7: k-ary SplayNet vs static trees, k = 2..10
# ----------------------------------------------------------------------
@dataclass
class KAryTableResult:
    """One of Tables 1-7.

    ``splaynet[k]`` / ``fulltree[k]`` / ``optimal[k]`` are total routing
    costs; ``rotations[k]`` the accumulated rotation counts of the online
    structure.  Ratios follow the paper's conventions (see DESIGN.md).
    """

    workload: str
    n: int
    m: int
    ks: tuple[int, ...]
    splaynet: dict[int, int] = field(default_factory=dict)
    rotations: dict[int, int] = field(default_factory=dict)
    links: dict[int, int] = field(default_factory=dict)
    fulltree: dict[int, int] = field(default_factory=dict)
    optimal: dict[int, Optional[int]] = field(default_factory=dict)

    @property
    def base_cost(self) -> int:
        """Absolute total routing cost of 2-ary SplayNet (the paper's anchor)."""
        return self.splaynet[2]

    def splaynet_ratio(self, k: int) -> float:
        """cost(k-ary SplayNet) / cost(2-ary SplayNet)."""
        return self.splaynet[k] / self.splaynet[2]

    def fulltree_ratio(self, k: int) -> float:
        """cost(k-ary SplayNet) / cost(full k-ary tree)."""
        return self.splaynet[k] / self.fulltree[k]

    def optimal_ratio(self, k: int) -> Optional[float]:
        """cost(k-ary SplayNet) / cost(optimal static k-ary tree)."""
        opt = self.optimal.get(k)
        return None if not opt else self.splaynet[k] / opt


def _assemble_kary_table(
    results: Sequence[ScenarioResult],
    *,
    workload: str,
    n: int,
    m: int,
    ks: tuple[int, ...],
) -> KAryTableResult:
    """Fold scenario cells back into the paper's table shape."""
    table = KAryTableResult(workload=workload, n=n, m=m, ks=ks)
    for cell in results:
        k = cell.spec.k
        if cell.spec.algorithm == "kary-splaynet":
            table.splaynet[k] = cell.total_routing
            table.rotations[k] = cell.total_rotations
            table.links[k] = cell.total_links_changed
        elif cell.spec.algorithm == "full-tree":
            table.fulltree[k] = cell.total_routing
        elif cell.spec.algorithm == "optimal-tree":
            table.optimal[k] = cell.total_routing
        else:  # pragma: no cover - the registry emits exactly these three
            raise ExperimentError(
                f"unexpected algorithm {cell.spec.algorithm!r} in k-ary table"
            )
    for k in ks:
        table.optimal.setdefault(k, None)
    return table


def run_kary_table(
    workload: str,
    *,
    scale: Optional[Scale] = None,
    trace: Optional[Trace] = None,
    ks: Optional[tuple[int, ...]] = None,
    include_optimal: bool = True,
    initial: str = "complete",
    engine: Optional[str] = None,
    jobs: int = 1,
    config: Optional[ParallelConfig] = None,
    cache: Optional[object] = None,
    refresh: bool = False,
) -> KAryTableResult:
    """Regenerate one of the paper's Tables 1-7 for ``workload``.

    ``trace`` pins an explicit pre-built trace (serial only); otherwise the
    workload is materialized from the scale's coordinates — once per worker,
    thanks to the scenario core's trace memo.  ``cache``/``refresh`` select
    the per-cell result cache (see :func:`repro.scenarios.core.run_specs`).
    """
    scale = scale or get_scale()
    ks = tuple(ks or scale.ks)
    specs = kary_table_specs(
        workload,
        scale,
        n=trace.n if trace is not None else None,
        m=trace.m if trace is not None else None,
        ks=ks,
        include_optimal=include_optimal,
        initial=initial,
        engine=engine,
    )
    traces = {specs[0].trace_key(): trace} if trace is not None else None
    results = run_specs(
        specs, jobs=jobs, config=config, traces=traces, cache=cache, refresh=refresh
    )
    n = trace.n if trace is not None else scale.workload_n(workload)
    m = trace.m if trace is not None else scale.m
    return _assemble_kary_table(results, workload=workload, n=n, m=m, ks=ks)


# ----------------------------------------------------------------------
# Table 8: the centroid heuristic case study (k = 2)
# ----------------------------------------------------------------------
@dataclass
class Table8Row:
    """One workload row of Table 8 (average request cost + ratios)."""

    workload: str
    n: int
    m: int
    centroid3: SimulationResult
    splaynet: SimulationResult
    full_binary_cost: int
    optimal_bst_cost: Optional[int]

    def average_cost(self, model: CostModel = ROUTING_ONLY) -> float:
        """Average request cost of 3-SplayNet under a cost model."""
        return self.centroid3.total_cost(model) / self.m

    def ratio_splaynet(self, model: CostModel = ROUTING_ONLY) -> float:
        """cost(SplayNet) / cost(3-SplayNet); > 1 means 3-SplayNet wins."""
        return self.splaynet.total_cost(model) / self.centroid3.total_cost(model)

    def ratio_full(self, model: CostModel = ROUTING_ONLY) -> float:
        return self.full_binary_cost / self.centroid3.total_cost(model)

    def ratio_optimal(self, model: CostModel = ROUTING_ONLY) -> Optional[float]:
        if self.optimal_bst_cost is None:
            return None
        return self.optimal_bst_cost / self.centroid3.total_cost(model)


@dataclass
class Table8Result:
    """The paper's Table 8: 3-SplayNet vs SplayNet vs static binary trees."""

    rows: list[Table8Row] = field(default_factory=list)

    def row(self, workload: str) -> Table8Row:
        for row in self.rows:
            if row.workload == workload:
                return row
        raise ExperimentError(f"no Table 8 row for workload {workload!r}")


def _simulation_result(cell: ScenarioResult) -> SimulationResult:
    """A summary-only SimulationResult from a cell's scalar totals."""
    spec = cell.spec
    return SimulationResult(
        name=f"{spec.algorithm}@{spec.workload}",
        n=spec.n,
        m=spec.m,
        total_routing=cell.total_routing,
        total_rotations=cell.total_rotations,
        total_links_changed=cell.total_links_changed,
        elapsed_seconds=cell.elapsed_seconds,
    )


def _assemble_table8(
    results: Sequence[ScenarioResult], workloads: Sequence[str]
) -> Table8Result:
    by_workload: dict[str, dict[str, ScenarioResult]] = {}
    for cell in results:
        by_workload.setdefault(cell.spec.workload, {})[cell.spec.algorithm] = cell
    table = Table8Result()
    for workload in workloads:
        group = by_workload[workload]
        centroid = group["centroid-splaynet"]
        optimal = group.get("optimal-bst")
        table.rows.append(
            Table8Row(
                workload=workload,
                n=centroid.spec.n,
                m=centroid.spec.m,
                centroid3=_simulation_result(centroid),
                splaynet=_simulation_result(group["splaynet"]),
                full_binary_cost=group["full-tree"].total_routing,
                optimal_bst_cost=optimal.total_routing if optimal else None,
            )
        )
    return table


def run_table8(
    *,
    scale: Optional[Scale] = None,
    workloads: Optional[tuple[str, ...]] = None,
    include_optimal: bool = True,
    engine: Optional[str] = None,
    jobs: int = 1,
    config: Optional[ParallelConfig] = None,
    cache: Optional[object] = None,
    refresh: bool = False,
) -> Table8Result:
    """Regenerate the full Table 8."""
    scale = scale or get_scale()
    chosen = tuple(workloads or WORKLOADS)
    specs = table8_specs(
        scale, workloads=chosen, include_optimal=include_optimal, engine=engine
    )
    results = run_specs(specs, jobs=jobs, config=config, cache=cache, refresh=refresh)
    return _assemble_table8(results, chosen)


def run_table8_row(
    workload: str,
    *,
    scale: Optional[Scale] = None,
    trace: Optional[Trace] = None,
    include_optimal: bool = True,
    engine: Optional[str] = None,
) -> Table8Row:
    """Compute one row of Table 8 (serial; supports an explicit trace)."""
    scale = scale or get_scale()
    specs = table8_specs(
        scale,
        workloads=(workload,),
        n=trace.n if trace is not None else None,
        m=trace.m if trace is not None else None,
        include_optimal=include_optimal,
        engine=engine,
    )
    traces = {specs[0].trace_key(): trace} if trace is not None else None
    results = run_specs(specs, traces=traces)
    return _assemble_table8(results, (workload,)).rows[0]


# ----------------------------------------------------------------------
# Remark 10 / Remark 37: centroid-tree optimality on the uniform workload
# ----------------------------------------------------------------------
@dataclass
class Remark10Result:
    """Grid of (n, k) → (centroid cost, optimal cost, full-tree cost)."""

    entries: list[tuple[int, int, int, int, int]] = field(default_factory=list)

    @property
    def all_optimal(self) -> bool:
        """Whether the centroid tree matched the DP optimum everywhere."""
        return all(c == o for (_, _, c, o, _) in self.entries)

    def mismatches(self) -> list[tuple[int, int, int, int]]:
        return [
            (n, k, c, o) for (n, k, c, o, _) in self.entries if c != o
        ]


def run_remark10(
    ns: tuple[int, ...] = REMARK10_NS,
    ks: tuple[int, ...] = REMARK10_KS,
    *,
    jobs: int = 1,
    config: Optional[ParallelConfig] = None,
    cache: Optional[object] = None,
    refresh: bool = False,
) -> Remark10Result:
    """Check centroid-tree optimality against the O(n²k) uniform DP.

    Costs are in unordered-pair units (Σ_{u<v} d(u, v)).
    """
    specs = remark10_specs(ns, ks)
    results = run_specs(specs, jobs=jobs, config=config, cache=cache, refresh=refresh)
    by_cell: dict[tuple[int, int], dict[str, int]] = {}
    for cell in results:
        by_cell.setdefault((cell.spec.n, cell.spec.k), {})[
            cell.spec.algorithm
        ] = cell.total_routing
    result = Remark10Result()
    for k in ks:
        for n in ns:
            costs = by_cell[(n, k)]
            result.entries.append(
                (
                    n,
                    k,
                    costs["centroid-tree-distance"],
                    costs["optimal-uniform-distance"],
                    costs["complete-tree-distance"],
                )
            )
    return result
