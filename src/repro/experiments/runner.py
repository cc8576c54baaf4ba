"""End-to-end experiment orchestration.

``run_all`` regenerates every table of the paper at the selected scale and
writes the rendered reports (plus a machine-readable summary) to an output
directory — the one-command reproduction entry point used by
``examples/reproduce_paper.py`` and the benchmark suite.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.core.engine import best_available_engine, resolve_engine
from repro.experiments.presets import Scale, WORKLOADS, get_scale
from repro.experiments.report import (
    render_kary_table,
    render_remark10,
    render_table8,
)
from repro.experiments.tables import (
    TABLE_WORKLOAD,
    KAryTableResult,
    Remark10Result,
    Table8Result,
    run_kary_table,
    run_remark10,
    run_table8,
)
from repro.network.cost import ROUTING_ONLY, UNIT_ROTATIONS

__all__ = ["ReproductionReport", "run_all", "kary_table_summary", "table8_summary"]


def kary_table_summary(result: KAryTableResult) -> dict:
    """JSON-friendly summary of one of Tables 1-7."""
    return {
        "workload": result.workload,
        "n": result.n,
        "m": result.m,
        "base_cost": result.base_cost,
        "splaynet_ratio": {k: result.splaynet_ratio(k) for k in result.ks},
        "fulltree_ratio": {k: result.fulltree_ratio(k) for k in result.ks},
        "optimal_ratio": {k: result.optimal_ratio(k) for k in result.ks},
        "rotations": dict(result.rotations),
    }


def table8_summary(result: Table8Result) -> dict:
    """JSON-friendly summary of Table 8 under both cost conventions."""
    out = {}
    for model_name, model in (("routing", ROUTING_ONLY), ("unit_rotations", UNIT_ROTATIONS)):
        out[model_name] = {
            row.workload: {
                "average_cost": row.average_cost(model),
                "vs_splaynet": row.ratio_splaynet(model),
                "vs_full_binary": row.ratio_full(model),
                "vs_optimal_bst": row.ratio_optimal(model),
            }
            for row in result.rows
        }
    return out


@dataclass
class ReproductionReport:
    """Everything ``run_all`` produced."""

    scale: str
    kary_tables: dict[int, KAryTableResult] = field(default_factory=dict)
    table8: Optional[Table8Result] = None
    remark10: Optional[Remark10Result] = None
    elapsed_seconds: float = 0.0
    engine: Optional[str] = None

    def render(self) -> str:
        parts = [f"=== ksan reproduction (scale: {self.scale}) ==="]
        for number in sorted(self.kary_tables):
            parts.append(
                render_kary_table(
                    self.kary_tables[number], title=f"--- Table {number} ---"
                )
            )
        if self.table8 is not None:
            parts.append(render_table8(self.table8, model=ROUTING_ONLY,
                                       title="--- Table 8 (routing cost) ---"))
            parts.append(render_table8(self.table8, model=UNIT_ROTATIONS,
                                       title="--- Table 8 (routing + unit rotations) ---"))
        if self.remark10 is not None:
            parts.append("--- Remark 10 ---")
            parts.append(render_remark10(self.remark10))
        parts.append(f"(total wall time: {self.elapsed_seconds:.1f}s)")
        return "\n\n".join(parts)

    def summary(self) -> dict:
        return {
            "scale": self.scale,
            "engine": self.engine,
            "tables": {
                str(num): kary_table_summary(res)
                for num, res in self.kary_tables.items()
            },
            "table8": table8_summary(self.table8) if self.table8 else None,
            "remark10_all_optimal": (
                self.remark10.all_optimal if self.remark10 else None
            ),
            "elapsed_seconds": self.elapsed_seconds,
        }


def run_all(
    *,
    scale: Optional[Scale] = None,
    tables: tuple[int, ...] = tuple(range(1, 8)),
    include_table8: bool = True,
    include_remark10: bool = True,
    output_dir: Optional[str | Path] = None,
    verbose: bool = True,
    jobs: int = 1,
    engine: Optional[str] = None,
    cache: Optional[object] = None,
    refresh: bool = False,
) -> ReproductionReport:
    """Regenerate every requested table; optionally persist the reports.

    Every table executes through the scenario core
    (:mod:`repro.scenarios.core`): ``jobs > 1`` (or 0 for all cores) fans
    table cells out across worker processes with results identical to the
    serial path, and ``engine`` selects the tree-engine backend for the
    self-adjusting cells (``None`` = the best available engine: native
    where the kernel builds, object otherwise; ``"object"`` = the reference
    backend — totals are identical either way, see ``tests/scenarios/``).
    ``cache``/``refresh`` select the per-cell result cache
    (:mod:`repro.scenarios.cache`): with a warm cache a re-run recomputes
    only cells whose work is new.
    """
    scale = scale or get_scale()
    report = ReproductionReport(
        scale=scale.name,
        engine=resolve_engine(engine or best_available_engine()),
    )
    start = time.perf_counter()
    for number in tables:
        workload = TABLE_WORKLOAD[number]
        if verbose:
            print(f"[run_all] table {number} ({workload}) ...", flush=True)
        report.kary_tables[number] = run_kary_table(
            workload, scale=scale, jobs=jobs, engine=engine,
            cache=cache, refresh=refresh,
        )
    if include_table8:
        if verbose:
            print("[run_all] table 8 (centroid case study) ...", flush=True)
        report.table8 = run_table8(
            scale=scale, jobs=jobs, engine=engine, cache=cache, refresh=refresh
        )
    if include_remark10:
        if verbose:
            print("[run_all] remark 10 (centroid optimality) ...", flush=True)
        report.remark10 = run_remark10(jobs=jobs, cache=cache, refresh=refresh)
    report.elapsed_seconds = time.perf_counter() - start
    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"report_{scale.name}.txt").write_text(report.render() + "\n")
        (out / f"summary_{scale.name}.json").write_text(
            json.dumps(report.summary(), indent=2, default=str) + "\n"
        )
    return report
