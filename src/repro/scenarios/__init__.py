"""Declarative scenario pipeline: specs, registry, one execution core.

The demand-aware-networking move applied to this repository's own
evaluation harness: treat the (workload × algorithm × arity × cost model)
grid as *data*.  :class:`ScenarioSpec` names one cell; the registry expands
the paper's Tables 1–8 and Remark 10 (plus any user-registered campaign)
into spec lists; :func:`run_specs` executes any spec list serially or
across worker processes with per-worker trace memoization and the best
available tree engine (native where the C kernel builds, object otherwise)
as the online default; results stream to ``benchmarks/results/``
through the :mod:`repro.results` stores, whose JSONL helpers and path
conventions this package re-exports.

The classic experiment entry points (``repro.experiments.tables``,
``run_all``, simulation sweeps) are thin adapters
over this package — same result objects, one execution core.

Typical use::

    from repro.scenarios import expand, run_specs

    specs = expand("table4")            # the paper's Table 4 as data
    results = run_specs(specs, jobs=4)  # deterministic, order-preserving
"""

from repro.scenarios.spec import (
    ANALYTIC_ALGORITHMS,
    COST_MODELS,
    ScenarioSpec,
    specs_from_json,
    specs_to_json,
)
from repro.scenarios.registry import (
    ablation_cost_model_specs,
    ablation_lazy_rebuild_specs,
    expand,
    kary_table_specs,
    register_scenario,
    remark10_specs,
    scenario_names,
    table8_specs,
)
from repro.scenarios.core import (
    ScenarioResult,
    run_scenario,
    run_specs,
)
from repro.results import (
    default_results_path,
    iter_results_jsonl,
    read_results_jsonl,
    results_root,
)
from repro.scenarios.cache import (
    RESULT_CACHE_VERSION,
    ResultCache,
    default_cache_dir,
    spec_cache_key,
)

__all__ = [
    "ANALYTIC_ALGORITHMS",
    "COST_MODELS",
    "ScenarioSpec",
    "ScenarioResult",
    "specs_to_json",
    "specs_from_json",
    "kary_table_specs",
    "table8_specs",
    "remark10_specs",
    "ablation_cost_model_specs",
    "ablation_lazy_rebuild_specs",
    "register_scenario",
    "scenario_names",
    "expand",
    "run_scenario",
    "run_specs",
    "default_results_path",
    "iter_results_jsonl",
    "read_results_jsonl",
    "results_root",
    "RESULT_CACHE_VERSION",
    "ResultCache",
    "default_cache_dir",
    "spec_cache_key",
]
