"""Declarative experiment cells: the frozen :class:`ScenarioSpec`.

The paper's evaluation is a grid of (workload × algorithm × arity × cost
model) cells.  A :class:`ScenarioSpec` names one such cell as *data* — six
trace/algorithm coordinates plus engine and cost-model selectors — with a
lossless JSON round-trip, so whole experiment campaigns can be exported,
diffed, version-controlled and re-run without touching Python code.  The
registry (:mod:`repro.scenarios.registry`) expands the paper's Tables 1–8
and Remark 10 into spec lists; the execution core
(:mod:`repro.scenarios.core`) runs any spec list serially or across worker
processes.

Three cell kinds share the one spec shape:

``online``
    A self-adjusting network served a trace through the simulator
    (algorithms in :func:`repro.net.online_algorithms`).
``static``
    A static tree costed against a trace via the distance oracle
    (algorithms in :func:`repro.net.static_algorithms`).
``analytic``
    A closed-form quantity with no trace at all (``m = 0``) — the Remark 10
    all-pairs distance grid (algorithms in :data:`ANALYTIC_ALGORITHMS`).

Algorithm names resolve against the network construction registry
(:mod:`repro.net.registry`), so a :func:`repro.net.register_network` call
makes a new algorithm schedulable as a scenario cell with no changes here.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional

from repro.core.engine import (
    best_available_engine,
    check_engine_name,
    resolve_engine,
)
from repro.errors import ExperimentError
from repro.net.registry import (
    engine_capable_algorithms,
    online_algorithms,
    static_algorithms,
)
from repro.net.spec import NetworkSpec, freeze_params

__all__ = [
    "ANALYTIC_ALGORITHMS",
    "COST_MODELS",
    "ScenarioSpec",
    "specs_to_json",
    "specs_from_json",
]

#: Trace-free cell kinds: uniform all-pairs distance of a built tree
#: (Remark 10's grid).  Costs are in unordered-pair units (Σ_{u<v} d(u,v)).
ANALYTIC_ALGORITHMS = (
    "centroid-tree-distance",
    "optimal-uniform-distance",
    "complete-tree-distance",
)

#: Cost-model names a spec may carry (see :mod:`repro.network.cost`).
COST_MODELS = ("routing", "unit_rotations")


@dataclass(frozen=True)
class ScenarioSpec:
    """One experiment cell, fully described by data.

    Attributes
    ----------
    workload:
        Workload name understood by
        :func:`repro.parallel.tasks.materialize_trace` (``"uniform"``,
        ``"hpc"``, ``"temporal-0.5"``, ``"zipf-1.2"``, ...).  Analytic
        cells conventionally use ``"uniform"`` (the all-pairs demand).
    n, m, seed:
        Trace coordinates; ``m = 0`` for analytic cells.
    algorithm:
        A name registered in :mod:`repro.net.registry` (online or
        static) or one of :data:`ANALYTIC_ALGORITHMS`.
    k:
        Tree arity.
    engine:
        Tree-engine backend for engine-capable online algorithms.  ``None``
        (default) resolves to
        :func:`~repro.core.engine.best_available_engine` at execution
        time — ``"native"`` where the C kernel builds, ``"object"``
        otherwise; pass ``"object"`` explicitly for the reference backend.
    cost_model:
        Reporting convention the cell's totals are meant to be read under
        (``"routing"`` or ``"unit_rotations"``).  Raw totals are recorded
        either way; this selects :meth:`ScenarioResult.cost`.
    initial:
        Initial topology for ``kary-splaynet`` cells.
    group:
        Free-form provenance tag (e.g. ``"table3"``) stamped by the
        registry so flat result streams stay attributable.
    params:
        Free-form algorithm parameters (JSON scalars), frozen to sorted
        ``(name, value)`` pairs via :func:`repro.net.spec.freeze_params`
        and forwarded to the network constructor — e.g. ``alpha`` for the
        ``lazy`` rebuild threshold.  Part of the cell's identity: cells
        differing only in ``params`` hash, cache and store separately.
    """

    workload: str
    n: int
    m: int
    seed: int
    algorithm: str
    k: int = 2
    engine: Optional[str] = None
    cost_model: str = "routing"
    initial: str = "complete"
    group: str = ""
    params: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", freeze_params(self.params))
        known = (
            online_algorithms() | static_algorithms() | set(ANALYTIC_ALGORITHMS)
        )
        if self.algorithm not in known:
            raise ExperimentError(
                f"unknown algorithm {self.algorithm!r}; choose from {sorted(known)}"
            )
        if self.n < 1:
            raise ExperimentError(f"n must be >= 1, got {self.n}")
        if self.m < 0:
            raise ExperimentError(f"m must be >= 0, got {self.m}")
        if self.k < 2:
            raise ExperimentError(f"k must be >= 2, got {self.k}")
        check_engine_name(self.engine, ExperimentError)
        if self.cost_model not in COST_MODELS:
            raise ExperimentError(
                f"unknown cost model {self.cost_model!r}; choose from {COST_MODELS}"
            )
        if self.kind != "analytic" and self.m == 0:
            raise ExperimentError(
                f"{self.algorithm!r} cells serve a trace and need m >= 1"
            )

    # -- classification ------------------------------------------------
    @property
    def kind(self) -> str:
        """``"online"``, ``"static"`` or ``"analytic"``."""
        if self.algorithm in online_algorithms():
            return "online"
        if self.algorithm in static_algorithms():
            return "static"
        return "analytic"

    def resolved_engine(self) -> Optional[str]:
        """The engine this cell will actually run on.

        Engine-capable online cells default to
        :func:`~repro.core.engine.best_available_engine`; a cell that asks
        for ``"native"`` without the kernel or with a deep splay reports
        the ``"object"`` engine it runs on (see
        :func:`~repro.core.engine.resolve_engine`).  Every other kind has
        no engine.
        """
        if self.algorithm in engine_capable_algorithms():
            return resolve_engine(
                self.engine or best_available_engine(),
                splay_depth=self.params_dict().get("splay_depth", 2),
            )
        return None

    # -- bridges -------------------------------------------------------
    def network_spec(self) -> NetworkSpec:
        """The network this (non-analytic) cell builds, engine resolved."""
        if self.kind == "analytic":
            raise ExperimentError(
                f"analytic cell {self.algorithm!r} builds no network"
            )
        return NetworkSpec(
            algorithm=self.algorithm,
            n=self.n,
            k=self.k,
            engine=self.resolved_engine(),
            initial=self.initial,
            params=self.params,
        )

    def task(self) -> "ScenarioSpec":
        """Alias of the spec itself, kept for one reader.

        ``perfbench/reproduce_worker.py`` calls
        ``spec.task().network_spec()``; drop this alias with that call.
        """
        return self

    def params_dict(self) -> dict[str, Any]:
        """The frozen params as a plain keyword mapping."""
        return dict(self.params)

    def replace(self, **changes: Any) -> "ScenarioSpec":
        """A copy with the given fields changed (frozen-safe)."""
        return dataclasses.replace(self, **changes)

    def trace_key(self) -> tuple[str, int, int, int]:
        """The trace-memo key this cell materializes under."""
        return (self.workload, self.n, self.m, self.seed)

    # -- JSON round-trip -----------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON mapping; inverse of :meth:`from_dict`."""
        data = dataclasses.asdict(self)
        data["params"] = dict(self.params)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (strict on keys)."""
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise ExperimentError(
                f"unknown ScenarioSpec fields {sorted(unknown)}"
            )
        return cls(**dict(data))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ExperimentError("ScenarioSpec JSON must be an object")
        return cls.from_dict(data)


def specs_to_json(specs: Iterable[ScenarioSpec], *, indent: int = 2) -> str:
    """Serialize a spec list as a JSON array (stable field order)."""
    return json.dumps([spec.to_dict() for spec in specs], indent=indent)


def specs_from_json(text: str) -> list[ScenarioSpec]:
    """Inverse of :func:`specs_to_json`."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise ExperimentError("spec list JSON must be an array")
    return [ScenarioSpec.from_dict(item) for item in data]
