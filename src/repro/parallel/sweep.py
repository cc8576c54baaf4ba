"""Parameter-sweep engine: named axes, cell enumeration, parallel execution.

A sweep is a cartesian grid over named axes (``k``, ``workload``, ``seed
repetition``...).  The engine enumerates cells in a deterministic row-major
order, derives one independent seed per cell, maps them through
:func:`repro.parallel.pool.parallel_map`, and reassembles a
:class:`SweepResult` that can be queried by coordinate or exported as rows.

Simulation sweeps need no hand-written cell function:
:func:`run_scenario_sweep` maps axis coordinates straight onto
:class:`~repro.scenarios.spec.ScenarioSpec` fields and runs each through
:func:`repro.scenarios.core.run_scenario`, so each cell inherits the
per-worker trace memoization and best-available engine default.

Example
-------
>>> from repro.parallel import SweepSpec, run_sweep
>>> spec = SweepSpec(axes={"k": (2, 3), "n": (50, 100)}, root_seed=7)
>>> result = run_sweep(lambda cell: cell.coords["k"] * cell.coords["n"], spec)
>>> result.value(k=3, n=100)
300
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

from repro.errors import ExperimentError
from repro.parallel.pool import ParallelConfig, parallel_map
from repro.parallel.seeds import seed_for_cell

__all__ = [
    "SweepSpec",
    "SweepCell",
    "SweepResult",
    "run_sweep",
    "run_scenario_sweep",
]


@dataclass(frozen=True)
class SweepCell:
    """One grid point: coordinates plus a derived independent seed."""

    index: int
    coords: Mapping[str, Any]
    seed: int

    def __getitem__(self, axis: str) -> Any:
        return self.coords[axis]


@dataclass(frozen=True)
class SweepSpec:
    """A cartesian sweep description.

    Attributes
    ----------
    axes:
        Ordered mapping of axis name → sequence of values.  Enumeration is
        row-major in declaration order (last axis varies fastest).
    root_seed:
        Root of the per-cell seed tree; cells get
        ``seed_for_cell(root_seed, coords)`` so the same coordinates always
        receive the same seed, independent of grid shape.
    repeats:
        Number of repetitions per coordinate; adds a synthetic ``rep`` axis
        when > 1, giving each repetition an independent seed.
    """

    axes: Mapping[str, Sequence[Any]]
    root_seed: int = 2024
    repeats: int = 1

    def __post_init__(self) -> None:
        if not self.axes:
            raise ExperimentError("sweep needs at least one axis")
        for name, values in self.axes.items():
            if len(values) == 0:
                raise ExperimentError(f"axis {name!r} has no values")
        if self.repeats < 1:
            raise ExperimentError(f"repeats must be >= 1, got {self.repeats}")
        if "rep" in self.axes and self.repeats > 1:
            raise ExperimentError("axis name 'rep' is reserved when repeats > 1")

    @property
    def axis_names(self) -> tuple[str, ...]:
        names = tuple(self.axes)
        return names + ("rep",) if self.repeats > 1 else names

    def size(self) -> int:
        total = self.repeats
        for values in self.axes.values():
            total *= len(values)
        return total

    def cells(self) -> Iterator[SweepCell]:
        """Enumerate cells row-major, seeds derived per-coordinate."""
        names = tuple(self.axes)
        index = 0
        for combo in itertools.product(*self.axes.values()):
            for rep in range(self.repeats):
                coords: dict[str, Any] = dict(zip(names, combo))
                if self.repeats > 1:
                    coords["rep"] = rep
                yield SweepCell(
                    index=index,
                    coords=coords,
                    seed=seed_for_cell(self.root_seed, coords),
                )
                index += 1


@dataclass
class SweepResult:
    """Cells and their values, queryable by coordinates."""

    spec: SweepSpec
    cells: list[SweepCell] = field(default_factory=list)
    values: list[Any] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.cells)

    def rows(self) -> list[dict[str, Any]]:
        """Flat export: one dict per cell with coordinates, seed and value."""
        out = []
        for cell, value in zip(self.cells, self.values):
            row = dict(cell.coords)
            row["seed"] = cell.seed
            row["value"] = value
            out.append(row)
        return out

    def _match(self, coords: Mapping[str, Any]) -> list[int]:
        return [
            i
            for i, cell in enumerate(self.cells)
            if all(cell.coords.get(k) == v for k, v in coords.items())
        ]

    def select(self, **coords: Any) -> "SweepResult":
        """Sub-result of cells matching every given coordinate."""
        picks = self._match(coords)
        return SweepResult(
            spec=self.spec,
            cells=[self.cells[i] for i in picks],
            values=[self.values[i] for i in picks],
        )

    def value(self, **coords: Any) -> Any:
        """The unique value at the given coordinates."""
        picks = self._match(coords)
        if len(picks) != 1:
            raise ExperimentError(
                f"coordinates {coords} matched {len(picks)} cells, expected 1"
            )
        return self.values[picks[0]]

    def axis_values(self, axis: str) -> list[Any]:
        """Distinct values seen along one axis, in first-seen order."""
        seen: list[Any] = []
        for cell in self.cells:
            v = cell.coords.get(axis)
            if v not in seen:
                seen.append(v)
        return seen

    def group_mean(self, value_fn: Callable[[Any], float], axis: str) -> dict[Any, float]:
        """Mean of ``value_fn(value)`` grouped by one axis (for repeats)."""
        sums: dict[Any, float] = {}
        counts: dict[Any, int] = {}
        for cell, value in zip(self.cells, self.values):
            key = cell.coords.get(axis)
            sums[key] = sums.get(key, 0.0) + value_fn(value)
            counts[key] = counts.get(key, 0) + 1
        return {key: sums[key] / counts[key] for key in sums}


def run_sweep(
    cell_fn: Callable[[SweepCell], Any],
    spec: SweepSpec,
    *,
    jobs: int = 1,
    config: Optional[ParallelConfig] = None,
) -> SweepResult:
    """Execute every cell of ``spec`` through the process pool.

    ``cell_fn`` must be picklable when ``jobs > 1``.  Values come back in
    enumeration order, so the result is independent of scheduling.
    """
    cells = list(spec.cells())
    values = parallel_map(
        cell_fn, cells, config=config, jobs=None if config else jobs
    )
    if len(values) != len(cells):
        raise ExperimentError(
            f"sweep produced {len(values)} values for {len(cells)} cells "
            "(a cell failed under on_error='collect'); use parallel_map_outcomes"
        )
    return SweepResult(spec=spec, cells=cells, values=values)


@dataclass(frozen=True)
class _ScenarioCellFn:
    """Picklable bridge: sweep coordinates → one scenario cell.

    Spec fields come from ``base`` overridden by the cell's coordinates
    (the synthetic ``rep`` axis is dropped — it exists only to vary the
    derived seed); a cell that names no ``seed`` gets the sweep's derived
    per-coordinate seed, so repetitions stay independent.
    """

    base: Mapping[str, Any]

    def __call__(self, cell: SweepCell) -> Any:
        from repro.scenarios.core import run_scenario
        from repro.scenarios.spec import ScenarioSpec

        fields = dict(self.base)
        fields.update(cell.coords)
        fields.pop("rep", None)
        fields.setdefault("seed", cell.seed)
        return run_scenario(ScenarioSpec(**fields))


def run_scenario_sweep(
    spec: SweepSpec,
    base: Optional[Mapping[str, Any]] = None,
    *,
    jobs: int = 1,
    config: Optional[ParallelConfig] = None,
) -> SweepResult:
    """Run a sweep whose cells are declarative scenario specs.

    Axis names and ``base`` entries are
    :class:`~repro.scenarios.spec.ScenarioSpec` fields (``workload``,
    ``n``, ``m``, ``algorithm``, ``k``, ``engine``, ...).  Values are
    :class:`~repro.scenarios.core.ScenarioResult` objects.

    >>> from repro.parallel import SweepSpec, run_scenario_sweep
    >>> spec = SweepSpec(axes={"k": (2, 3)}, root_seed=7)
    >>> result = run_scenario_sweep(
    ...     spec, {"workload": "uniform", "n": 16, "m": 64,
    ...            "algorithm": "kary-splaynet"})
    >>> len(result)
    2
    """
    return run_sweep(_ScenarioCellFn(dict(base or {})), spec, jobs=jobs, config=config)
