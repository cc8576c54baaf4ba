"""Experiment scales and workload registry for the evaluation harness.

Two presets:

* ``quick`` — laptop/CI-sized runs (default): every table regenerates in
  minutes while preserving the paper's ratio *shapes* (which are stable in
  ``m`` and ``n``; the scale-stability ablation bench verifies this).
* ``paper`` — the paper's sizes (10⁶ requests; n = 500/100/10⁴/1023/100);
  hours of pure-Python compute.

Select with the ``REPRO_SCALE`` environment variable or pass a
:class:`Scale` explicitly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.parallel.tasks import materialize_trace, workload_generator
from repro.workloads.trace import Trace

__all__ = ["Scale", "QUICK", "SMOKE", "PAPER", "get_scale", "make_workload", "WORKLOADS"]


@dataclass(frozen=True)
class Scale:
    """Node/request counts for each workload family plus harness knobs."""

    name: str
    m: int
    uniform_n: int
    hpc_n: int
    projector_n: int
    facebook_n: int
    temporal_n: int
    ks: tuple[int, ...] = tuple(range(2, 11))
    #: skip the O(n³k) optimal-tree DP above this node count (the paper
    #: skipped it for the Facebook workload for the same reason)
    optimal_tree_max_n: int = 1100
    seed: int = 2024

    def workload_n(self, workload: str) -> int:
        """Node count of ``workload`` at this scale.

        The four named workloads have their own sizes; every other name
        :func:`~repro.parallel.tasks.materialize_trace` accepts gets
        ``temporal_n``, and any other name raises
        :class:`~repro.errors.ExperimentError`.
        """
        workload_generator(workload)
        return {
            "uniform": self.uniform_n,
            "hpc": self.hpc_n,
            "projector": self.projector_n,
            "facebook": self.facebook_n,
        }.get(workload, self.temporal_n)


#: CI-sized default scale.
QUICK = Scale(
    name="quick",
    m=20_000,
    uniform_n=100,
    hpc_n=216,
    projector_n=100,
    facebook_n=1024,
    temporal_n=255,
)

#: Tiny scale for unit tests.
SMOKE = Scale(
    name="smoke",
    m=2_000,
    uniform_n=40,
    hpc_n=64,
    projector_n=40,
    facebook_n=64,
    temporal_n=63,
    ks=(2, 3, 5),
    optimal_tree_max_n=128,
)

#: The paper's sizes (Section 5 "Setup and data").
PAPER = Scale(
    name="paper",
    m=1_000_000,
    uniform_n=100,
    hpc_n=500,
    projector_n=100,
    facebook_n=10_000,
    temporal_n=1023,
)

_SCALES = {"quick": QUICK, "smoke": SMOKE, "paper": PAPER}


def get_scale(name: str | None = None) -> Scale:
    """Resolve a scale by name, or from ``REPRO_SCALE`` (default quick)."""
    name = name or os.environ.get("REPRO_SCALE", "quick")
    try:
        return _SCALES[name]
    except KeyError:
        raise ExperimentError(
            f"unknown scale {name!r}; choose from {sorted(_SCALES)}"
        ) from None


#: Workload names in the order the paper's tables use them.
WORKLOADS = (
    "uniform",
    "hpc",
    "projector",
    "facebook",
    "temporal-0.25",
    "temporal-0.5",
    "temporal-0.75",
    "temporal-0.9",
)


def make_workload(name: str, scale: Scale) -> Trace:
    """Instantiate a workload (e.g. one of :data:`WORKLOADS`) at a scale."""
    return materialize_trace(name, scale.workload_n(name), scale.m, scale.seed)
