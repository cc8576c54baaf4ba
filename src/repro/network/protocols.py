"""Protocols shared by every self-adjusting network implementation.

A *self-adjusting network* (SAN) serves a stream of communication requests
``(u, v)`` and may reconfigure itself after each one.  The paper's cost model
(Section 2) charges the tree distance between the endpoints in the topology
*before* the adjustment, plus a reconfiguration cost; implementations report
both through :class:`ServeResult` and the simulator folds them into totals
via a :class:`~repro.network.cost.CostModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "ServeResult",
    "BatchServeResult",
    "SelfAdjustingNetwork",
    "BatchServingNetwork",
]


@dataclass(frozen=True, slots=True)
class ServeResult:
    """Outcome of serving one communication request.

    Attributes
    ----------
    routing_cost:
        Tree distance (in edges) between the endpoints in the topology in
        place when the request arrived.
    rotations:
        Number of local transformations applied while adjusting (each
        ``k-semi-splay`` or ``k-splay`` counts as one, matching the paper's
        unit rotation cost).
    links_changed:
        Number of physical links added plus removed by the adjustment (the
        paper's alternative reconfiguration-cost measure from Section 2).
    """

    routing_cost: int
    rotations: int = 0
    links_changed: int = 0

    def __add__(self, other: "ServeResult") -> "ServeResult":
        return ServeResult(
            self.routing_cost + other.routing_cost,
            self.rotations + other.rotations,
            self.links_changed + other.links_changed,
        )


@dataclass(frozen=True, slots=True)
class BatchServeResult:
    """Accumulated outcome of serving a whole request batch.

    The batched serve path (``network.serve_trace``) skips per-request
    :class:`ServeResult` construction and reports scalar totals; the
    optional per-request series are only materialized when the caller asks
    for them (``record_series=True``).  ``segments`` holds one
    ``(routing, rotations, links)`` row per segment when the batch was
    served segmented (``serve_trace(..., ends=...)``).
    """

    m: int
    total_routing: int
    total_rotations: int = 0
    total_links_changed: int = 0
    routing_series: Optional[np.ndarray] = None
    rotation_series: Optional[np.ndarray] = None
    segments: Optional[np.ndarray] = None


@runtime_checkable
class SelfAdjustingNetwork(Protocol):
    """The interface every network (static or self-adjusting) implements."""

    @property
    def n(self) -> int:
        """Number of network nodes."""
        ...

    def serve(self, u: int, v: int) -> ServeResult:
        """Serve the request ``(u, v)`` and (possibly) self-adjust."""
        ...


@runtime_checkable
class BatchServingNetwork(Protocol):
    """Networks that additionally expose the batched serve fast path."""

    def serve_trace(
        self, sources, targets=None, *, record_series: bool = False
    ) -> BatchServeResult:
        """Serve parallel ``(u, v)`` endpoint arrays; returns totals."""
        ...
