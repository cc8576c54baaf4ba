"""Static (non-adjusting) tree networks under the SAN serving interface.

The paper's static baselines — the full k-ary tree, the optimal
routing-based k-ary tree, the full binary tree, the optimal BST network —
serve requests at their tree distance and never reconfigure.  This wrapper
gives any tree that cost behaviour plus a batched fast path for
``serve_trace``:

* a kernel-built layout (a :class:`~repro.core.native.NativeTree`, what
  the registry's ``full-tree`` and ``optimal-tree`` builds hold where the
  kernel loads) is costed in the kernel by ``repro_tree_distances``, one
  call per batch;
* an object tree (a :class:`~repro.core.tree.KAryTreeNetwork`, a
  :class:`~repro.splaynet.tree.BSTNetwork`, or anything built without the
  kernel) is costed by a precomputed
  :class:`~repro.analysis.distance.TreeDistanceOracle`, which is also the
  native path's oracle in the tests.

Both paths reject a ragged batch or an identifier outside ``1..n`` with
an :class:`~repro.errors.EngineError`.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.distance import TreeDistanceOracle
from repro.core.engine import as_request_arrays, check_request_ids
from repro.core.native import NativeTree
from repro.network.protocols import BatchServeResult, ServeResult

__all__ = ["StaticTreeNetwork"]


class StaticTreeNetwork:
    """A fixed tree topology serving requests at tree distance.

    Parameters
    ----------
    tree:
        A :class:`~repro.core.native.NativeTree` layout, or any tree
        exposing ``root_id``, ``n`` and ``iter_edges()`` —
        :class:`~repro.core.tree.KAryTreeNetwork` and
        :class:`~repro.splaynet.tree.BSTNetwork` both qualify.
    """

    def __init__(self, tree) -> None:
        if isinstance(tree, NativeTree):
            self._layout, self._tree, self._oracle = tree, None, None
        else:
            self._layout, self._tree = None, tree
            self._oracle = TreeDistanceOracle.from_tree(tree)

    @property
    def tree(self):
        """The object tree (materialized from a layout on first read)."""
        if self._tree is None:
            self._tree = self._layout.to_tree()
        return self._tree

    @property
    def n(self) -> int:
        return self._layout.n if self._layout is not None else self._oracle.n

    def distance(self, u: int, v: int) -> int:
        if self._layout is not None:
            return self._layout.distance(u, v)
        return self._oracle.distance(u, v)

    def serve(self, u: int, v: int) -> ServeResult:
        """Route ``(u, v)``; a static network never adjusts."""
        return ServeResult(self.distance(u, v), 0, 0)

    def serve_trace(
        self,
        sources,
        targets=None,
        *,
        record_series: bool = False,
    ) -> BatchServeResult:
        """Serve a whole batch in one distance query.

        Static trees never reconfigure, so the batched path is a single
        kernel call on a layout (O(n + m · depth)), else one vectorized
        O((m + n) log n) oracle LCA/distance computation, instead of m
        scalar calls.
        """
        us, vs = as_request_arrays(sources, targets)
        if self._layout is not None:
            total, costs = self._layout.distances(us, vs, series=record_series)
        else:
            check_request_ids(us, vs, self._oracle.n)
            costs = self._oracle.distances(us, vs)
            total = int(costs.sum())
        routing_series = rotation_series = None
        if record_series:
            routing_series = costs
            rotation_series = np.zeros(len(us), dtype=np.int64)
        return BatchServeResult(
            len(us), total, 0, 0, routing_series, rotation_series
        )

    # ------------------------------------------------------------------
    def snapshot_state(self) -> None:
        """Static topologies carry no mutable serving state."""
        return None

    def restore_state(self, state: None) -> None:
        """No-op: a static network is always at its initial state."""

    def validate(self) -> None:
        tree = self._layout if self._layout is not None else self._tree
        validate = getattr(tree, "validate", None)
        if validate is not None:
            validate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StaticTreeNetwork(n={self.n})"
