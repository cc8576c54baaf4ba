"""k-ary SplayNet — the paper's first online self-adjusting network.

``KArySplayNet`` generalizes SplayNet [22] to arity ``k``: on a request
``(u, v)`` it finds the lowest common ancestor ``w`` of the endpoints, splays
``u`` into ``w``'s position using the ``k-splay``/``k-semi-splay`` rotations,
then splays ``v`` up to a child of ``u``, so the pair ends up adjacent and
repeated requests cost 1.  For ``k = 2`` this reproduces standard SplayNet
behaviour (the paper's "2-ary SplayNet").

The routing cost charged for a request is the endpoint distance in the
topology *before* the adjustment; rotations and link churn are reported
separately (see :class:`repro.network.protocols.ServeResult`).

Two interchangeable backends drive the hot loop (see
:mod:`repro.core.engine`): ``engine="object"`` serves on the pointer-linked
:class:`~repro.core.node.KAryNode` graph, ``engine="native"`` on a
:class:`~repro.core.native.NativeTree` resident in the C kernel.  Both
produce identical topologies and cost totals; the kernel is one to two
orders of magnitude faster on long traces.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.builders import (
    build_balanced_tree,
    build_complete_tree,
    build_random_tree,
)
from repro.core.engine import as_request_arrays, batch_serve, resolve_engine
from repro.core.flat import FlatTree
from repro.core.native import NativeTree
from repro.core.rotations import BLOCK_POLICIES, splay_step
from repro.core.splay import splay_until
from repro.core.tree import KAryTreeNetwork
from repro.errors import EngineError, InvalidTreeError, RotationError
from repro.network.protocols import BatchServeResult, ServeResult

__all__ = ["KArySplayNet"]

_INITIAL_BUILDERS = {
    "complete": build_complete_tree,
    "balanced": build_balanced_tree,
}


class KArySplayNet:
    """An online self-adjusting k-ary search tree network.

    Parameters
    ----------
    n:
        Number of network nodes (identifiers ``1..n``).
    k:
        Arity (``k >= 2``; ``k = 2`` is standard SplayNet re-expressed with
        separate routing arrays).  Defaults to 2 when building an initial
        topology; when an explicit tree is provided its arity is adopted,
        and a ``k`` that conflicts with it is rejected.
    initial:
        Initial topology: ``"complete"`` (default), ``"balanced"``,
        ``"random"``, or an explicit :class:`KAryTreeNetwork` to adopt.
    policy:
        Block-selection policy for rotations (see
        :data:`repro.core.rotations.BLOCK_POLICIES`).
    splay_depth:
        Levels climbed per transformation: 2 = the paper's k-splay
        discipline (default); >2 uses the generalized d-node rotation
        (Section 4.1's closing remark; see the deep-splay ablation bench),
        which runs on the object engine.
    seed:
        Seed for the ``"random"`` initial topology.
    engine:
        Tree-engine backend, ``"object"`` or ``"native"`` (``None`` = the
        process default, see :mod:`repro.core.engine`).  ``"native"``
        resolves to ``"object"`` for a deep splay, and without the
        compiled kernel (with a one-time warning).
    """

    def __init__(
        self,
        n: Optional[int] = None,
        k: Optional[int] = None,
        *,
        initial: "str | KAryTreeNetwork" = "complete",
        policy: str = "center",
        splay_depth: int = 2,
        seed: Optional[int] = None,
        engine: Optional[str] = None,
    ) -> None:
        if policy not in BLOCK_POLICIES:
            raise RotationError(
                f"unknown block policy {policy!r}; choose from {BLOCK_POLICIES}"
            )
        if splay_depth < 2:
            raise RotationError(f"splay_depth must be >= 2, got {splay_depth}")
        self.policy = policy
        self.splay_depth = splay_depth
        self.engine = resolve_engine(engine, splay_depth=splay_depth)
        if isinstance(initial, KAryTreeNetwork):
            if n is not None and n != initial.n:
                raise InvalidTreeError(
                    f"n={n} conflicts with provided tree of size {initial.n}"
                )
            if k is not None and k != initial.k:
                raise InvalidTreeError(
                    f"k={k} conflicts with provided tree of arity {initial.k}"
                )
            if initial.routing_based:
                raise InvalidTreeError(
                    "routing-based trees cannot self-adjust (identifiers double"
                    " as separators); build a non-routing-based initial tree"
                )
            tree = initial
        else:
            if n is None:
                raise InvalidTreeError("n is required unless a tree is provided")
            if k is None:
                k = 2
            if initial == "complete" and self.engine == "native":
                # The kernel builds this layout itself: no node graph at all.
                self._k = k
                self._flat: Optional[NativeTree] = NativeTree.complete(n, k)
                self._tree: Optional[KAryTreeNetwork] = None
                return
            if initial == "random":
                tree = build_random_tree(
                    n, k, np.random.default_rng(seed), validate=False
                )
            elif initial in _INITIAL_BUILDERS:
                tree = _INITIAL_BUILDERS[initial](n, k, validate=False)
            else:
                raise InvalidTreeError(f"unknown initial topology {initial!r}")
        self._k = tree.k
        if self.engine == "object":
            self._flat = None
            self._tree = tree
        else:
            self._flat = NativeTree.from_tree(tree)
            self._tree = None

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        if self._flat is not None:
            return self._flat.n
        return self._tree.n

    @property
    def k(self) -> int:
        return self._k

    @property
    def tree(self) -> KAryTreeNetwork:
        """The current topology as an object tree.

        For the object engine this is the live tree; for the native engine
        it is a fresh :class:`KAryTreeNetwork` snapshot materialized from
        the kernel's arrays (mutating it does not affect the network).
        """
        if self._flat is not None:
            return self._flat.to_tree()
        return self._tree

    @property
    def flat(self) -> Optional[NativeTree]:
        """The live :class:`NativeTree` backend (``None`` on the object engine)."""
        return self._flat

    @property
    def serves_segments(self) -> bool:
        """Whether :meth:`serve_trace` takes segment ``ends``: the native
        kernel serves every segment of a batch in one call."""
        return self._flat is not None

    def distance(self, u: int, v: int) -> int:
        if self._flat is not None:
            return self._flat.distance(u, v)
        return self._tree.distance(u, v)

    def depth(self, x: int) -> int:
        """Depth of node ``x`` in the current topology (root = 0)."""
        if self._flat is not None:
            return self._flat.depth(x)
        return self._tree.depth(x)

    # ------------------------------------------------------------------
    def _serve_totals(self, u: int, v: int) -> tuple[int, int, int]:
        """Serve one request, returning ``(routing, rotations, links)``.

        The scalar core shared by :meth:`serve` (which wraps the totals in a
        :class:`ServeResult`) and the batched paths, which accumulate the
        bare tuples without per-request object construction.
        """
        if self._flat is not None:
            return self._flat.serve_one(u, v, self.policy)
        if u == v:
            return 0, 0, 0
        tree = self._tree
        lca, du, dv = tree.lca(u, v)
        routing_cost = du + dv
        node_u = tree.node(u)
        node_v = tree.node(v)
        rotations = 0
        links = 0
        if lca is node_v:
            # v is an ancestor of u: lift u to a child of v.
            rotations, links = splay_until(
                tree, node_u, node_v, policy=self.policy, depth=self.splay_depth
            )
        else:
            if lca is not node_u:
                # Lift u into the LCA's old position (the subtree's root).
                stop = lca.parent
                rotations, links = splay_until(
                    tree, node_u, stop, policy=self.policy, depth=self.splay_depth
                )
            # v is now strictly below u; lift it to a child of u.
            r2, l2 = splay_until(
                tree, node_v, node_u, policy=self.policy, depth=self.splay_depth
            )
            rotations += r2
            links += l2
        return routing_cost, rotations, links

    def serve(self, u: int, v: int) -> ServeResult:
        """Serve request ``(u, v)``: route, then splay the endpoints together.

        After the call (for ``u != v``) the endpoints are adjacent, so a
        burst of repeated requests costs 1 per request — the self-adjusting
        property the paper's experiments exploit on high-locality traces.
        """
        return ServeResult(*self._serve_totals(u, v))

    def serve_trace(
        self,
        sources,
        targets=None,
        *,
        record_series: bool = False,
        ends=None,
    ) -> BatchServeResult:
        """Serve a whole request batch; returns accumulated cost totals.

        ``sources``/``targets`` are parallel identifier arrays (NumPy or
        lists), or a single :class:`~repro.workloads.trace.Trace` in the
        first position.  Per-request :class:`ServeResult` construction is
        skipped; series arrays are only built when ``record_series`` is
        set.  This is the fast path :class:`~repro.network.simulator.
        Simulator` uses when no per-request validation is requested.

        ``ends`` (int64 cumulative segment ends, the last equal to the
        batch length) serves the batch as consecutive segments in one
        kernel call and fills :attr:`BatchServeResult.segments` with each
        segment's totals; it needs :attr:`serves_segments`.
        """
        if ends is not None and not self.serves_segments:
            raise EngineError(
                "segmented serve_trace needs the native kernel"
                " (see KArySplayNet.serves_segments)"
            )
        if self._flat is None:
            return batch_serve(
                self._serve_totals, sources, targets, record_series=record_series
            )
        src, dst = as_request_arrays(sources, targets)
        m = len(src)
        routing_series = rotation_series = None
        if record_series:
            routing_series = np.empty(m, dtype=np.int64)
            rotation_series = np.empty(m, dtype=np.int64)
        serve = dict(
            policy=self.policy,
            routing_series=routing_series,
            rotation_series=rotation_series,
        )
        segments = None
        if ends is None:
            totals = self._flat.serve_many(src, dst, **serve)
        else:
            segments = self._flat.serve_many(src, dst, ends=ends, **serve)
            totals = segments.sum(axis=0).tolist()
        return BatchServeResult(
            m,
            totals[0],
            totals[1],
            totals[2],
            routing_series,
            rotation_series,
            segments,
        )

    def access(self, x: int) -> ServeResult:
        """A splay-*tree* access: search ``x`` from the root, splay it up.

        This is the Theorem 12 setting ("all the routing requests are from
        the root"): the request costs the depth of ``x`` and ``x`` finishes
        as the new root.  A sequence of accesses therefore obeys the splay
        tree's static-optimality bound
        ``O(m + Σ_x n_x log(m / n_x))`` — checked empirically by
        ``bench_theorem12_static_optimality``.
        """
        if self._flat is not None:
            return ServeResult(*self._flat.splay_until(x, 0, policy=self.policy))
        routing_cost = self.depth(x)
        rotations, links = self.splay_to_root(x)
        return ServeResult(routing_cost, rotations, links)

    def splay_to_root(self, x: int) -> tuple[int, int]:
        """Splay ``x`` all the way to the root; returns ``(rotations, links)``."""
        if self._flat is not None:
            _, rotations, links = self._flat.splay_until(
                x, 0, policy=self.policy
            )
            return rotations, links
        tree = self._tree
        return splay_until(
            tree, tree.node(x), None, policy=self.policy, depth=self.splay_depth
        )

    def serve_semi(self, u: int, v: int) -> ServeResult:
        """Partially-reactive serving: one splay step per endpoint.

        The spectrum sketched in the paper's introduction runs from fully
        reactive (``serve``) to static; this variant adjusts by exactly one
        transformation per endpoint per request, trading slower adaptation
        for minimal reconfiguration churn.  Unlike ``serve`` it does *not*
        leave the endpoints adjacent.
        """
        if u == v:
            return ServeResult(0, 0, 0)
        flat = self._flat
        rotations = 0
        links = 0
        if flat is not None:
            _, du, dv = flat.lca(u, v)
            for endpoint in (u, v):
                _, r, l = flat.splay_until(
                    endpoint, 0, policy=self.policy, max_rotations=1
                )
                rotations += r
                links += l
            return ServeResult(du + dv, rotations, links)
        tree = self._tree
        _, du, dv = tree.lca(u, v)
        for endpoint in (u, v):
            node = tree.node(endpoint)
            if node.parent is None:
                continue
            outcome = splay_step(node, None, policy=self.policy)
            rotations += 1
            links += outcome.links_changed
            if outcome.new_top.parent is None:
                tree.replace_root(outcome.new_top)
        return ServeResult(du + dv, rotations, links)

    # ------------------------------------------------------------------
    def snapshot_state(self):
        """An opaque, immutable checkpoint of the current topology.

        The state is a plain :class:`FlatTree` value on the native engine
        and an object tree clone on the object engine, but
        :meth:`restore_state` accepts either, so a checkpoint taken on one
        engine restores on the other — both engines represent the
        identical topology.
        """
        if self._flat is not None:
            return FlatTree.from_flat(self._flat)
        return self._tree.clone()

    def restore_state(self, state) -> None:
        """Rewind the topology to a :meth:`snapshot_state` checkpoint."""
        if not isinstance(state, (FlatTree, KAryTreeNetwork)):
            raise InvalidTreeError(
                f"cannot restore a KArySplayNet from {type(state).__name__}"
            )
        if state.n != self.n or state.k != self._k:
            raise InvalidTreeError(
                f"snapshot shape (n={state.n}, k={state.k}) does not"
                f" match network (n={self.n}, k={self._k})"
            )
        if self._flat is not None:
            self._flat = (
                NativeTree.from_flat(state)
                if isinstance(state, FlatTree)
                else NativeTree.from_tree(state)
            )
        else:
            self._tree = (
                state.clone()
                if isinstance(state, KAryTreeNetwork)
                else state.to_tree()
            )

    def validate(self) -> None:
        """Full structural validation of the current topology."""
        if self._flat is not None:
            self._flat.validate()
        else:
            self._tree.validate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KArySplayNet(n={self.n}, k={self.k}, policy={self.policy!r},"
            f" engine={self.engine!r})"
        )
