"""Flat structure-of-arrays engine for k-ary search tree networks.

This module is the pure-Python array engine behind ``engine="flat"``: the
readable mirror of the C kernel in :mod:`repro.core._native` (which
operates on the same layout) and the fallback wherever that kernel cannot
be built.  The entire tree lives in preallocated identifier-indexed arrays,
and the paper's rotations (``k-semi-splay``, ``k-splay``, the generalized
d-node rotation) plus LCA/distance/serve are reimplemented as index
arithmetic over those arrays.  Layout for a tree over identifiers
``1..n`` with arity ``k`` (index 0 is the null sentinel everywhere):

* ``parent[nid]``  — parent identifier (0 for the root),
* ``pslot[nid]``   — slot occupied in the parent (-1 for the root),
* ``child_rows[nid][slot]`` — child identifier per slot (0 = empty),
* ``routing_rows[nid]``     — the node's sorted separator values,
* ``smin[nid]`` / ``smax[nid]`` — cached subtree identifier range.

The scalar arrays are plain Python lists of machine ints and the per-node
rows are small Python lists rather than NumPy buffers: the serve loop is
scalar index arithmetic, where list indexing is several times faster than
NumPy element access, and whole-row rebinding (``child_rows[x] = [0] * k``)
replaces per-slot pointer surgery.  NumPy appears only at the batch
boundary (:meth:`FlatTree.serve_many` accepts NumPy request arrays and
fills NumPy series buffers).

Two things make the flat rotations much cheaper than their object mirrors:

* **Arithmetic subtree placement.**  The separators of a child nest
  strictly inside one slot interval of its parent, so in the merged array
  of a rotation group the interval index of every hanging subtree follows
  from slot positions alone (no search): with ``y`` in slot ``sy`` of
  ``x`` and ``z`` in slot ``sz`` of ``y``, a subtree at slot ``s`` of
  ``x`` has index ``s`` (+ ``2(k-1)`` past ``sy``), one at slot ``t`` of
  ``y`` has ``sy + t`` (+ ``k-1`` past ``sz``), and one at slot ``r`` of
  ``z`` has ``sy + sz + r``.
* **Lazy subtree ranges.**  Because placement never consults
  ``smin``/``smax``, the depth-2 serve loop skips range maintenance
  entirely; the ranges are refreshed in one O(n) pass only when something
  actually needs them (validation, the generalized deep-splay rotation,
  structural export).

The implementation deliberately mirrors :mod:`repro.core.rotations` and
:mod:`repro.core.multirotation` decision-for-decision (same merged arrays,
same block-start choices, same reattachment targets), so the two engines
produce *identical* topologies and identical rotation/link totals on any
request sequence — ``tests/test_flat_engine.py`` cross-validates this on
randomized traces.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.core.engine import accumulate_serve_totals
from repro.core.keyspace import NEG_INF, POS_INF
from repro.core.multirotation import MAX_CHAIN, _assignments, _plan_placements
from repro.core.node import KAryNode
from repro.core.rotations import BLOCK_POLICIES
from repro.core.tree import KAryTreeNetwork
from repro.errors import EngineError, InvalidTreeError, RotationError

__all__ = ["FlatTree", "tree_signature"]


def tree_signature(tree) -> list[tuple[int, int, tuple[float, ...]]]:
    """Preorder ``(nid, pslot, routing)`` triples of an object tree.

    Two trees over the same identifier set are topologically identical iff
    their signatures are equal (the preorder fixes the child wiring, the
    pslots fix the slots, the routing arrays fix the key-space partition).
    """
    out: list[tuple[int, int, tuple[float, ...]]] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        out.append((node.nid, node.pslot, tuple(node.routing)))
        for child in reversed(node.children):
            if child is not None:
                stack.append(child)
    return out


class FlatTree:
    """A k-ary search tree network stored as flat identifier-indexed arrays.

    Construct via :meth:`from_tree`; the class is a *mutable engine*, not a
    value object — rotations update the arrays in place.
    """

    __slots__ = (
        "n",
        "k",
        "root",
        "parent",
        "pslot",
        "child_rows",
        "routing_rows",
        "smin",
        "smax",
        "_ranges_dirty",
        "_visit",
        "_vdepth",
        "_epoch",
    )

    #: Whether :meth:`serve_many` is fastest on NumPy request arrays
    #: (the native kernel) rather than Python int lists (this class's
    #: pure-Python loop).  Callers that normalize batched input consult
    #: this to skip a round trip through the other representation.
    prefers_request_arrays = False

    def __init__(self, n: int, k: int) -> None:
        if k < 2:
            raise InvalidTreeError(f"arity k must be >= 2, got {k}")
        self.n = n
        self.k = k
        self.root = 0
        self.parent = [0] * (n + 1)
        self.pslot = [-1] * (n + 1)
        self.child_rows: list[list[int]] = [[0] * k for _ in range(n + 1)]
        self.routing_rows: list[list[float]] = [[] for _ in range(n + 1)]
        self.smin = list(range(n + 1))
        self.smax = list(range(n + 1))
        self._ranges_dirty = False
        # Epoch-stamped scratch arrays for the LCA walk (no per-request
        # allocation, no clearing between requests).
        self._visit = [0] * (n + 1)
        self._vdepth = [0] * (n + 1)
        self._epoch = 0

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_tree(cls, tree: KAryTreeNetwork) -> "FlatTree":
        """Snapshot an object-engine tree into flat arrays."""
        flat = cls(tree.n, tree.k)
        parent, pslot = flat.parent, flat.pslot
        child_rows, routing_rows = flat.child_rows, flat.routing_rows
        smin, smax = flat.smin, flat.smax
        for node in tree.root.iter_subtree():
            nid = node.nid
            parent[nid] = node.parent.nid if node.parent is not None else 0
            pslot[nid] = node.pslot
            smin[nid] = node.smin
            smax[nid] = node.smax
            child_rows[nid] = [
                child.nid if child is not None else 0 for child in node.children
            ]
            routing_rows[nid] = list(node.routing)
        flat.root = tree.root_id
        return flat

    def to_tree(self, *, validate: bool = False) -> KAryTreeNetwork:
        """Materialize an object-engine snapshot of the current topology.

        Subtree ranges of the snapshot are recomputed by the
        :class:`KAryTreeNetwork` constructor, so lazily-stale flat ranges
        never leak out.
        """
        k = self.k
        child_rows, routing_rows = self.child_rows, self.routing_rows
        nodes = [None] + [KAryNode(nid, k) for nid in range(1, self.n + 1)]
        for nid in range(1, self.n + 1):
            node = nodes[nid]
            node.routing = list(routing_rows[nid])
            for slot, c in enumerate(child_rows[nid]):
                if c:
                    node.attach_child(nodes[c], slot)
        return KAryTreeNetwork(k, nodes[self.root], validate=validate)

    def _sync_lists(self) -> None:
        """Hook for engines whose authoritative state lives elsewhere.

        :class:`~repro.core.native.NativeTree` overrides this to copy its
        C-resident buffers back into the list-backed state before any
        consumer reads it (snapshot, inspection, cross-engine transfer).
        For the pure-Python engine the lists *are* the state: no-op.
        """
        return None

    @classmethod
    def from_flat(cls, other: "FlatTree") -> "FlatTree":
        """An independent deep copy of ``other``'s topology (O(n)).

        ``cls`` and ``type(other)`` may differ — this is how a snapshot
        taken on one array-backed engine is adopted by the other (both
        :class:`FlatTree` and :class:`~repro.core.native.NativeTree`
        share the list-backed state layout).
        """
        other._sync_lists()
        twin = cls(other.n, other.k)
        twin.root = other.root
        twin.parent = list(other.parent)
        twin.pslot = list(other.pslot)
        twin.child_rows = [list(row) for row in other.child_rows]
        twin.routing_rows = [list(row) for row in other.routing_rows]
        twin.smin = list(other.smin)
        twin.smax = list(other.smax)
        twin._ranges_dirty = other._ranges_dirty
        return twin

    def copy(self) -> "FlatTree":
        """An independent deep copy of the current topology (O(n)).

        The copy shares no mutable state with the original — per-node
        child/routing rows are re-materialized — so it can serve as an
        immutable checkpoint while the original keeps rotating (the
        session snapshot path of :mod:`repro.net.session`).
        """
        return type(self).from_flat(self)

    def signature(self) -> list[tuple[int, int, tuple[float, ...]]]:
        """Preorder ``(nid, pslot, routing)`` triples (see :func:`tree_signature`)."""
        child_rows, routing_rows, pslot = (
            self.child_rows,
            self.routing_rows,
            self.pslot,
        )
        out: list[tuple[int, int, tuple[float, ...]]] = []
        stack = [self.root]
        while stack:
            nid = stack.pop()
            out.append((nid, pslot[nid], tuple(routing_rows[nid])))
            row = child_rows[nid]
            for slot in range(self.k - 1, -1, -1):
                c = row[slot]
                if c:
                    stack.append(c)
        return out

    # ------------------------------------------------------------------
    # subtree ranges (maintained lazily; see module docstring)
    # ------------------------------------------------------------------
    def refresh_ranges(self) -> None:
        """Recompute every ``smin``/``smax`` bottom-up in one O(n) pass."""
        child_rows, smin, smax = self.child_rows, self.smin, self.smax
        order = [self.root]
        for nid in order:  # grows while iterating: preorder
            for c in child_rows[nid]:
                if c:
                    order.append(c)
        for nid in reversed(order):
            lo = hi = nid
            for c in child_rows[nid]:
                if c:
                    if smin[c] < lo:
                        lo = smin[c]
                    if smax[c] > hi:
                        hi = smax[c]
            smin[nid] = lo
            smax[nid] = hi
        self._ranges_dirty = False

    def _ensure_ranges(self) -> None:
        if self._ranges_dirty:
            self.refresh_ranges()

    def _recompute_range(self, nid: int) -> None:
        """Refresh one node's range from its (already-correct) children."""
        smin, smax = self.smin, self.smax
        lo = hi = nid
        for c in self.child_rows[nid]:
            if c:
                if smin[c] < lo:
                    lo = smin[c]
                if smax[c] > hi:
                    hi = smax[c]
        smin[nid] = lo
        smax[nid] = hi

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def depth(self, nid: int) -> int:
        """Depth of ``nid`` (root has depth 0)."""
        parent = self.parent
        d = 0
        node = parent[nid]
        while node:
            node = parent[node]
            d += 1
        return d

    def lca(self, u: int, v: int) -> tuple[int, int, int]:
        """``(lca, du, dv)`` — common ancestor and climb distances.

        One walk up from ``u`` stamps the ancestor chain in the epoch
        scratch arrays; the walk up from ``v`` stops at the first stamped
        node, so total work is ``depth(u) + depth(v)`` parent hops.
        """
        parent = self.parent
        visit, vdepth = self._visit, self._vdepth
        self._epoch += 1
        epoch = self._epoch
        node = u
        d = 0
        while node:
            visit[node] = epoch
            vdepth[node] = d
            node = parent[node]
            d += 1
        node = v
        dv = 0
        while visit[node] != epoch:
            node = parent[node]
            dv += 1
        return node, vdepth[node], dv

    def distance(self, u: int, v: int) -> int:
        """Tree distance (in edges) between identifiers ``u`` and ``v``."""
        if u == v:
            return 0
        _, du, dv = self.lca(u, v)
        return du + dv

    # ------------------------------------------------------------------
    # rotations (index-arithmetic mirrors of repro.core.rotations)
    # ------------------------------------------------------------------
    def semi_splay(self, y: int, policy: str = "center") -> int:
        """Promote ``y`` above its parent; returns the link churn.

        Range-maintaining wrapper around :meth:`semi_splay_fast` — use this
        when serving request-by-request mixed with range consumers; the
        batched serve loop uses the fast core and refreshes ranges lazily.
        """
        x = self.parent[y]
        links = self.semi_splay_fast(y, policy)
        self._recompute_range(x)
        self._recompute_range(y)
        return links

    def splay(self, z: int, policy: str = "center") -> int:
        """Promote ``z`` above parent and grandparent; returns the link churn.

        Range-maintaining wrapper around :meth:`splay_fast` (both rotation
        cases); the batched serve loop uses the fast core directly.
        """
        y = self.parent[z]
        x = self.parent[y] if y else 0
        links = self.splay_fast(z, policy)
        # Bottom-up: in case 1 x and y end up siblings under z, in case 2
        # the chain is z -> y -> x; either way x, y, z is a valid order.
        self._recompute_range(x)
        self._recompute_range(y)
        self._recompute_range(z)
        return links

    def semi_splay_fast(self, y: int, policy: str = "center") -> int:
        """:meth:`semi_splay` core without subtree-range maintenance.

        Index-arithmetic mirror of :func:`repro.core.rotations.k_semi_splay`.
        Hanging subtrees are re-homed without searching: a subtree at slot
        ``s`` of the parent has merged-interval index ``s`` (plus ``k-1``
        past the slot holding ``y``, whose separators all nest there).
        Callers are responsible for range freshness (see
        :meth:`refresh_ranges`).
        """
        parent, pslot = self.parent, self.pslot
        child_rows, routing_rows = self.child_rows, self.routing_rows
        k = self.k
        km1 = k - 1
        x = parent[y]
        if not x:
            raise RotationError(f"node {y} is the root; cannot semi-splay")
        grand = parent[x]
        gslot = pslot[x]
        sy = pslot[y]

        merged = sorted(routing_rows[x] + routing_rows[y])
        xrow = child_rows[x]
        yrow = child_rows[y]
        nxrow = [0] * k
        nyrow = [0] * k
        child_rows[x] = nxrow
        child_rows[y] = nyrow

        pos_x = bisect_left(merged, x)
        # block start covering pos_x, clamped to [max(0, pos_x-km1), min(km1, pos_x)]
        if policy == "center":
            j = pos_x - km1 // 2
        elif policy == "left":
            j = pos_x - km1
        else:
            j = pos_x
        lo = pos_x - km1
        if lo < 0:
            lo = 0
        hi = km1 if km1 < pos_x else pos_x
        if j < lo:
            j = lo
        elif j > hi:
            j = hi
        jhi = j + km1

        routing_rows[x] = merged[j:jhi]
        routing_rows[y] = merged[:j] + merged[jhi:]

        nyrow[j] = x
        parent[x] = y
        pslot[x] = j
        links = 2 if grand else 0
        # x's subtree at slot s has merged index s (+ km1 past slot sy);
        # y's subtree at slot t has merged index sy + t.
        s = -1
        for c in xrow:
            s += 1
            if not c or c == y:
                continue
            m = s if s < sy else s + km1
            if j <= m <= jhi:
                slot = m - j
                nxrow[slot] = c
                parent[c] = x
                pslot[c] = slot
            else:
                slot = m if m < j else m - km1
                nyrow[slot] = c
                parent[c] = y
                pslot[c] = slot
                links += 2
        m = sy - 1
        for c in yrow:
            m += 1
            if not c:
                continue
            if j <= m <= jhi:
                slot = m - j
                nxrow[slot] = c
                parent[c] = x
                pslot[c] = slot
                links += 2
            else:
                slot = m if m < j else m - km1
                nyrow[slot] = c
                parent[c] = y
                pslot[c] = slot

        if grand:
            child_rows[grand][gslot] = y
            parent[y] = grand
            pslot[y] = gslot
        else:
            parent[y] = 0
            pslot[y] = -1
            self.root = y
        return links

    def splay_fast(self, z: int, policy: str = "center") -> int:
        """:meth:`splay` core without subtree-range maintenance.

        Index-arithmetic mirror of :func:`repro.core.rotations.k_splay`
        (both the distant zig-zag case and the close zig-zig case), with
        arithmetic subtree placement (module docstring) and the three
        reattachment loops specialized per source row so the owner-flip
        link charges are constants.  Callers are responsible for range
        freshness (see :meth:`refresh_ranges`).
        """
        parent, pslot = self.parent, self.pslot
        child_rows, routing_rows = self.child_rows, self.routing_rows
        k = self.k
        km1 = k - 1
        km2 = 2 * km1
        y = parent[z]
        if not y:
            raise RotationError(f"node {z} is the root; cannot k-splay")
        x = parent[y]
        if not x:
            raise RotationError(
                f"node {z} has no grandparent; use semi_splay instead"
            )
        grand = parent[x]
        gslot = pslot[x]
        sy = pslot[y]
        sz = pslot[z]

        merged = sorted(routing_rows[x] + routing_rows[y] + routing_rows[z])
        xrow = child_rows[x]
        yrow = child_rows[y]
        zrow = child_rows[z]
        pos_x = bisect_left(merged, x)
        pos_y = bisect_left(merged, y)

        nxrow = [0] * k
        nyrow = [0] * k
        nzrow = [0] * k
        child_rows[x] = nxrow
        child_rows[y] = nyrow
        child_rows[z] = nzrow

        diff = pos_x - pos_y
        if diff > km1 or -diff > km1:
            # ---- Case 1 (zig-zag analogue): x and y become children of z.
            # The chain x-y-z turns into the star z-{x, y}: the y-z link
            # survives, x-y is replaced by x-z (two changes).
            if diff < 0:
                lo_node, pos_lo, hi_node, pos_hi = x, pos_x, y, pos_y
                lo_nrow, hi_nrow = nxrow, nyrow
                x_lo_flip, x_hi_flip = 0, 2
                y_lo_flip, y_hi_flip = 2, 0
            else:
                lo_node, pos_lo, hi_node, pos_hi = y, pos_y, x, pos_x
                lo_nrow, hi_nrow = nyrow, nxrow
                x_lo_flip, x_hi_flip = 2, 0
                y_lo_flip, y_hi_flip = 0, 2
            j_lo = pos_lo - km1
            if j_lo < 0:
                j_lo = 0
            j_hi = km2
            if pos_hi < j_hi:
                j_hi = pos_hi
            if j_hi - j_lo < k:  # pragma: no cover - proven impossible
                raise RotationError("k-splay case 1 block separation failed")
            j_lo_hi = j_lo + km1
            j_hi_hi = j_hi + km1

            routing_rows[lo_node] = merged[j_lo:j_lo_hi]
            routing_rows[hi_node] = merged[j_hi:j_hi_hi]
            routing_rows[z] = (
                merged[:j_lo] + merged[j_lo_hi:j_hi] + merged[j_hi_hi:]
            )

            nzrow[j_lo] = lo_node
            parent[lo_node] = z
            pslot[lo_node] = j_lo
            nzrow[j_hi - km1] = hi_node
            parent[hi_node] = z
            pslot[hi_node] = j_hi - km1
            links = 2
            s = -1
            for c in xrow:
                s += 1
                if not c or c == y:
                    continue
                m = s if s < sy else s + km2
                if j_lo <= m <= j_lo_hi:
                    slot = m - j_lo
                    lo_nrow[slot] = c
                    parent[c] = lo_node
                    pslot[c] = slot
                    links += x_lo_flip
                elif j_hi <= m <= j_hi_hi:
                    slot = m - j_hi
                    hi_nrow[slot] = c
                    parent[c] = hi_node
                    pslot[c] = slot
                    links += x_hi_flip
                else:
                    if m < j_lo:
                        slot = m
                    elif m < j_hi:
                        slot = m - km1
                    else:
                        slot = m - km2
                    nzrow[slot] = c
                    parent[c] = z
                    pslot[c] = slot
                    links += 2
            t = -1
            for c in yrow:
                t += 1
                if not c or c == z:
                    continue
                m = sy + t if t < sz else sy + t + km1
                if j_lo <= m <= j_lo_hi:
                    slot = m - j_lo
                    lo_nrow[slot] = c
                    parent[c] = lo_node
                    pslot[c] = slot
                    links += y_lo_flip
                elif j_hi <= m <= j_hi_hi:
                    slot = m - j_hi
                    hi_nrow[slot] = c
                    parent[c] = hi_node
                    pslot[c] = slot
                    links += y_hi_flip
                else:
                    if m < j_lo:
                        slot = m
                    elif m < j_hi:
                        slot = m - km1
                    else:
                        slot = m - km2
                    nzrow[slot] = c
                    parent[c] = z
                    pslot[c] = slot
                    links += 2
            m = sy + sz - 1
            for c in zrow:
                m += 1
                if not c:
                    continue
                if j_lo <= m <= j_lo_hi:
                    slot = m - j_lo
                    lo_nrow[slot] = c
                    parent[c] = lo_node
                    pslot[c] = slot
                    links += 2
                elif j_hi <= m <= j_hi_hi:
                    slot = m - j_hi
                    hi_nrow[slot] = c
                    parent[c] = hi_node
                    pslot[c] = slot
                    links += 2
                else:
                    if m < j_lo:
                        slot = m
                    elif m < j_hi:
                        slot = m - km1
                    else:
                        slot = m - km2
                    nzrow[slot] = c
                    parent[c] = z
                    pslot[c] = slot
        else:
            # ---- Case 2 (zig-zig analogue): chain reversed to z -> y -> x.
            if diff < 0:
                lo_pos, hi_pos = pos_x, pos_y
            else:
                lo_pos, hi_pos = pos_y, pos_x
            width = km2
            j2 = hi_pos - width + (width - (hi_pos - lo_pos)) // 2
            j2_lo = hi_pos - width
            if j2_lo < 0:
                j2_lo = 0
            j2_hi = km1 if km1 < lo_pos else lo_pos
            if j2_lo > j2_hi:  # pragma: no cover - proven impossible
                raise RotationError("k-splay case 2 pair window infeasible")
            if j2 < j2_lo:
                j2 = j2_lo
            elif j2 > j2_hi:
                j2 = j2_hi
            j2hi = j2 + width

            pair = merged[j2:j2hi]
            routing_rows[z] = merged[:j2] + merged[j2hi:]

            pos_x2 = pos_x - j2
            if policy == "center":
                j1 = pos_x2 - km1 // 2
            elif policy == "left":
                j1 = pos_x2 - km1
            else:
                j1 = pos_x2
            lo = pos_x2 - km1
            if lo < 0:
                lo = 0
            hi = km1 if km1 < pos_x2 else pos_x2
            if j1 < lo:
                j1 = lo
            elif j1 > hi:
                j1 = hi
            j1hi = j1 + km1
            routing_rows[x] = pair[j1:j1hi]
            routing_rows[y] = pair[:j1] + pair[j1hi:]

            nzrow[j2] = y
            parent[y] = z
            pslot[y] = j2
            nyrow[j1] = x
            parent[x] = y
            pslot[x] = j1
            links = 0
            s = -1
            for c in xrow:
                s += 1
                if not c or c == y:
                    continue
                m = s if s < sy else s + km2
                if m < j2 or m > j2hi:
                    slot = m if m < j2 else m - width
                    nzrow[slot] = c
                    parent[c] = z
                    pslot[c] = slot
                    links += 2
                else:
                    m2 = m - j2
                    if j1 <= m2 <= j1hi:
                        slot = m2 - j1
                        nxrow[slot] = c
                        parent[c] = x
                        pslot[c] = slot
                    else:
                        slot = m2 if m2 < j1 else m2 - km1
                        nyrow[slot] = c
                        parent[c] = y
                        pslot[c] = slot
                        links += 2
            t = -1
            for c in yrow:
                t += 1
                if not c or c == z:
                    continue
                m = sy + t if t < sz else sy + t + km1
                if m < j2 or m > j2hi:
                    slot = m if m < j2 else m - width
                    nzrow[slot] = c
                    parent[c] = z
                    pslot[c] = slot
                    links += 2
                else:
                    m2 = m - j2
                    if j1 <= m2 <= j1hi:
                        slot = m2 - j1
                        nxrow[slot] = c
                        parent[c] = x
                        pslot[c] = slot
                        links += 2
                    else:
                        slot = m2 if m2 < j1 else m2 - km1
                        nyrow[slot] = c
                        parent[c] = y
                        pslot[c] = slot
            m = sy + sz - 1
            for c in zrow:
                m += 1
                if not c:
                    continue
                if m < j2 or m > j2hi:
                    slot = m if m < j2 else m - width
                    nzrow[slot] = c
                    parent[c] = z
                    pslot[c] = slot
                else:
                    m2 = m - j2
                    if j1 <= m2 <= j1hi:
                        slot = m2 - j1
                        nxrow[slot] = c
                        parent[c] = x
                        pslot[c] = slot
                        links += 2
                    else:
                        slot = m2 if m2 < j1 else m2 - km1
                        nyrow[slot] = c
                        parent[c] = y
                        pslot[c] = slot
                        links += 2

        if grand:
            child_rows[grand][gslot] = z
            parent[z] = grand
            pslot[z] = gslot
            links += 2
        else:
            parent[z] = 0
            pslot[z] = -1
            self.root = z
        return links

    def generalized_splay(self, chain: list[int]) -> int:
        """Collapse an ancestor ``chain`` (nids, top-down) in one step.

        Mirror of :func:`repro.core.multirotation.generalized_splay` with
        the default top-down processing order; the planning phase reuses the
        same pure search over merged value lists, only the commit works on
        the flat arrays.  Requires fresh subtree ranges (callers go through
        :meth:`splay_until`, which ensures them).  Returns the link churn.
        """
        d = len(chain)
        if d < 2:
            raise RotationError("generalized splay needs a chain of length >= 2")
        if d > MAX_CHAIN:
            raise RotationError(f"chain length {d} exceeds MAX_CHAIN={MAX_CHAIN}")
        parent, pslot = self.parent, self.pslot
        child_rows, routing_rows = self.child_rows, self.routing_rows
        smin = self.smin
        k = self.k
        for upper, lower in zip(chain, chain[1:]):
            if parent[lower] != upper:
                raise RotationError(
                    f"chain break: {lower} is not a child of {upper}"
                )

        merged = sorted(
            value for nid in chain for value in routing_rows[nid]
        )
        group = set(chain)
        keys = list(chain)  # default order: top-down, promoted node last

        sub_intervals: list[tuple[float, float]] = []
        sub_nodes: list[int] = []
        sub_owners: list[int] = []
        for owner in chain:
            for c in child_rows[owner]:
                if c and c not in group:
                    pos = bisect_left(merged, smin[c])
                    lo = merged[pos - 1] if pos > 0 else NEG_INF
                    hi = merged[pos] if pos < len(merged) else POS_INF
                    sub_intervals.append((lo, hi))
                    sub_nodes.append(c)
                    sub_owners.append(owner)

        plan = None
        for assignment in _assignments(merged, keys, k):
            placements = _plan_placements(assignment, sub_intervals, merged)
            if placements is not None:
                plan = (assignment, placements)
                break
        if plan is None:
            raise RotationError(
                f"no consistent block assignment for chain {sorted(group)}"
            )
        assignment, (chain_placements, sub_placements) = plan

        top = chain[0]
        promoted = chain[-1]
        grand = parent[top]
        gslot = pslot[top]
        for nid in chain:
            child_rows[nid] = [0] * k
            parent[nid] = 0
            pslot[nid] = -1
        for nid, (block, _window) in zip(keys, assignment):
            routing_rows[nid] = block

        old_edges = {
            frozenset((upper, lower)) for upper, lower in zip(chain, chain[1:])
        }
        links = 0
        for idx, (owner_idx, slot) in enumerate(chain_placements):
            owner = keys[owner_idx]
            child = keys[idx]
            child_rows[owner][slot] = child
            parent[child] = owner
            pslot[child] = slot
        for c, old_owner, (owner_idx, slot) in zip(
            sub_nodes, sub_owners, sub_placements
        ):
            owner = keys[owner_idx]
            child_rows[owner][slot] = c
            parent[c] = owner
            pslot[c] = slot
            if owner != old_owner:
                links += 2
        # earlier-processed nodes sit below later ones: recompute bottom-up
        for nid in keys:
            self._recompute_range(nid)

        if grand:
            child_rows[grand][gslot] = promoted
            parent[promoted] = grand
            pslot[promoted] = gslot
            links += 2
        else:
            self.root = promoted
        new_edges = set()
        for nid in keys[:-1]:
            new_edges.add(frozenset((nid, parent[nid])))
        links += len(old_edges ^ new_edges)
        return links

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def splay_until(
        self,
        node: int,
        stop: int,
        *,
        policy: str = "center",
        depth: int = 2,
    ) -> tuple[int, int]:
        """Rotate ``node`` upward until its parent is ``stop`` (0 = root).

        Flat mirror of :func:`repro.core.splay.splay_until`, including the
        ``depth > 2`` generalized-rotation discipline.  Returns
        ``(rotations, links_changed)``.
        """
        if depth < 2:
            raise RotationError(f"splay depth must be >= 2, got {depth}")
        parent = self.parent
        rotations = 0
        links = 0
        if depth == 2:
            self._ranges_dirty = True
            semi = self.semi_splay_fast
            spl = self.splay_fast
            p = parent[node]
            while p != stop:
                g = parent[p]
                if g == stop or g == 0:
                    links += semi(node, policy)
                else:
                    links += spl(node, policy)
                rotations += 1
                p = parent[node]
            return rotations, links

        # The generalized rotation consults subtree ranges; keep them fresh
        # throughout by using the range-maintaining rotation wrappers.
        self._ensure_ranges()
        while parent[node] != stop:
            chain = [node]
            cursor = node
            while len(chain) <= depth:
                p = parent[cursor]
                if p == stop or p == 0:
                    break
                cursor = p
                chain.append(cursor)
            chain.reverse()
            if len(chain) == 2:
                links += self.semi_splay(node, policy)
            elif len(chain) == 3:
                links += self.splay(node, policy)
            else:
                links += self.generalized_splay(chain)
            rotations += 1
        return rotations, links

    def serve_one(
        self, u: int, v: int, policy: str = "center", depth: int = 2
    ) -> tuple[int, int, int]:
        """Serve one request; returns ``(routing_cost, rotations, links)``.

        Flat mirror of :meth:`repro.core.splaynet.KArySplayNet.serve`: splay
        ``u`` into the LCA's position, then ``v`` up to a child of ``u``.
        """
        if u == v:
            return 0, 0, 0
        w, du, dv = self.lca(u, v)
        if w == v:
            rotations, links = self.splay_until(u, v, policy=policy, depth=depth)
        else:
            if w != u:
                stop = self.parent[w]
                rotations, links = self.splay_until(
                    u, stop, policy=policy, depth=depth
                )
            else:
                rotations = links = 0
            r2, l2 = self.splay_until(v, u, policy=policy, depth=depth)
            rotations += r2
            links += l2
        return du + dv, rotations, links

    def serves_segments(self, depth: int) -> bool:
        """Whether :meth:`serve_many` takes segment ``ends``.

        Only the native kernel serves a segmented batch in one call
        (:meth:`repro.core.native.NativeTree.serve_many`); this Python
        loop does not.
        """
        return False

    def serve_many(
        self,
        sources,
        targets,
        *,
        policy: str = "center",
        depth: int = 2,
        routing_series=None,
        rotation_series=None,
    ) -> tuple[int, int, int]:
        """Serve a whole request batch; returns scalar cost totals.

        A loop over :meth:`serve_one`, with ``zip`` semantics over the two
        request sequences.  They may be int lists or NumPy int64 arrays
        (the native engine's fallback passes arrays); arrays are converted
        to Python ints once up front, so the tree arrays never hold NumPy
        scalars.  ``routing_series`` / ``rotation_series`` are optional
        preallocated buffers (NumPy arrays or lists) filled per request
        when provided.
        """
        if policy not in BLOCK_POLICIES:
            raise RotationError(
                f"unknown block policy {policy!r}; choose from {BLOCK_POLICIES}"
            )
        if (routing_series is None) != (rotation_series is None):
            raise EngineError(
                "routing_series and rotation_series must be provided together"
            )
        if hasattr(sources, "tolist"):
            sources = sources.tolist()
        if hasattr(targets, "tolist"):
            targets = targets.tolist()
        serve_one = self.serve_one
        return accumulate_serve_totals(
            lambda u, v: serve_one(u, v, policy, depth),
            sources,
            targets,
            routing_series,
            rotation_series,
        )

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the flat arrays against every structural invariant.

        Reconstructs an object-engine snapshot and runs the full
        :meth:`~repro.core.tree.KAryTreeNetwork.validate`, then additionally
        checks the flat-specific wiring (``parent``/``pslot`` mirrors of the
        ``child_rows`` array) and the cached subtree ranges (refreshed
        first if a batched serve left them lazily stale).
        """
        if self.parent[self.root] != 0 or self.pslot[self.root] != -1:
            raise InvalidTreeError(f"root {self.root} has parent wiring")
        child_rows, parent, pslot = self.child_rows, self.parent, self.pslot
        seen = 0
        stack = [self.root]
        while stack:
            nid = stack.pop()
            seen += 1
            for slot, c in enumerate(child_rows[nid]):
                if c:
                    if parent[c] != nid or pslot[c] != slot:
                        raise InvalidTreeError(
                            f"node {c}: inconsistent flat parent wiring"
                        )
                    stack.append(c)
        if seen != self.n:
            raise InvalidTreeError(
                f"flat tree reachable from root has {seen} nodes, expected {self.n}"
            )
        self._ensure_ranges()
        snapshot = self.to_tree(validate=True)
        for node in snapshot.root.iter_subtree():
            if (node.smin, node.smax) != (self.smin[node.nid], self.smax[node.nid]):
                raise InvalidTreeError(
                    f"node {node.nid}: flat cached range "
                    f"[{self.smin[node.nid]}, {self.smax[node.nid]}] != true range "
                    f"[{node.smin}, {node.smax}]"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlatTree(n={self.n}, k={self.k}, root={self.root})"
