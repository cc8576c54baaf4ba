"""The flat structure-of-arrays layout of a k-ary search tree network.

:class:`FlatTree` is the value form of a tree: the state the C kernel of
:mod:`repro.core._native` serves on, and the form in which
:class:`~repro.core.native.NativeTree` checkpoints, inspects and hands
its topology over to other engines.  It does no serving of its own; the
object engine (:mod:`repro.core.tree` with :mod:`repro.core.rotations`)
is the readable reference implementation of the rotations, and the
kernel mirrors it.  Layout for a tree over identifiers ``1..n`` with
arity ``k`` (index 0 is the null sentinel everywhere):

* ``parent[nid]``  — parent identifier (0 for the root),
* ``pslot[nid]``   — slot occupied in the parent (-1 for the root),
* ``child_rows[nid][slot]`` — child identifier per slot (0 = empty),
* ``routing_rows[nid]``     — the node's sorted separator values.

The scalar arrays are plain Python lists of machine ints and the per-node
rows small Python lists, which :class:`~repro.core.native.NativeTree`
packs into the kernel's contiguous buffers once and copies back out
(:meth:`_sync_lists`) only when something reads them.  The same layout is
what the kernel builds the static trees in (the full k-ary tree and the
Theorem 2 optimal tree, see :meth:`NativeTree.complete
<repro.core.native.NativeTree.complete>`): such a tree is validated and
costed on the arrays, and becomes a node graph only through
:meth:`FlatTree.to_tree`.  ``routing_based`` marks a layout whose routing
arrays hold identifiers (Definition 1(ii)); it carries over to
:meth:`to_tree`'s :class:`~repro.core.tree.KAryTreeNetwork`.
"""

from __future__ import annotations

from repro.core.node import KAryNode
from repro.core.tree import KAryTreeNetwork
from repro.errors import InvalidTreeError

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

    Construct via :meth:`from_tree` or :meth:`from_flat`.
    """

    __slots__ = (
        "n",
        "k",
        "root",
        "parent",
        "pslot",
        "child_rows",
        "routing_rows",
        "routing_based",
    )

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
        self.routing_based = False

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_tree(cls, tree: KAryTreeNetwork) -> "FlatTree":
        """Snapshot an object-engine tree into flat arrays."""
        flat = cls(tree.n, tree.k)
        parent, pslot = flat.parent, flat.pslot
        child_rows, routing_rows = flat.child_rows, flat.routing_rows
        for node in tree.root.iter_subtree():
            nid = node.nid
            parent[nid] = node.parent.nid if node.parent is not None else 0
            pslot[nid] = node.pslot
            child_rows[nid] = [
                child.nid if child is not None else 0 for child in node.children
            ]
            routing_rows[nid] = list(node.routing)
        flat.root = tree.root_id
        flat.routing_based = tree.routing_based
        return flat

    def to_tree(self, *, validate: bool = False) -> KAryTreeNetwork:
        """Materialize an object-engine snapshot of the current topology.

        Subtree ranges of the snapshot are computed by the
        :class:`KAryTreeNetwork` constructor.
        """
        self._sync_lists()
        k = self.k
        child_rows, routing_rows = self.child_rows, self.routing_rows
        nodes = [None] + [KAryNode(nid, k) for nid in range(1, self.n + 1)]
        for nid in range(1, self.n + 1):
            node = nodes[nid]
            node.routing = list(routing_rows[nid])
            for slot, c in enumerate(child_rows[nid]):
                if c:
                    node.attach_child(nodes[c], slot)
        return KAryTreeNetwork(
            k,
            nodes[self.root],
            validate=validate,
            routing_based=self.routing_based,
        )

    def _sync_lists(self) -> None:
        """Hook for engines whose authoritative state lives elsewhere.

        :class:`~repro.core.native.NativeTree` overrides this to copy its
        C-resident buffers back into the lists before any consumer reads
        them (snapshot, inspection, cross-engine transfer).  Here the
        lists *are* the state: no-op.
        """
        return None

    @classmethod
    def from_flat(cls, other: "FlatTree") -> "FlatTree":
        """An independent deep copy of ``other``'s topology (O(n)).

        ``cls`` and ``type(other)`` may differ: this is how a native
        tree's checkpoint becomes a plain :class:`FlatTree` value and how
        such a value becomes a serving
        :class:`~repro.core.native.NativeTree` again.
        """
        other._sync_lists()
        twin = cls(other.n, other.k)
        twin.root = other.root
        twin.parent = list(other.parent)
        twin.pslot = list(other.pslot)
        twin.child_rows = [list(row) for row in other.child_rows]
        twin.routing_rows = [list(row) for row in other.routing_rows]
        twin.routing_based = other.routing_based
        return twin

    def copy(self) -> "FlatTree":
        """An independent deep copy of the current topology (O(n)).

        The copy has the original's class and shares no mutable state with
        it: per-node child/routing rows are re-materialized.
        """
        return type(self).from_flat(self)

    def signature(self) -> list[tuple[int, int, tuple[float, ...]]]:
        """Preorder ``(nid, pslot, routing)`` triples (see :func:`tree_signature`)."""
        self._sync_lists()
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
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the flat arrays against every structural invariant.

        Checks the flat-specific wiring (``parent``/``pslot`` mirrors of
        the ``child_rows`` array, every node reachable from the root), then
        rebuilds an object-engine snapshot and runs the full
        :meth:`~repro.core.tree.KAryTreeNetwork.validate`.
        """
        self._sync_lists()
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
        self.to_tree(validate=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlatTree(n={self.n}, k={self.k}, root={self.root})"
