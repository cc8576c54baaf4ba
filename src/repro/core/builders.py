"""Constructors for k-ary search tree networks.

Every builder works the same way: a *partitioner* decides, for a contiguous
identifier segment of a given size, how many nodes go into each child block
and where the node's own identifier sits among the blocks; the recursive
assembler then derives the routing array deterministically:

* a **boundary** separator ``x + 0.5`` between each pair of consecutive child
  blocks (one integer gap is split by at most one node of the laminar segment
  decomposition, so boundaries are globally unique);
* **pad** separators ``i + 2^-j`` from node ``i``'s private zone to fill the
  array up to ``k - 1`` entries.

The resulting trees satisfy every invariant of
:meth:`repro.core.tree.KAryTreeNetwork.validate` by construction.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.keyspace import MAX_K, pad_values
from repro.core.node import KAryNode
from repro.core.tree import KAryTreeNetwork
from repro.errors import InvalidTreeError

__all__ = [
    "Partition",
    "Partitioner",
    "ShapeNode",
    "assemble_segment",
    "build_from_partitioner",
    "build_from_shape",
    "build_complete_tree",
    "build_balanced_tree",
    "build_path_tree",
    "build_random_tree",
    "check_tree_size",
    "complete_partitioner",
    "balanced_partitioner",
    "path_partitioner",
    "random_partitioner",
    "complete_tree_capacity",
]


class ShapeNode:
    """An unlabelled rooted tree shape (used by the centroid construction).

    Shapes carry structure only; :func:`build_from_shape` turns a shape into
    a k-ary search tree network by assigning identifier segments in child
    order.
    """

    __slots__ = ("children", "size", "parent")

    def __init__(self, children: "Optional[list[ShapeNode]]" = None) -> None:
        self.children: list[ShapeNode] = children if children is not None else []
        for child in self.children:
            child.parent = self
        self.size = 0
        self.parent: Optional[ShapeNode] = None

    def add(self, child: "ShapeNode") -> "ShapeNode":
        self.children.append(child)
        child.parent = self
        return child

    def compute_sizes(self) -> int:
        """Fill ``size`` bottom-up; returns the total."""
        order: list[ShapeNode] = [self]
        for node in order:
            order.extend(node.children)
        for node in reversed(order):
            node.size = 1 + sum(c.size for c in node.children)
        return self.size

    def height(self) -> int:
        best = 0
        stack = [(self, 0)]
        while stack:
            node, d = stack.pop()
            best = max(best, d)
            for child in node.children:
                stack.append((child, d + 1))
        return best

#: A partition decision: ``(own_index, block_sizes)``.  ``block_sizes`` are the
#: child subtree sizes in key order (each >= 1, summing to ``size - 1``) and
#: ``own_index`` in ``[0, len(block_sizes)]`` places the node's own identifier
#: after that many blocks.
Partition = tuple[int, Sequence[int]]

#: A partitioner maps a segment size (>= 1) to a :data:`Partition`.
Partitioner = Callable[[int], Partition]


# ----------------------------------------------------------------------
# the recursive assembler
# ----------------------------------------------------------------------
def assemble_segment(lo: int, hi: int, k: int, partitioner: Partitioner) -> KAryNode:
    """Build the subtree for identifier segment ``[lo, hi]`` (inclusive)."""
    size = hi - lo + 1
    own_index, sizes = partitioner(size)
    c = len(sizes)
    if c > k:
        raise InvalidTreeError(f"partitioner produced {c} blocks for k={k}")
    if sum(sizes) != size - 1:
        raise InvalidTreeError(
            f"partitioner blocks {list(sizes)} do not cover segment of size {size}"
        )
    if any(s < 1 for s in sizes):
        raise InvalidTreeError(f"partitioner produced an empty block: {list(sizes)}")
    if not 0 <= own_index <= c:
        raise InvalidTreeError(f"own_index {own_index} out of range for {c} blocks")

    # Identifier layout: blocks before the own identifier, the identifier,
    # blocks after it — all contiguous.
    bounds: list[tuple[int, int]] = []
    cursor = lo
    for j, s in enumerate(sizes):
        if j == own_index:
            cursor += 1
        bounds.append((cursor, cursor + s - 1))
        cursor += s
    nid = lo + sum(sizes[:own_index])

    node = KAryNode(nid, k)
    separators: list[float] = []
    for j in range(1, c):
        left_max = bounds[j - 1][1]
        # Between the blocks flanking the own identifier the gap is two ids
        # wide (.. left_max, nid, right_min ..); group the identifier with
        # the left block by splitting at nid + 0.5.
        separators.append((nid if j == own_index else left_max) + 0.5)
    pad_count = (k - 1) - max(c - 1, 0)
    separators.extend(pad_values(nid, pad_count))
    separators.sort()
    node.routing = separators

    for blo, bhi in bounds:
        child = assemble_segment(blo, bhi, k, partitioner)
        slot = bisect_left(separators, blo)
        if node.children[slot] is not None:
            raise InvalidTreeError(
                f"builder collision: two blocks map to slot {slot} of node {nid}"
            )
        node.attach_child(child, slot)
    node.recompute_range()
    return node


def check_tree_size(n: int, k: int) -> None:
    """Reject a node count or arity no builder supports."""
    if n < 1:
        raise InvalidTreeError(f"need at least one node, got n={n}")
    if not 2 <= k <= MAX_K:
        raise InvalidTreeError(f"arity must be in [2, {MAX_K}], got {k}")


def build_from_partitioner(
    n: int, k: int, partitioner: Partitioner, *, validate: bool = True
) -> KAryTreeNetwork:
    """Build a k-ary search tree network on identifiers ``1..n``."""
    check_tree_size(n, k)
    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * n + 100))
    try:
        root = assemble_segment(1, n, k, partitioner)
    finally:
        sys.setrecursionlimit(old_limit)
    return KAryTreeNetwork(k, root, validate=validate)


def build_from_shape(
    shape: ShapeNode,
    k: int,
    *,
    own_index: str = "middle",
    validate: bool = True,
) -> KAryTreeNetwork:
    """Label a rooted shape as a k-ary search tree network on ``1..size``.

    ``own_index`` places each node's identifier among its child segments:
    ``"middle"`` (balanced, the default), ``"first"`` or ``"last"``.  The
    identifier assignment never changes pairwise distances — only the
    labelling — so any choice is valid for uniform-workload constructions.
    """
    if own_index not in ("middle", "first", "last"):
        raise InvalidTreeError(f"unknown own_index policy {own_index!r}")
    shape.compute_sizes()

    def build(node: ShapeNode, lo: int) -> KAryNode:
        if len(node.children) > k:
            raise InvalidTreeError(
                f"shape node has {len(node.children)} children, k={k}"
            )
        sizes = [c.size for c in node.children]
        c = len(sizes)
        if own_index == "first":
            t = 0
        elif own_index == "last":
            t = c
        else:
            t = (c + 1) // 2
        bounds: list[tuple[int, int]] = []
        cursor = lo
        for j, s in enumerate(sizes):
            if j == t:
                cursor += 1
            bounds.append((cursor, cursor + s - 1))
            cursor += s
        nid = lo + sum(sizes[:t])
        out = KAryNode(nid, k)
        separators: list[float] = []
        for j in range(1, c):
            left_max = bounds[j - 1][1]
            separators.append((nid if j == t else left_max) + 0.5)
        separators.extend(pad_values(nid, (k - 1) - max(c - 1, 0)))
        separators.sort()
        out.routing = separators
        for child_shape, (blo, _bhi) in zip(node.children, bounds):
            child = build(child_shape, blo)
            slot = bisect_left(separators, blo)
            if out.children[slot] is not None:
                raise InvalidTreeError(
                    f"shape collision: two children map to slot {slot} of {nid}"
                )
            out.attach_child(child, slot)
        out.recompute_range()
        return out

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * shape.size + 100))
    try:
        root = build(shape, 1)
    finally:
        sys.setrecursionlimit(old_limit)
    return KAryTreeNetwork(k, root, validate=validate)


# ----------------------------------------------------------------------
# partitioners
# ----------------------------------------------------------------------
def complete_tree_capacity(levels: int, k: int) -> int:
    """Number of nodes in a full k-ary tree with ``levels`` levels."""
    if levels <= 0:
        return 0
    return (k**levels - 1) // (k - 1)


def complete_partitioner(k: int, *, own_index: Optional[int] = None) -> Partitioner:
    """Weakly-complete shape: all levels full except the last, packed left.

    This is the paper's "full k-ary tree" baseline (Section 5, Lemma 9).
    ``own_index`` fixes where the node's identifier sits among its child
    blocks; the default centres it, which for ``k = 2`` reproduces the
    classic complete binary search tree.
    """

    def partition(size: int) -> Partition:
        if size == 1:
            return 0, ()
        levels = 1
        while complete_tree_capacity(levels, k) < size:
            levels += 1
        interior = complete_tree_capacity(levels - 1, k)
        last = size - interior  # nodes on the last level, packed left
        child_full = complete_tree_capacity(levels - 2, k)
        child_last_cap = k ** (levels - 2)
        sizes = []
        for j in range(k):
            extra = min(max(last - j * child_last_cap, 0), child_last_cap)
            s = child_full + extra
            if s > 0:
                sizes.append(s)
        t = (len(sizes) + 1) // 2 if own_index is None else min(own_index, len(sizes))
        return t, tuple(sizes)

    return partition


def balanced_partitioner(k: int) -> Partitioner:
    """Split each segment into ``min(k, size-1)`` nearly equal blocks."""

    def partition(size: int) -> Partition:
        if size == 1:
            return 0, ()
        c = min(k, size - 1)
        q, r = divmod(size - 1, c)
        sizes = tuple([q + 1] * r + [q] * (c - r))
        return (c + 1) // 2, sizes

    return partition


def path_partitioner() -> Partitioner:
    """A single-child chain — the deepest legal tree (worst case)."""

    def partition(size: int) -> Partition:
        if size == 1:
            return 0, ()
        return 0, (size - 1,)

    return partition


def random_partitioner(k: int, rng: np.random.Generator) -> Partitioner:
    """Uniformly random block counts, sizes, and own-identifier placement."""

    def partition(size: int) -> Partition:
        if size == 1:
            return 0, ()
        c = int(rng.integers(1, min(k, size - 1) + 1))
        # Random composition of (size - 1) into c positive parts.
        if c == 1:
            sizes: tuple[int, ...] = (size - 1,)
        else:
            cuts = np.sort(
                rng.choice(np.arange(1, size - 1), size=c - 1, replace=False)
            )
            parts = np.diff(np.concatenate(([0], cuts, [size - 1])))
            sizes = tuple(int(p) for p in parts)
        t = int(rng.integers(0, c + 1))
        return t, sizes

    return partition


# ----------------------------------------------------------------------
# convenience builders
# ----------------------------------------------------------------------
def build_complete_tree(
    n: int, k: int, *, own_index: Optional[int] = None, validate: bool = True
) -> KAryTreeNetwork:
    """The paper's static "full k-ary tree" on identifiers ``1..n``.

    Where the kernel loads, the same tree (centred own index) is built as
    a layout by :meth:`repro.core.native.NativeTree.complete`; this is the
    no-kernel path and that builder's oracle.
    """
    return build_from_partitioner(
        n, k, complete_partitioner(k, own_index=own_index), validate=validate
    )


def build_balanced_tree(n: int, k: int, *, validate: bool = True) -> KAryTreeNetwork:
    """A nearly-balanced k-ary search tree network."""
    return build_from_partitioner(n, k, balanced_partitioner(k), validate=validate)


def build_path_tree(n: int, k: int, *, validate: bool = True) -> KAryTreeNetwork:
    """A path-shaped k-ary search tree network (maximal depth)."""
    return build_from_partitioner(n, k, path_partitioner(), validate=validate)


def build_random_tree(
    n: int,
    k: int,
    rng: Optional[np.random.Generator] = None,
    *,
    seed: Optional[int] = None,
    validate: bool = True,
) -> KAryTreeNetwork:
    """A random k-ary search tree network (random shape and labelling)."""
    if rng is None:
        rng = np.random.default_rng(seed)
    return build_from_partitioner(n, k, random_partitioner(k, rng), validate=validate)
