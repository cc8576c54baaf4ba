"""Empirical verification of the Access Lemma (Theorem 12's engine).

The paper proves k-ary splay trees statically optimal by re-proving the
Sleator–Tarjan Access Lemma [24] for the new rotations: with the potential
``Φ(T) = Σ_v log₂ w(v)`` (``w(v)`` = subtree size of ``v``), the amortized
number of splay steps when splaying ``x`` to the root is at most

    3 · (r(root) − r(x)) + 1,      r(v) = log₂ w(v),

because ``k-semi-splay`` changes the potential like *zig*, k-splay case 1
like *zig-zag*, and k-splay case 2 like *zig-zig*.  This module instruments
any network/tree so that every access produces an :class:`AccessAudit`
carrying both sides of that inequality — turning the proof sketch into a
property the test suite checks on thousands of random accesses.

Works on any rooted structure: pass a ``children(node)`` callable, or use
the ready-made adapters for :class:`~repro.core.splaynet.KArySplayNet` and
:class:`~repro.datastructures.splay_tree.SplayTree`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.core.splaynet import KArySplayNet
from repro.datastructures.splay_tree import SplayTree
from repro.errors import ReproError

__all__ = [
    "AccessAudit",
    "subtree_sizes",
    "tree_potential",
    "audit_splaynet_accesses",
    "audit_splaytree_accesses",
]


def subtree_sizes(root, children: Callable[[object], Iterable]) -> dict[int, int]:
    """Subtree size of every node, keyed by ``id(node)`` (one O(n) pass)."""
    sizes: dict[int, int] = {}
    stack: list[tuple[object, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            sizes[id(node)] = 1 + sum(
                sizes[id(child)] for child in children(node)
            )
        else:
            stack.append((node, True))
            for child in children(node):
                stack.append((child, False))
    return sizes


def tree_potential(root, children: Callable[[object], Iterable]) -> float:
    """``Φ(T) = Σ_v log₂ w(v)`` with unit node weights."""
    return sum(math.log2(w) for w in subtree_sizes(root, children).values())


@dataclass(frozen=True)
class AccessAudit:
    """Both sides of the Access Lemma inequality for one access.

    ``amortized = steps + Φ_after − Φ_before`` must not exceed
    ``bound = 3 (r(root) − r(x)) + 1`` (ranks measured in the pre-access
    tree).  ``margin`` is ``bound − amortized`` (non-negative when the
    lemma holds).
    """

    key: int
    steps: int
    phi_before: float
    phi_after: float
    rank_root: float
    rank_node: float

    @property
    def amortized(self) -> float:
        return self.steps + self.phi_after - self.phi_before

    @property
    def bound(self) -> float:
        return 3.0 * (self.rank_root - self.rank_node) + 1.0

    @property
    def margin(self) -> float:
        return self.bound - self.amortized

    @property
    def holds(self) -> bool:
        return self.margin >= -1e-9


# ----------------------------------------------------------------------
# adapters
# ----------------------------------------------------------------------
def _kary_children(node) -> Iterable:
    return list(node.child_iter())


def _bst_children(node) -> Iterable:
    return [c for c in (node.left, node.right) if c is not None]


def audit_splaynet_accesses(
    net: KArySplayNet, keys: Sequence[int]
) -> list[AccessAudit]:
    """Drive :meth:`KArySplayNet.access` for each key, auditing the lemma.

    Each ``access(x)`` splays ``x`` all the way to the root; the network
    counts one step per ``k-semi-splay``/``k-splay``, exactly the step
    granularity of the paper's potential argument.
    """
    audits: list[AccessAudit] = []
    for key in keys:
        # Materialize the topology once per step: on the native engine every
        # ``net.tree`` access builds a fresh snapshot, so identity-keyed
        # lookups must all come from the same materialization.
        tree = net.tree
        root = tree.root
        sizes = subtree_sizes(root, _kary_children)
        phi_before = sum(math.log2(w) for w in sizes.values())
        rank_root = math.log2(sizes[id(root)])
        rank_node = math.log2(sizes[id(tree.node(key))])
        result = net.access(key)
        phi_after = tree_potential(net.tree.root, _kary_children)
        audits.append(
            AccessAudit(
                key=key,
                steps=result.rotations,
                phi_before=phi_before,
                phi_after=phi_after,
                rank_root=rank_root,
                rank_node=rank_node,
            )
        )
    return audits


def _find_bst_node(tree: SplayTree, key: int):
    node = tree.root
    while node is not None:
        if key == node.key:
            return node
        node = node.left if key < node.key else node.right
    raise ReproError(f"key {key} not in tree")


def audit_splaytree_accesses(
    tree: SplayTree, keys: Sequence[int]
) -> list[AccessAudit]:
    """Audit the binary splay tree (steps = ⌈rotations / 2⌉: a zig-zig or
    zig-zag is one lemma step of two rotations, a zig is one of one)."""
    if tree.semi:
        raise ReproError(
            "the Access Lemma auditor assumes full splaying; got semi=True"
        )
    audits: list[AccessAudit] = []
    for key in keys:
        root = tree.root
        if root is None:
            raise ReproError("cannot audit an empty tree")
        sizes = subtree_sizes(root, _bst_children)
        phi_before = sum(math.log2(w) for w in sizes.values())
        rank_root = math.log2(sizes[id(root)])
        rank_node = math.log2(sizes[id(_find_bst_node(tree, key))])
        result = tree.access(key)
        phi_after = tree_potential(tree.root, _bst_children)
        steps = (result.rotations + 1) // 2
        audits.append(
            AccessAudit(
                key=key,
                steps=steps,
                phi_before=phi_before,
                phi_after=phi_after,
                rank_root=rank_root,
                rank_node=rank_node,
            )
        )
    return audits


def worst_margin(audits: Iterable[AccessAudit]) -> Optional[float]:
    """Smallest (most dangerous) margin across audits, or None if empty."""
    margins = [a.margin for a in audits]
    return min(margins) if margins else None
