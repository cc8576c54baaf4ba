"""Classic SplayNet (Schmid et al. [22]) — the paper's main baseline.

SplayNet serves ``(u, v)`` by splaying ``u`` to the position of the lowest
common ancestor of the endpoints and then splaying ``v`` to a child of
``u``.  We reproduce it faithfully (zig / zig-zig / zig-zag with a stop
node).  Rotations are counted as *primitive* BST rotations: a zig counts
one, a zig-zig or zig-zag two.  The k-ary networks count one rotation per
k-splay step instead, so the two rotation totals are in different units;
choosing one unit for both is ROADMAP item 1 ("Table 8: one rotation unit
for both networks").
"""

from __future__ import annotations

from typing import Optional

from repro.network.protocols import ServeResult
from repro.splaynet.tree import BSTNetwork, BSTNode

__all__ = ["SplayNet"]


class SplayNet:
    """The binary self-adjusting search tree network of [22].

    Parameters
    ----------
    n:
        Number of nodes; the initial topology is the complete BST on
        ``1..n`` (or pass an explicit :class:`BSTNetwork`).
    """

    def __init__(self, n: Optional[int] = None, *, initial: "str | BSTNetwork" = "balanced") -> None:
        if isinstance(initial, BSTNetwork):
            self.tree = initial
        else:
            if n is None:
                raise ValueError("n is required unless a tree is provided")
            self.tree = BSTNetwork.balanced(n)

    @property
    def n(self) -> int:
        return self.tree.n

    @property
    def k(self) -> int:
        return 2

    def distance(self, u: int, v: int) -> int:
        return self.tree.distance(u, v)

    # ------------------------------------------------------------------
    def _splay_until(self, node: BSTNode, stop: Optional[BSTNode]) -> tuple[int, int]:
        """Splay ``node`` until its parent is ``stop``; (rotations, links).

        Rotations are counted as *primitive* BST rotations (a zig-zig or
        zig-zag performs two), the natural unit cost for binary trees; the
        k-ary networks count each merge-and-split transformation as one, per
        the paper's Section 5.1 convention.  EXPERIMENTS.md discusses the
        sensitivity of Table 8 to this choice.
        """
        rotations = 0
        links = 0
        tree = self.tree
        while node.parent is not stop:
            parent = node.parent
            assert parent is not None
            grand = parent.parent
            if grand is stop or grand is None:
                links += tree.rotate_up(node)  # zig
                rotations += 1
            else:
                same_side = (grand.left is parent) == (parent.left is node)
                if same_side:  # zig-zig: rotate parent first
                    links += tree.rotate_up(parent)
                    links += tree.rotate_up(node)
                else:  # zig-zag: rotate node twice
                    links += tree.rotate_up(node)
                    links += tree.rotate_up(node)
                rotations += 2
        return rotations, links

    def serve(self, u: int, v: int) -> ServeResult:
        """Serve ``(u, v)``: route over the pre-adjustment tree, then splay.

        After the call (``u != v``) the endpoints are adjacent.
        """
        if u == v:
            return ServeResult(0, 0, 0)
        tree = self.tree
        w = tree.lca(u, v)
        routing_cost = tree.search_steps(w, u) + tree.search_steps(w, v)
        node_u = tree.node(u)
        node_v = tree.node(v)
        if w is node_v:
            rotations, links = self._splay_until(node_u, node_v)
        else:
            rotations = links = 0
            if w is not node_u:
                rotations, links = self._splay_until(node_u, w.parent)
            r2, l2 = self._splay_until(node_v, node_u)
            rotations += r2
            links += l2
        return ServeResult(routing_cost, rotations, links)

    def validate(self) -> None:
        self.tree.validate()

    # ------------------------------------------------------------------
    def snapshot_state(self) -> BSTNetwork:
        """An independent deep copy of the current topology."""
        return self.tree.clone()

    def restore_state(self, state: BSTNetwork) -> None:
        """Rewind the topology to a :meth:`snapshot_state` checkpoint."""
        if state.n != self.n:
            raise ValueError(
                f"snapshot has n={state.n}, network has n={self.n}"
            )
        self.tree = state.clone()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SplayNet(n={self.n})"
