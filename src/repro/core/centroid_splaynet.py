"""(k+1)-SplayNet — the centroid online heuristic (Section 4.2, Figures 7-8).

Two fixed centroid nodes glue ``2k - 1`` independent k-ary SplayNets:

* ``c1`` (the root) has ``k - 1`` SplayNet subtrees plus ``c2``;
* ``c2`` has ``k`` SplayNet subtrees, each of ≈ ``(n-2)/(k+1)`` nodes —
  ``c2`` plays the role of the static centroid, and the ``c1`` side holds
  the remaining ≈ one share split ``k - 1`` ways.

Requests inside one subtree are served exactly as in k-ary SplayNet;
requests across subtrees splay each endpoint to its subtree root and route
``u → c1 → c2 → v``.  The centroids never move and subtree membership never
changes — only the inner SplayNets self-adjust.  For ``k = 2`` this is the
paper's 3-SplayNet (Figure 7, Table 8).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from repro.core.engine import batch_serve
from repro.core.splaynet import KArySplayNet
from repro.errors import InvalidTreeError
from repro.network.protocols import BatchServeResult, ServeResult

__all__ = ["CentroidSplayNet", "centroid_splaynet_layout"]


@dataclass(frozen=True)
class _Block:
    """One SplayNet subtree: global identifiers ``lo..hi`` (inclusive)."""

    lo: int
    hi: int
    attach: int  # 1 = child of c1, 2 = child of c2

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1


def centroid_splaynet_layout(n: int, k: int) -> tuple[int, int, list[_Block]]:
    """Identifier layout: ``(c1, c2, blocks)``.

    Global key order is ``S_1 < … < S_{k-1} < c1 < c2 < T_1 < … < T_k``:
    the ``k - 1`` small subtrees hang off ``c1`` below its identifier and
    the ``k`` big subtrees hang off ``c2`` above its identifier, so the
    whole structure is a valid k-ary search tree.  Shares follow the paper:
    each ``T_j`` gets ≈ ``(n-2)/(k+1)`` nodes and the ``S_i`` split the
    remaining share.
    """
    if n < 2:
        raise InvalidTreeError("(k+1)-SplayNet needs n >= 2")
    rest = n - 2
    big, big_extra = divmod(rest * k // (k + 1), k) if rest else (0, 0)
    big_sizes = [big + (1 if j < big_extra else 0) for j in range(k)]
    small_total = rest - sum(big_sizes)
    small, small_extra = divmod(small_total, k - 1) if k > 1 else (0, 0)
    small_sizes = [small + (1 if j < small_extra else 0) for j in range(k - 1)]

    blocks: list[_Block] = []
    cursor = 1
    for size in small_sizes:
        if size > 0:
            blocks.append(_Block(cursor, cursor + size - 1, attach=1))
        cursor += size
    c1 = cursor
    c2 = cursor + 1
    cursor += 2
    for size in big_sizes:
        if size > 0:
            blocks.append(_Block(cursor, cursor + size - 1, attach=2))
        cursor += size
    assert cursor == n + 1
    return c1, c2, blocks


class CentroidSplayNet:
    """The paper's (k+1)-SplayNet online self-adjusting network.

    Parameters
    ----------
    n:
        Number of nodes.  The two centroids are placed mid-keyspace by
        :func:`centroid_splaynet_layout`.
    k:
        Arity of the inner k-ary SplayNets (``k = 2`` gives 3-SplayNet).
    initial, policy, engine:
        Passed through to every inner :class:`KArySplayNet`.
    """

    def __init__(
        self,
        n: int,
        k: int = 2,
        *,
        initial: str = "complete",
        policy: str = "center",
        engine: Optional[str] = None,
    ) -> None:
        self.c1, self.c2, self._blocks = centroid_splaynet_layout(n, k)
        self._n = n
        self._k = k
        self.policy = policy
        self.subnets = [
            KArySplayNet(
                block.size, k, initial=initial, policy=policy, engine=engine
            )
            for block in self._blocks
        ]
        self.engine = self.subnets[0].engine if self.subnets else "object"
        self._block_los = [block.lo for block in self._blocks]

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self._n

    @property
    def k(self) -> int:
        return self._k

    def locate(self, u: int) -> int:
        """Index of the block containing ``u``; -1 for the centroids."""
        if u == self.c1 or u == self.c2:
            return -1
        if not 1 <= u <= self._n:
            raise InvalidTreeError(f"identifier {u} out of range 1..{self._n}")
        idx = bisect_right(self._block_los, u) - 1
        block = self._blocks[idx]
        assert block.lo <= u <= block.hi
        return idx

    def _position(self, u: int) -> tuple[int, int]:
        """``(attach, arm)``: which centroid ``u`` hangs under and how far.

        ``arm`` is the hop count from ``u`` up to that centroid (0 for the
        centroids themselves, with ``attach`` = their own side).
        """
        if u == self.c1:
            return 1, 0
        if u == self.c2:
            return 2, 0
        idx = self.locate(u)
        block = self._blocks[idx]
        subnet = self.subnets[idx]
        depth = subnet.depth(u - block.lo + 1)
        return block.attach, depth + 1

    def distance(self, u: int, v: int) -> int:
        """Tree distance in the current (global) topology."""
        if u == v:
            return 0
        iu, iv = self.locate(u), self.locate(v)
        if iu == iv and iu >= 0:
            block = self._blocks[iu]
            return self.subnets[iu].distance(u - block.lo + 1, v - block.lo + 1)
        au, du = self._position(u)
        av, dv = self._position(v)
        return du + dv + (1 if au != av else 0)

    # ------------------------------------------------------------------
    def _serve_totals(self, u: int, v: int) -> tuple[int, int, int]:
        """Serve one request, returning ``(routing, rotations, links)``."""
        if u == v:
            return 0, 0, 0
        iu, iv = self.locate(u), self.locate(v)
        if iu == iv and iu >= 0:
            block = self._blocks[iu]
            return self.subnets[iu]._serve_totals(
                u - block.lo + 1, v - block.lo + 1
            )
        # Each endpoint climbs from its subtree to its centroid and is then
        # splayed to its subtree root; the endpoints sit in different
        # subtrees, so measuring one while adjusting the other is exact.
        routing_cost = rotations = links = 0
        sides = []
        for idx, endpoint in ((iu, u), (iv, v)):
            if idx < 0:  # centroids stay put
                sides.append(1 if endpoint == self.c1 else 2)
                continue
            block = self._blocks[idx]
            served = self.subnets[idx].access(endpoint - block.lo + 1)
            routing_cost += served.routing_cost + 1
            rotations += served.rotations
            links += served.links_changed
            sides.append(block.attach)
        if sides[0] != sides[1]:
            routing_cost += 1  # the c1 - c2 edge
        return routing_cost, rotations, links

    def serve(self, u: int, v: int) -> ServeResult:
        """Serve ``(u, v)`` per Section 4.2.

        Same-subtree requests delegate to that subtree's k-ary SplayNet;
        cross-subtree requests splay both endpoints to their subtree roots
        (the centroids never move).  Routing cost is measured on the
        topology in place when the request arrived, as everywhere else.
        """
        return ServeResult(*self._serve_totals(u, v))

    def serve_trace(
        self,
        sources,
        targets=None,
        *,
        record_series: bool = False,
    ) -> BatchServeResult:
        """Serve a whole request batch; returns accumulated cost totals.

        Skips per-request :class:`ServeResult` construction; series arrays
        are only built when ``record_series`` is set.
        """
        return batch_serve(
            self._serve_totals, sources, targets, record_series=record_series
        )

    # ------------------------------------------------------------------
    def snapshot_state(self):
        """Checkpoint: the tuple of inner SplayNet states (blocks are fixed)."""
        return tuple(subnet.snapshot_state() for subnet in self.subnets)

    def restore_state(self, state) -> None:
        """Rewind every inner SplayNet to a :meth:`snapshot_state` tuple."""
        if len(state) != len(self.subnets):
            raise InvalidTreeError(
                f"snapshot has {len(state)} blocks, network has"
                f" {len(self.subnets)}"
            )
        for subnet, sub_state in zip(self.subnets, state):
            subnet.restore_state(sub_state)

    def validate(self) -> None:
        """Validate every inner SplayNet and the block layout."""
        covered = 2  # the centroids
        for block, subnet in zip(self._blocks, self.subnets):
            subnet.validate()
            if subnet.n != block.size:
                raise InvalidTreeError("subnet size drifted from its block")
            covered += block.size
        if covered != self._n:
            raise InvalidTreeError(
                f"blocks + centroids cover {covered} identifiers, expected {self._n}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CentroidSplayNet(n={self._n}, k={self._k},"
            f" c1={self.c1}, c2={self.c2}, blocks={len(self._blocks)})"
        )
