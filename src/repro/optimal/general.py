"""Theorem 2: the optimal static routing-based k-ary search tree network.

Dynamic programming over identifier segments, exactly as in Appendix A.1:

* ``B[t, i, L]`` — minimum cost of covering the segment of length ``L``
  starting at 0-based position ``i`` with **at most** ``t`` routing-based
  k-ary search trees (the paper's ``dp2``), where each tree's cost includes
  the crossing traffic ``W`` of its own segment (the potential of its
  root-to-parent edge).
* A single tree (``t = 1``) chooses a root ``r = i + s`` whose identifier
  joins the routing array, ``dl`` child trees on ``[i, r)`` and ``k - dl``
  on ``(r, i+L)`` — the routing-based constraint ``dl + dr <= k``.

The forward pass returns an exact int64 table (a ``2^61`` sentinel plays
infinity; :mod:`repro.optimal.context` rejects demands whose costs could
reach it) and has two bit-identical implementations:

* the native kernel's ``repro_dp_forward`` (:mod:`repro.core._native`),
  used whenever the kernel loads.  It stores the table ``[t, L, i]`` so
  both operands of every inner minimum are contiguous in ``i``; the
  caller sees a transposed ``[t, i, L]`` view.  When ``W`` is
  non-negative and ``n * max(W) < 2^29`` (every cell at the smoke and
  quick scales) the kernel computes in int32, where every finite value
  is then below ``2^29``, and widens the result to the same int64
  table; otherwise it computes in int64.
* :func:`_forward_numpy`, the fallback on machines without a compiler
  (or under ``REPRO_NATIVE=0``) and the in-process oracle.  For each
  length the two inner reductions run over *diagonal* slices of ``B``
  (entry ``[i+s, L-s]`` for fixed ``L``) which ``as_strided`` exposes as
  2-D views — O(n·k) NumPy dispatches while the arithmetic stays the
  paper's O(n³k).

Demand-derived inputs (dense demand, the boundary-crossing matrix, the
short single-tree layers that are arity-independent) live in a
:class:`~repro.optimal.context.DemandContext` shared across every arity
of a sweep.  Reconstruction re-derives the argmins on the O(n) visited
segments only, with exact integer equality, and also has two
implementations that build the same tree:

* the kernel's ``repro_dp_reconstruct``, which walks the native table
  and wires the tree straight into a
  :class:`~repro.core.native.NativeTree` layout, validated there by
  ``repro_tree_validate``.  The result holds that layout and builds the
  object tree only when a caller reads :attr:`OptimalTreeResult.tree`;
* :func:`_build_tree` (one NumPy argmin per segment, then an object
  :meth:`~repro.core.tree.KAryTreeNetwork.validate`), the path without
  the kernel and the oracle of the native one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.core import _native
from repro.core.keyspace import MAX_K, pad_values
from repro.core.native import NativeTree, precision_error
from repro.core.node import KAryNode
from repro.core.tree import KAryTreeNetwork
from repro.errors import OptimizationError
from repro.optimal.context import INT_INF, DemandContext, demand_context

__all__ = ["OptimalTreeResult", "optimal_static_cost_table", "optimal_static_tree"]


class OptimalTreeResult:
    """An optimal routing-based tree and its total distance.

    ``layout`` is the tree as the kernel built it (a validated
    :class:`~repro.core.native.NativeTree`), or ``None`` when it was built
    as an object tree; :attr:`tree` is the object form, materialized from
    the layout on first read.
    """

    __slots__ = ("cost", "layout", "_tree")

    def __init__(
        self,
        tree: Optional[KAryTreeNetwork],
        cost: int,
        *,
        layout: Optional[NativeTree] = None,
    ) -> None:
        self._tree = tree
        self.cost = cost
        self.layout = layout

    @property
    def tree(self) -> KAryTreeNetwork:
        if self._tree is None:
            self._tree = self.layout.to_tree()
        return self._tree

    @property
    def n(self) -> int:
        return self._tree.n if self.layout is None else self.layout.n

    @property
    def k(self) -> int:
        return self._tree.k if self.layout is None else self.layout.k


def _resolve_context(demand, context: Optional[DemandContext]) -> DemandContext:
    """The context to run on; guards explicit contexts against misuse.

    An explicit ``context`` must have been built from this ``demand`` —
    the tables inside it fully determine the answer.  A full content
    comparison would defeat the sharing, so the guard is the cheap
    invariant: matching dimension.
    """
    if context is None:
        return demand_context(demand)
    from repro.workloads.demand import DemandMatrix

    n = (
        demand.n
        if isinstance(demand, DemandMatrix)
        else np.asarray(demand).shape[0]
    )
    if context.n != n:
        raise OptimizationError(
            f"context was built for n={context.n} but the demand covers "
            f"n={n} nodes; pass the context built from this demand"
        )
    return context


def _forward(ctx: DemandContext, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Run the DP forward pass on a context; returns ``(B, W)``.

    Uses the native kernel when it loads (the first call builds or loads
    it), else :func:`_forward_numpy`; both give the same table.
    """
    if k < 2:
        raise OptimizationError(f"arity k must be >= 2, got {k}")
    lib = _native.load_kernel()
    if lib is None:
        return _forward_numpy(ctx, k)
    return _native_table(lib, ctx, k).transpose(0, 2, 1), ctx.w


def _native_table(lib, ctx: DemandContext, k: int) -> np.ndarray:
    """The native forward pass on a context: the raw ``[t, L, i]`` table."""
    n = ctx.n
    table = np.empty((k + 1, n + 1, n + 2), dtype=np.int64)
    _native_forward_into(lib, ctx.w, table)
    ctx.offer(k, table.transpose(0, 2, 1)[1])
    return table


def _native_forward_into(lib, w: np.ndarray, table: np.ndarray) -> None:
    """Fill ``table`` (``[t, L, i]``, shape ``(k+1, n+1, n+2)``) natively.

    The buffers are checked here because the C side trusts them blindly.
    """
    for name, arr in (("w", w), ("table", table)):
        if arr.dtype != np.int64 or not arr.flags.c_contiguous:
            raise OptimizationError(
                f"native DP needs a C-contiguous int64 {name}, got "
                f"{arr.dtype} (c_contiguous={arr.flags.c_contiguous})"
            )
    if table.ndim != 3 or table.shape[0] < 3:
        raise OptimizationError(f"native DP table has shape {table.shape}")
    k = table.shape[0] - 1
    n = table.shape[1] - 1
    if table.shape[2] != n + 2 or w.shape != (n + 1, n + 1):
        raise OptimizationError(
            f"native DP shapes disagree: table {table.shape}, w {w.shape}"
        )
    rc = lib.repro_dp_forward(n, k, w.ctypes.data, table.ctypes.data, int(INT_INF))
    if rc != 0:
        raise OptimizationError(f"native DP forward pass failed (code {rc})")


def _forward_numpy(ctx: DemandContext, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The NumPy forward pass: the no-compiler fallback and the oracle."""
    if k < 2:
        raise OptimizationError(f"arity k must be >= 2, got {k}")
    n = ctx.n
    w = ctx.w
    b = np.full((k + 1, n + 2, n + 1), INT_INF, dtype=np.int64)
    b[1:, :, 0] = 0
    t_table = b[1]  # alias: single-tree costs
    a0, a1 = b[2].strides  # strides of one (n+2, n+1) slice
    reuse_len, t1_prefix = ctx.reuse_for(k)
    # Preallocated scratch: the running minimum over roots and the
    # diagonal-sum buffer (reused by both inner reductions every length).
    acc = np.empty(n, dtype=np.int64)
    sbuf = np.empty((n, n + 1), dtype=np.int64)
    for length in range(1, n + 1):
        m = n - length + 1
        if length <= reuse_len and t1_prefix is not None:
            # Arity-independent short segments: every routing-based tree
            # on `length` identifiers splits at most `length - 1` ways at
            # any node, so B[1, :, length] matches the prefix recorded by
            # a previous run at arity >= length - 1.
            b[1, 0:m, length] = t1_prefix[0:m, length]
        else:
            best = acc[:m]
            best.fill(INT_INF)
            out = sbuf[:length, :m]
            for d in range(k - 1):  # dl = d + 1 left trees, k - dl right
                # left[s, j] = B[dl, i=j, s]  (left forest on [i, i+s))
                left = b[1 + d, 0:m, 0:length].T
                # right[s, j] = B[k-dl, i=j+s+1, length-1-s] — a diagonal
                # of the (i, L) plane, exposed as a contiguous 2-D view.
                slab = b[k - 1 - d]
                right = as_strided(
                    slab[1:, length - 1 :],
                    shape=(length, m),
                    strides=(a0 - a1, a0),
                )
                np.add(left, right, out=out)
                np.minimum(best, out.min(axis=0), out=best)
            np.add(best, w[0:m, length], out=b[1, 0:m, length])
        if length >= 2:
            tview = as_strided(
                t_table[:, 1:],
                shape=(length - 1, m),
                strides=(t_table.strides[1], t_table.strides[0]),
            )
            fout = sbuf[: length - 1, :m]
            for t in range(2, k + 1):
                prev = b[t - 1]
                bview = as_strided(
                    prev[1:, length - 1 :],
                    shape=(length - 1, m),
                    strides=(a0 - a1, a0),
                )
                np.add(tview, bview, out=fout)
                np.minimum(
                    b[t - 1, 0:m, length], fout.min(axis=0), out=b[t, 0:m, length]
                )
        else:
            for t in range(2, k + 1):
                b[t, 0:m, length] = b[t - 1, 0:m, length]
    ctx.offer(k, t_table)
    return b, w


def optimal_static_cost_table(
    demand, k: int, *, context: Optional[DemandContext] = None
) -> int:
    """Only the optimal total distance (no tree reconstruction).

    ``context`` pins an explicit :class:`DemandContext` **built from this
    demand** (an arity sweep over one demand shares inputs through it);
    by default the per-process memoized context for this demand is used,
    so repeated calls across arities share automatically.
    """
    ctx = _resolve_context(demand, context)
    b, _ = _forward(ctx, k)
    return int(b[1, 0, ctx.n])


# ----------------------------------------------------------------------
# reconstruction
# ----------------------------------------------------------------------
def _single_tree_choice(
    b: np.ndarray, w: np.ndarray, i: int, length: int, k: int
) -> tuple[int, int]:
    """Recover ``(s, dl)`` attaining ``B[1, i, L]``.

    Ties go to the first minimum in s-major order (smallest ``s``, then
    smallest ``dl``).
    """
    s = np.arange(length)
    # vals[s, dl - 1] = B[dl, i, s] + B[k - dl, i + s + 1, L - 1 - s]
    vals = (b[1:k, i, :length] + b[k - 1 : 0 : -1, i + 1 + s, length - 1 - s]).T
    best_s, d = divmod(int(np.argmin(vals)), k - 1)
    best_val = int(vals[best_s, d])
    target = int(b[1, i, length]) - int(w[i, length])
    if best_val != target:
        raise OptimizationError(
            f"reconstruction mismatch at segment ({i}, {length}):"
            f" {best_val} != {target}"
        )
    return best_s, d + 1


def _partition(
    b: np.ndarray, i: int, length: int, t: int
) -> list[tuple[int, int]]:
    """Split segment ``(i, L)`` into single-tree parts attaining ``B[t, i, L]``."""
    parts: list[tuple[int, int]] = []
    while length > 0:
        if t <= 1:
            parts.append((i, length))
            return parts
        if b[t, i, length] >= b[t - 1, i, length]:
            t -= 1
            continue
        s = np.arange(1, length)
        # vals[s - 1] = B[1, i, s] + B[t - 1, i + s, L - s]
        vals = b[1, i, 1:length] + b[t - 1, i + s, length - s]
        pos = int(np.argmin(vals))
        if vals[pos] >= INT_INF:  # pragma: no cover - defensive
            raise OptimizationError("partition backtrack failed")
        best_s = pos + 1
        parts.append((i, best_s))
        i += best_s
        length -= best_s
        t -= 1
    return parts


def _build_tree(
    b: np.ndarray, w: np.ndarray, i: int, length: int, k: int
) -> KAryNode:
    """Materialize the optimal single tree on segment ``(i, L)``.

    Routing arrays are routing-based: the root's identifier is itself a
    separator, flanked by half-integer boundaries between sibling parts and
    private dyadic pads (see :mod:`repro.core.keyspace`).
    """
    s, dl = _single_tree_choice(b, w, i, length, k)
    root_id = i + s + 1  # identifiers are 1-based
    left_parts = _partition(b, i, s, dl)
    right_parts = _partition(b, i + s + 1, length - 1 - s, k - dl)
    node = KAryNode(root_id, k)

    separators: list[float] = [float(root_id)]
    for parts in (left_parts, right_parts):
        for (pi, plen) in parts[1:]:
            separators.append(pi + 0.5)  # boundary below part start (1-based: pi+1 - 0.5)
    pad_needed = (k - 1) - len(separators)
    separators.extend(pad_values(root_id, pad_needed))
    separators.sort()
    node.routing = separators

    from bisect import bisect_left

    for (pi, plen) in left_parts + right_parts:
        child = _build_tree(b, w, pi, plen, k)
        slot = bisect_left(separators, pi + 1)
        node.attach_child(child, slot)
    node.recompute_range()
    return node


def _native_reconstruct(lib, w: np.ndarray, table: np.ndarray) -> NativeTree:
    """Wire the optimal tree from a filled native table, in the kernel.

    ``repro_dp_reconstruct`` follows :func:`_build_tree` step for step
    (same tie-breaks, same exact mismatch check) on the buffers
    :func:`_native_forward_into` has already checked; the layout is then
    validated by ``repro_tree_validate``.
    """
    k, n = table.shape[0] - 1, table.shape[1] - 1
    layout = NativeTree.empty(n, k, routing_based=True)
    info = np.zeros(4, dtype=np.int64)
    rc = lib.repro_dp_reconstruct(
        layout.handle, w.ctypes.data, table.ctypes.data, int(INT_INF),
        info.ctypes.data,
    )
    if rc == 2:
        i, length, best, target = info.tolist()
        raise OptimizationError(
            f"reconstruction mismatch at segment ({i}, {length}):"
            f" {best} != {target}"
        )
    if rc == 3:  # pragma: no cover - defensive, as in _partition
        raise OptimizationError("partition backtrack failed")
    if rc == 4:  # pragma: no cover - needs ~million-node trees
        raise precision_error(int(info[0]))
    if rc:  # pragma: no cover - n checked by the caller; malloc failure
        raise OptimizationError(f"native DP reconstruction failed (code {rc})")
    layout.validate()
    return layout


def optimal_static_tree(
    demand, k: int, *, context: Optional[DemandContext] = None
) -> OptimalTreeResult:
    """Theorem 2: optimal static routing-based k-ary search tree network.

    ``demand`` is a :class:`DemandMatrix` or a dense 0-indexed count array.
    Runs in O(n³k) arithmetic (native, or O(n k) NumPy dispatches without
    the kernel) and O(n²k) memory;
    ``context`` (default: the process-memoized one for this demand; an
    explicit one must be built from this demand) shares the
    demand-derived inputs across the arities of a sweep.  Where the kernel
    loads (and ``k <= MAX_K``, the arity its layout holds) the tree is
    reconstructed and validated there and the result holds its layout.
    """
    ctx = _resolve_context(demand, context)
    n = ctx.n
    if n < 1:
        raise OptimizationError("demand must cover at least one node")
    if k < 2:
        raise OptimizationError(f"arity k must be >= 2, got {k}")
    lib = _native.load_kernel()
    if lib is not None and k <= MAX_K:
        table = _native_table(lib, ctx, k)
        layout = _native_reconstruct(lib, ctx.w, table)
        return OptimalTreeResult(None, int(table[1, n, 0]), layout=layout)
    b, w = _forward(ctx, k)
    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * n + 100))
    try:
        root = _build_tree(b, w, 0, n, k)
    finally:
        sys.setrecursionlimit(old_limit)
    tree = KAryTreeNetwork(k, root, validate=True, routing_based=True)
    return OptimalTreeResult(tree, int(b[1, 0, n]))
