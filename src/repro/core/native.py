"""The compiled tree engine: :class:`NativeTree` behind ``engine="native"``.

``NativeTree`` is a :class:`~repro.core.flat.FlatTree` whose state lives
in a **resident kernel handle** of :mod:`repro.core._native`, and every
operation of a k-ary SplayNet runs there:

* batches (``repro_tree_serve_batch``, optionally segmented: one call,
  one totals row per segment) and single requests
  (``repro_tree_serve_one``);
* ``depth``, ``splay_until`` / splay to the root, and the one-step
  semi-reactive rotation (``repro_tree_splay_until`` with a rotation cap
  of 0, none and 1);
* ``lca`` / ``distance`` (``repro_tree_lca``).

It is also the form of the static trees the kernel builds itself:
:meth:`complete` (the paper's full k-ary tree) and the Theorem 2 optimal
tree of :mod:`repro.optimal.general` are wired straight into a handle,
checked there (:meth:`validate`, ``repro_tree_validate``) and costed
there (:meth:`distances`, ``repro_tree_distances``), with no
:class:`~repro.core.node.KAryNode` on the way.

The handle is created and loaded when the tree is built
(:meth:`from_tree` / :meth:`from_flat`, or a kernel builder), so a tree
that exists has a kernel to serve on.  The Python lists of the flat
layout are a mirror: consumers that read them — snapshot/copy,
``signature``, ``to_tree``, cross-engine transfer — call
:meth:`_sync_lists` first, which copies the handle out once after the
kernel changed it.

The engine serves the paper's depth-2 discipline only.  Which networks
get a native tree is decided when they are built, in
:func:`repro.core.engine.resolve_engine`: without the kernel, or with a
deep splay (``splay_depth != 2``), networks are built on the object
engine instead.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.core import _native
from repro.core.builders import check_tree_size
from repro.core.engine import check_request_ids
from repro.core.flat import FlatTree
from repro.core.rotations import BLOCK_POLICIES
from repro.errors import EngineError, InvalidTreeError, RotationError

__all__ = ["NativeTree", "precision_error"]

#: Block-policy encoding shared with kernel.c.
_POLICY_CODES = {"center": 0, "left": 1, "right": 2}


#: ``repro_tree_validate``'s status -> the invariant it found broken.
_INVALID_LAYOUT = {
    1: "inconsistent parent wiring",
    2: "routing array not strictly increasing inside its window",
    3: "separator collides with the identifier lattice",
    4: "identifier outside its window",
}


def _policy_code(policy: str) -> int:
    code = _POLICY_CODES.get(policy)
    if code is None:
        raise RotationError(
            f"unknown block policy {policy!r}; choose from {BLOCK_POLICIES}"
        )
    return code


def precision_error(nid: int) -> InvalidTreeError:
    """The error of a kernel builder whose pad for ``nid`` lost precision.

    The kernel's counterpart of :func:`repro.core.keyspace.pad_values`'
    check: float64 runs out of mantissa only for ~million-node networks
    at extreme arity.
    """
    return InvalidTreeError(
        f"separator precision exhausted for node {nid}; reduce n or k"
    )


def _segment_ends(ends, m: int) -> np.ndarray:
    """Check the segment ends of a batch of ``m`` requests before the kernel.

    At least one segment; int64; non-negative and non-decreasing; the
    last end is ``m``.  The kernel trusts these offsets, so a bad one is
    an :class:`EngineError` here, never an out-of-bounds read there.
    """
    if (
        type(ends) is not np.ndarray
        or ends.dtype != np.int64
        or ends.ndim != 1
    ):
        raise EngineError("segment ends must be a 1-D int64 array")
    if not len(ends):
        raise EngineError("a segmented batch needs at least one segment")
    bounds = ends.tolist()  # few segments: cheaper than NumPy reductions
    if (
        bounds[-1] != m
        or bounds[0] < 0
        or any(a > b for a, b in zip(bounds, bounds[1:]))
    ):
        raise EngineError(
            f"segment ends must be non-decreasing from 0 to the batch"
            f" length {m}"
        )
    return np.ascontiguousarray(ends)


class NativeTree(FlatTree):
    """A :class:`FlatTree` served by the C kernel via a resident handle."""

    __slots__ = ("_lib", "_handle", "_lists_stale", "_out")

    def __init__(self, n: int, k: int) -> None:
        super().__init__(n, k)
        self._lib = None  # the CDLL that owns _handle (survives loader resets)
        self._handle = None
        self._lists_stale = False
        self._out = (ctypes.c_int64 * 3)()

    def __del__(self) -> None:
        try:
            handle, lib = self._handle, self._lib
        except AttributeError:  # pragma: no cover - init never completed
            return
        if handle and lib is not None:
            try:
                lib.repro_tree_destroy(handle)
            except Exception:  # pragma: no cover - interpreter shutdown
                pass
            self._handle = None

    # ------------------------------------------------------------------
    # the resident handle
    # ------------------------------------------------------------------
    @classmethod
    def from_tree(cls, tree) -> "NativeTree":
        """Snapshot an object-engine tree into a loaded kernel handle."""
        return super().from_tree(tree)._load()

    @classmethod
    def from_flat(cls, other: FlatTree) -> "NativeTree":
        """A native copy of ``other``'s topology, loaded into a new handle."""
        return super().from_flat(other)._load()

    @classmethod
    def empty(
        cls, n: int, k: int, *, routing_based: bool = False
    ) -> "NativeTree":
        """A tree whose state is a fresh handle for a kernel builder to fill.

        The handle is authoritative from the start: the lists are read
        back from it (:meth:`_sync_lists`) whenever something reads them.
        """
        tree = cls(n, k)
        tree.routing_based = routing_based
        tree._attach()
        tree._lists_stale = True
        return tree

    @classmethod
    def complete(cls, n: int, k: int) -> "NativeTree":
        """The paper's full k-ary tree on ``1..n``, built in the kernel.

        The layout of :func:`repro.core.builders.build_complete_tree` (its
        oracle) with the centred own index, wired by
        ``repro_build_complete`` and checked by :meth:`validate`.
        """
        check_tree_size(n, k)
        tree = cls.empty(n, k)
        status = tree._lib.repro_build_complete(tree._handle, tree._out)
        if status == 2:
            raise precision_error(tree._out[0])
        if status:  # pragma: no cover - n checked above; malloc failure
            raise EngineError(
                f"native complete-tree build failed (code {status})"
            )
        tree.validate()
        return tree

    @property
    def handle(self):
        """The resident kernel handle, for kernel entries that fill it."""
        return self._handle

    def _attach(self) -> None:
        """Allocate this tree's kernel handle (every node unwired)."""
        kernel = _native.load_kernel()
        if kernel is None:
            raise EngineError(
                "a native tree needs the compiled kernel"
                f" ({_native.build_error()})"
            )
        handle = kernel.repro_tree_create(self.n, self.k)
        if not handle:  # pragma: no cover - malloc failure
            raise EngineError("native tree handle allocation failed")
        self._lib, self._handle = kernel, handle

    def _load(self) -> "NativeTree":
        """Allocate the handle and load the list state into it (O(n·k))."""
        self._attach()
        kernel, handle = self._lib, self._handle
        n, km1 = self.n, self.k - 1
        parent = np.array(self.parent, dtype=np.int64)
        pslot = np.array(self.pslot, dtype=np.int64)
        children = np.array(self.child_rows, dtype=np.int64)
        routing = np.zeros((n + 1, km1), dtype=np.float64)
        if n:
            routing[1:] = self.routing_rows[1:]
        kernel.repro_tree_load(
            handle,
            self.root,
            parent.ctypes.data,
            pslot.ctypes.data,
            children.ctypes.data,
            routing.ctypes.data,
        )
        return self

    def _sync_lists(self) -> None:
        """Copy the handle's state into the lists if the kernel changed it.

        Updates the lists *in place*, so references handed out earlier
        observe the synced state.  The handle stays authoritative.
        """
        if not self._lists_stale:
            return
        n, k, km1 = self.n, self.k, self.k - 1
        parent = np.empty(n + 1, dtype=np.int64)
        pslot = np.empty(n + 1, dtype=np.int64)
        children = np.empty((n + 1, k), dtype=np.int64)
        routing = np.empty((n + 1, km1), dtype=np.float64)
        root_out = np.empty(1, dtype=np.int64)
        self._lib.repro_tree_sync_out(
            self._handle,
            root_out.ctypes.data,
            parent.ctypes.data,
            pslot.ctypes.data,
            children.ctypes.data,
            routing.ctypes.data,
        )
        self.parent[:] = parent.tolist()
        self.pslot[:] = pslot.tolist()
        self.child_rows[:] = children.tolist()
        rows = routing.tolist()
        rows[0] = []
        self.routing_rows[:] = rows
        self.root = int(root_out[0])
        self._lists_stale = False

    def validate(self) -> None:
        """Check the resident layout against every structural invariant.

        ``repro_tree_validate`` checks, on the arrays, what
        :meth:`repro.core.tree.KAryTreeNetwork.validate` checks on a node
        graph (with identifier separators allowed when the tree is
        ``routing_based``); a broken invariant raises
        :class:`InvalidTreeError` naming it and the node it was found at.
        """
        out = self._out
        status = self._lib.repro_tree_validate(
            self._handle, self.routing_based, out
        )
        if status == 5:
            raise InvalidTreeError(
                f"flat tree reachable from root has {out[0]} nodes,"
                f" expected {self.n}"
            )
        if status in _INVALID_LAYOUT:
            raise InvalidTreeError(f"node {out[0]}: {_INVALID_LAYOUT[status]}")
        if status:  # pragma: no cover - malloc failure
            raise EngineError(f"native tree validation failed (code {status})")

    def _check_id(self, nid: int) -> None:
        if not 1 <= nid <= self.n:
            raise EngineError(
                f"request identifiers must be in 1..{self.n} for the"
                " native kernel"
            )

    # ------------------------------------------------------------------
    # queries and rotations on the handle
    # ------------------------------------------------------------------
    def lca(self, u: int, v: int) -> tuple[int, int, int]:
        """``(lca, du, dv)`` — common ancestor and climb distances."""
        out = self._out
        if self._lib.repro_tree_lca(self._handle, u, v, out):
            self._check_id(u)
            self._check_id(v)
        return out[0], out[1], out[2]

    def distance(self, u: int, v: int) -> int:
        """Tree distance (in edges) between identifiers ``u`` and ``v``."""
        if u == v:
            return 0
        _, du, dv = self.lca(u, v)
        return du + dv

    def splay_until(
        self,
        node: int,
        stop: int,
        *,
        policy: str = "center",
        max_rotations: int = -1,
    ) -> tuple[int, int, int]:
        """Rotate ``node`` upward until its parent is ``stop`` (0 = root).

        At most ``max_rotations`` rotations (negative: no cap; 0 only
        measures).  Returns ``(depth_before, rotations, links)``: the
        depth of ``node`` before the call, and the rotations and link
        churn of the climb — the depth-2 discipline of
        :func:`repro.core.splay.splay_until`.
        """
        out = self._out
        status = self._lib.repro_tree_splay_until(
            self._handle, node, stop, max_rotations, _policy_code(policy), out
        )
        if status:
            self._check_id(node)
            raise RotationError(
                f"stop {stop} is neither the root marker 0 nor a proper"
                f" ancestor of {node}"
            )
        if out[1]:
            self._lists_stale = True
        return out[0], out[1], out[2]

    def depth(self, nid: int) -> int:
        """Depth of ``nid`` (root has depth 0)."""
        return self.splay_until(nid, 0, max_rotations=0)[0]

    def distances(
        self, sources: np.ndarray, targets: np.ndarray, *, series: bool = False
    ) -> tuple[int, "np.ndarray | None"]:
        """Total tree distance of a request batch, without changing the tree.

        ``sources``/``targets`` are equal-length 1-D arrays of identifiers
        in ``1..n``, checked here so that a bad batch is an
        :class:`EngineError` before the kernel reads it.  Returns the
        total and, with ``series``, the per-pair distances: one
        ``repro_tree_distances`` call, the static baselines' batch path.
        """
        us = np.ascontiguousarray(sources, dtype=np.int64)
        vs = np.ascontiguousarray(targets, dtype=np.int64)
        check_request_ids(us, vs, self.n)
        m = len(us)
        out = np.empty(m, dtype=np.int64) if series else None
        total = self._out
        status = self._lib.repro_tree_distances(
            self._handle,
            us.ctypes.data,
            vs.ctypes.data,
            m,
            None if out is None else out.ctypes.data,
            total,
        )
        if status:
            raise EngineError(f"native tree distances failed (code {status})")
        return total[0], out

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def serve_one(
        self, u: int, v: int, policy: str = "center"
    ) -> tuple[int, int, int]:
        """Serve one request through the resident scalar kernel entry.

        The ``Session.serve`` hot path: one ctypes call against the
        resident handle, no state copies.
        """
        code = _policy_code(policy)
        if u == v:
            # Mirrors the object engine's self-pair short-circuit, including
            # for out-of-range identifiers (served at cost 0, never indexed).
            return 0, 0, 0
        self._check_id(u)
        self._check_id(v)
        totals = self._out
        status = self._lib.repro_tree_serve_one(
            self._handle, u, v, code, totals
        )
        if status != 0:  # pragma: no cover - ids and arity checked
            raise EngineError(f"native serve kernel failed (status {status})")
        self._lists_stale = True
        return totals[0], totals[1], totals[2]

    def serve_many(
        self,
        sources,
        targets,
        *,
        policy: str = "center",
        routing_series=None,
        rotation_series=None,
        ends=None,
    ):
        """Serve a whole request batch in the compiled kernel.

        Returns scalar ``(routing, rotations, links)`` totals, with
        ``zip`` semantics over the two request sequences, and fills the
        optional preallocated series buffers (NumPy arrays or lists) per
        request.  Only the request arrays cross the ctypes boundary; the
        tree state stays resident in the handle.

        ``ends`` splits the batch into consecutive segments (an int64
        array of cumulative segment ends, non-decreasing, the last equal
        to the batch length): the call then returns an ``(len(ends), 3)``
        int64 array of per-segment ``(routing, rotations, links)`` totals,
        exactly what serving each segment by its own call would return.
        Without ``ends`` the batch is one segment.
        """
        code = _policy_code(policy)
        if (routing_series is None) != (rotation_series is None):
            raise EngineError(
                "routing_series and rotation_series must be provided together"
            )
        src = np.ascontiguousarray(sources, dtype=np.int64)
        dst = np.ascontiguousarray(targets, dtype=np.int64)
        m = min(src.shape[0], dst.shape[0])  # zip() semantics
        seg_ends = (
            np.array([m], dtype=np.int64)
            if ends is None
            else _segment_ends(ends, m)
        )
        totals = np.zeros((len(seg_ends), 3), dtype=np.int64)
        record = routing_series is not None
        if record:
            routing_out = np.empty(m, dtype=np.int64)
            rotation_out = np.empty(m, dtype=np.int64)
            routing_ptr = routing_out.ctypes.data
            rotation_ptr = rotation_out.ctypes.data
        else:
            routing_ptr = rotation_ptr = None

        status = self._lib.repro_tree_serve_batch(
            self._handle,
            src.ctypes.data,
            dst.ctypes.data,
            seg_ends.ctypes.data,
            len(seg_ends),
            code,
            routing_ptr,
            rotation_ptr,
            totals.ctypes.data,
        )
        if status == 2:
            # The kernel checks every pair before serving any: only
            # non-self pairs index the tree, so a degenerate out-of-range
            # self-pair serves at cost 0 here exactly as the object
            # engine serves it.
            raise EngineError(
                f"request identifiers must be in 1..{self.n} for the"
                " native kernel"
            )
        if status != 0:  # pragma: no cover - arity and ends checked above
            raise EngineError(f"native serve kernel failed (status {status})")
        self._lists_stale = True

        if record:
            routing_series[:m] = (
                routing_out
                if isinstance(routing_series, np.ndarray)
                else routing_out.tolist()
            )
            rotation_series[:m] = (
                rotation_out
                if isinstance(rotation_series, np.ndarray)
                else rotation_out.tolist()
            )
        if ends is not None:
            return totals
        return int(totals[0, 0]), int(totals[0, 1]), int(totals[0, 2])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NativeTree(n={self.n}, k={self.k}, root={self.root})"
