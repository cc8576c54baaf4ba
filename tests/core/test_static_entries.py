"""The kernel's static-tree entries: ``repro_dp_reconstruct``,
``repro_build_complete``, ``repro_tree_validate`` and
``repro_tree_distances``.

Each has a Python oracle it must equal exactly.  The optimal tree
reconstructed in the kernel equals :func:`repro.optimal.general._build_tree`
on the same table, ties included (a hypothesis differential over skewed,
all-zero and uniform demand); the full k-ary tree equals
:func:`repro.core.builders.build_complete_tree` for every size and arity;
batch distances equal :class:`repro.analysis.distance.TreeDistanceOracle`.
A layout corrupted in any one structural invariant fails validation with
:class:`InvalidTreeError`, and a bad request batch is an
:class:`EngineError` raised before the kernel reads anything.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.distance import TreeDistanceOracle
from repro.core import _native
from repro.core.builders import build_complete_tree, build_random_tree
from repro.core.engine import native_available
from repro.core.flat import tree_signature
from repro.core.keyspace import MAX_K
from repro.core.native import NativeTree
from repro.core.tree import KAryTreeNetwork
from repro.errors import EngineError, InvalidTreeError, OptimizationError
from repro.net.registry import build_network
from repro.network.static import StaticTreeNetwork
from repro.optimal import general
from repro.optimal.context import DemandContext
from repro.workloads.synthetic import uniform_trace, zipf_trace

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

pytestmark = pytest.mark.skipif(
    not native_available(), reason="compiled kernel unavailable"
)


def _demand(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "zero":
        d = np.zeros((n, n), dtype=np.int64)
    elif kind == "uniform":
        d = np.ones((n, n), dtype=np.int64)
    else:  # skewed: a few hot pairs over sparse light noise
        d = (rng.random((n, n)) < 0.1).astype(np.int64)
        hot = rng.integers(0, n, (3, 2))
        d[hot[:, 0], hot[:, 1]] += rng.integers(20, 200, 3)
    np.fill_diagonal(d, 0)
    return d


def _object_optimal(table: np.ndarray, w: np.ndarray) -> KAryTreeNetwork:
    """The oracle: :func:`general._build_tree` on the same native table."""
    k, n = table.shape[0] - 1, table.shape[1] - 1
    root = general._build_tree(table.transpose(0, 2, 1), w, 0, n, k)
    return KAryTreeNetwork(k, root, validate=True, routing_based=True)


def _arrays(tree: NativeTree) -> list[np.ndarray]:
    """The handle's root, parent, pslot, children and routing buffers."""
    n, k = tree.n, tree.k
    bufs = [
        np.empty(1, dtype=np.int64),
        np.empty(n + 1, dtype=np.int64),
        np.empty(n + 1, dtype=np.int64),
        np.empty((n + 1, k), dtype=np.int64),
        np.empty((n + 1, k - 1), dtype=np.float64),
    ]
    tree._lib.repro_tree_sync_out(tree.handle, *(b.ctypes.data for b in bufs))
    return bufs


def _reload(tree: NativeTree, root, parent, pslot, children, routing) -> None:
    tree._lib.repro_tree_load(
        tree.handle,
        int(root[0]),
        parent.ctypes.data,
        pslot.ctypes.data,
        children.ctypes.data,
        routing.ctypes.data,
    )
    tree._lists_stale = True


class TestReconstruction:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.integers(min_value=1, max_value=64),
        k=st.integers(min_value=2, max_value=MAX_K),
        kind=st.sampled_from(["skewed", "zero", "uniform"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_equals_build_tree(self, n, k, kind, seed):
        ctx = DemandContext.from_demand(_demand(kind, n, seed))
        lib = _native.load_kernel()
        table = general._native_table(lib, ctx, k)
        layout = general._native_reconstruct(lib, ctx.w, table)
        assert layout.routing_based
        assert layout.signature() == tree_signature(_object_optimal(table, ctx.w))

    @pytest.mark.parametrize("k", [2, 4, MAX_K])
    def test_result_holds_the_layout_and_materializes_on_read(self, k):
        d = _demand("skewed", 30, k)
        result = general.optimal_static_tree(d, k)
        assert isinstance(result.layout, NativeTree)
        assert (result.n, result.k) == (30, k)
        tree = result.tree
        assert tree.routing_based
        assert tree is result.tree
        tree.validate()
        assert tree_signature(tree) == result.layout.signature()

    def test_mismatch_is_an_optimization_error_like_build_tree(self):
        ctx = DemandContext.from_demand(_demand("skewed", 12, 1))
        lib = _native.load_kernel()
        table = general._native_table(lib, ctx, 3)
        table[1, 12, 0] += 1  # B[1, 0, n] no longer matches its argmin
        with pytest.raises(OptimizationError) as native:
            general._native_reconstruct(lib, ctx.w, table)
        with pytest.raises(OptimizationError) as oracle:
            _object_optimal(table, ctx.w)
        assert "reconstruction mismatch at segment (0, 12)" in str(native.value)
        assert str(native.value) == str(oracle.value)

    def test_dp_trees_are_validated(self, monkeypatch):
        calls = []
        validate = NativeTree.validate

        def counted(tree):
            calls.append(tree.routing_based)
            return validate(tree)

        monkeypatch.setattr(NativeTree, "validate", counted)
        general.optimal_static_tree(_demand("uniform", 9, 0), 3)
        assert calls == [True]


class TestCompleteTree:
    @pytest.mark.slow
    @pytest.mark.parametrize("k", range(2, MAX_K + 1))
    def test_equals_build_complete_tree(self, k):
        for n in range(1, 301):
            expected = tree_signature(build_complete_tree(n, k, validate=False))
            assert NativeTree.complete(n, k).signature() == expected, (n, k)

    @pytest.mark.parametrize("n, k", [(0, 3), (5, 1), (5, MAX_K + 1)])
    def test_rejects_what_the_builders_reject(self, n, k):
        with pytest.raises(InvalidTreeError) as native:
            NativeTree.complete(n, k)
        with pytest.raises(InvalidTreeError) as oracle:
            build_complete_tree(n, k)
        assert str(native.value) == str(oracle.value)

    def test_full_trees_are_validated(self, monkeypatch):
        calls = []
        validate = NativeTree.validate
        monkeypatch.setattr(
            NativeTree, "validate", lambda tree: calls.append(1) or validate(tree)
        )
        build_network("full-tree", n=20, k=3)
        build_network("kary-splaynet", n=20, k=3, engine="native")
        assert calls == [1, 1]


class TestDistances:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=80),
        k=st.integers(min_value=2, max_value=MAX_K),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_equal_the_oracle(self, n, k, seed):
        tree = build_random_tree(n, k, seed=seed)
        layout = NativeTree.from_tree(tree)
        rng = np.random.default_rng(seed)
        us = rng.integers(1, n + 1, 300)
        vs = rng.integers(1, n + 1, 300)
        expected = TreeDistanceOracle.from_tree(tree).distances(us, vs)
        total, series = layout.distances(us, vs, series=True)
        assert total == int(expected.sum())
        assert np.array_equal(series, expected)
        assert layout.distances(us, vs) == (total, None)

    @pytest.mark.parametrize("algorithm", ["full-tree", "optimal-tree"])
    @pytest.mark.parametrize("k", [2, 5])
    def test_static_networks_cost_like_the_oracle(self, algorithm, k):
        trace = zipf_trace(40, 2000, 1.2, seed=k)
        net = build_network(algorithm, n=40, k=k, trace=trace)
        assert net._layout is not None
        oracle = StaticTreeNetwork(net.tree)
        native = net.serve_trace(trace.sources, trace.targets, record_series=True)
        expected = oracle.serve_trace(
            trace.sources, trace.targets, record_series=True
        )
        assert native.total_routing == expected.total_routing
        assert np.array_equal(native.routing_series, expected.routing_series)
        assert not native.rotation_series.any()
        for u, v in list(trace.pairs())[:50]:
            assert net.serve(u, v) == oracle.serve(u, v)


class TestAdversarialLayouts:
    """Each corrupted invariant is an InvalidTreeError, never a crash."""

    def layout(self, n=40, k=4):
        return NativeTree.complete(n, k)

    def corrupt(self, tree, edit):
        bufs = _arrays(tree)
        edit(*bufs)
        _reload(tree, *bufs)
        return tree

    def leaf_and_parent(self, tree):
        """The first leaf by identifier: (leaf, parent, slot)."""
        _, parent, pslot, children, _ = _arrays(tree)
        c = next(
            c for c in range(1, tree.n + 1)
            if parent[c] and not children[c].any()
        )
        return c, int(parent[c]), int(pslot[c])

    def test_valid_layout_passes(self):
        self.layout().validate()

    def test_parent_wiring(self):
        tree = self.layout()
        c, p, s = self.leaf_and_parent(tree)

        def edit(root, parent, pslot, children, routing):
            pslot[c] = (s + 1) % tree.k

        with pytest.raises(InvalidTreeError, match="parent wiring"):
            self.corrupt(tree, edit).validate()

    @pytest.mark.parametrize("bad", [-7, 41, 10**9])
    def test_child_identifier_out_of_range(self, bad):
        tree = self.layout()
        c, p, s = self.leaf_and_parent(tree)

        def edit(root, parent, pslot, children, routing):
            children[c, 0] = bad

        with pytest.raises(InvalidTreeError, match="parent wiring"):
            self.corrupt(tree, edit).validate()

    @pytest.mark.parametrize("root_id", [0, 41, -1])
    def test_root_out_of_range(self, root_id):
        tree = self.layout()

        def edit(root, parent, pslot, children, routing):
            root[0] = root_id

        with pytest.raises(InvalidTreeError, match="parent wiring"):
            self.corrupt(tree, edit).validate()

    def test_unsorted_routing(self):
        tree = self.layout()

        def edit(root, parent, pslot, children, routing):
            r = routing[root[0]]
            r[0], r[1] = r[1], r[0]

        with pytest.raises(InvalidTreeError, match="strictly increasing"):
            self.corrupt(tree, edit).validate()

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e6 + 0.5])
    def test_escaping_routing(self, value):
        tree = self.layout()
        c, p, s = self.leaf_and_parent(tree)

        def edit(root, parent, pslot, children, routing):
            routing[c, -1] = value

        with pytest.raises(InvalidTreeError, match="strictly increasing"):
            self.corrupt(tree, edit).validate()

    def test_identifier_separator_outside_routing_based_trees(self):
        tree = self.layout()
        c, p, s = self.leaf_and_parent(tree)

        def edit(root, parent, pslot, children, routing):
            routing[c, -1] = c + 1.0  # above the leaf's pads: still sorted

        with pytest.raises(InvalidTreeError, match="identifier lattice"):
            self.corrupt(tree, edit).validate()

    def test_child_outside_its_slot_interval(self):
        # Shrink the slot of an internal child below its subtree's largest
        # identifier; the parent's routing stays sorted and in its window.
        tree = self.layout(n=60, k=3)
        _, parent, pslot, children, _ = _arrays(tree)
        c = next(
            c for c in range(1, tree.n + 1)
            if parent[c] and children[c].any() and pslot[c] < tree.k - 1
        )
        p, s = int(parent[c]), int(pslot[c])
        subtree_max = max(
            nid for nid in range(1, tree.n + 1) if c in _path_to_root(tree, nid)
        )
        assert subtree_max > c

        def edit(root, parent, pslot, children, routing):
            routing[p, s] = subtree_max - 0.25

        # Reported where the first node of the subtree leaves its window:
        # by its routing array or by its identifier.
        with pytest.raises(InvalidTreeError, match="window"):
            self.corrupt(tree, edit).validate()

    def test_identifier_outside_its_window(self):
        # Raise a leaf's lower slot bound just past its identifier but below
        # its pads: only the identifier leaves the window.
        tree = self.layout()
        _, parent, pslot, children, _ = _arrays(tree)
        c = next(
            c for c in range(1, tree.n + 1)
            if parent[c] and not children[c].any() and pslot[c] > 0
        )
        p, s = int(parent[c]), int(pslot[c])

        def edit(root, parent, pslot, children, routing):
            routing[p, s - 1] = c + 2.0 ** -(tree.k + 1)

        with pytest.raises(InvalidTreeError, match=f"node {c}: identifier outside"):
            self.corrupt(tree, edit).validate()

    def test_unreachable_node(self):
        tree = self.layout()
        c, p, s = self.leaf_and_parent(tree)

        def edit(root, parent, pslot, children, routing):
            children[p, s] = 0

        with pytest.raises(InvalidTreeError, match="39 nodes, expected 40"):
            self.corrupt(tree, edit).validate()

    def test_routing_based_trees_accept_identifier_separators(self):
        result = general.optimal_static_tree(_demand("skewed", 25, 3), 3)
        result.layout.validate()
        result.layout.routing_based = False
        with pytest.raises(InvalidTreeError, match="identifier lattice"):
            result.layout.validate()


def _path_to_root(tree: NativeTree, nid: int) -> list[int]:
    tree._sync_lists()
    path = []
    while nid:
        path.append(nid)
        nid = tree.parent[nid]
    return path


class TestDistancesRefuseBadInput:
    def network(self):
        return build_network("full-tree", n=20, k=3)

    @pytest.mark.parametrize(
        "us, vs", [([0, 3], [4, 5]), ([3, 4], [5, 21]), ([-1], [2]), ([2], [2**40])]
    )
    def test_identifier_outside_range(self, us, vs):
        net = self.network()
        with pytest.raises(EngineError, match="1..20"):
            net.serve_trace(np.array(us), np.array(vs))
        with pytest.raises(EngineError, match="1..20"):
            net._layout.distances(np.array(us), np.array(vs))
        oracle = StaticTreeNetwork(build_complete_tree(20, 3))
        with pytest.raises(EngineError, match="1..20"):
            oracle.serve_trace(np.array(us), np.array(vs))

    def test_ragged_arrays(self):
        net = self.network()
        with pytest.raises(EngineError, match="equal-length"):
            net.serve_trace(np.array([1, 2, 3]), np.array([4, 5]))
        with pytest.raises(EngineError, match="equal-length"):
            net._layout.distances(np.array([1, 2, 3]), np.array([4, 5]))
        with pytest.raises(EngineError, match="equal-length"):
            net._layout.distances(np.ones((2, 2)), np.ones((2, 2)))

    def test_kernel_refuses_out_of_range_ids_itself(self):
        layout = self.network()._layout
        us = np.array([1, 21], dtype=np.int64)
        vs = np.array([2, 3], dtype=np.int64)
        total = np.zeros(1, dtype=np.int64)
        status = layout._lib.repro_tree_distances(
            layout.handle, us.ctypes.data, vs.ctypes.data, 2, None,
            total.ctypes.data,
        )
        assert status == 2

    def test_malformed_layout_is_refused(self):
        layout = self.network()._layout
        bufs = _arrays(layout)
        root, parent, pslot, children, routing = bufs
        child = children[root[0]][children[root[0]] > 0][0]
        parent[child] = child  # miswired: a self-loop
        _reload(layout, *bufs)
        with pytest.raises(EngineError, match="code 3"):
            layout.distances(np.array([1]), np.array([2]))

    def test_empty_batch(self):
        net = self.network()
        batch = net.serve_trace(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        )
        assert batch.total_routing == 0 and batch.m == 0

    def test_uniform_trace_totals(self):
        trace = uniform_trace(20, 500, seed=2)
        net = self.network()
        oracle = StaticTreeNetwork(build_complete_tree(20, 3))
        assert (
            net.serve_trace(trace).total_routing
            == oracle.serve_trace(trace).total_routing
        )
