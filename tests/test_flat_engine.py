"""The flat layout, the engine names, and array-engine equivalence.

:class:`~repro.core.flat.FlatTree` is the structure-of-arrays layout the
native kernel serves on; these tests pin its conversions, the engine-name
contract (``"flat"`` is accepted and builds on ``"object"``), and the
array-backed engine against the object engine decision-for-decision:
identical per-request cost totals, identical preorder topology signatures
after every request, across arities, block policies, deep-splay depths
and serving interfaces.  The array-backed engine is the best one available
(``native`` where the kernel builds), so the suite passes in both worlds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.builders import build_balanced_tree, build_random_tree
from repro.core.centroid_splaynet import CentroidSplayNet
from repro.core.engine import (
    ENGINES,
    best_available_engine,
    native_available,
    resolve_engine,
    set_default_engine,
)
from repro.core.flat import FlatTree, tree_signature
from repro.core.splaynet import KArySplayNet
from repro.errors import EngineError, InvalidTreeError
from repro.network.lazy import LazyRebuildNetwork
from repro.network.simulator import Simulator
from repro.network.static import StaticTreeNetwork
from repro.workloads.synthetic import uniform_trace, zipf_trace


def result_tuple(res):
    return (res.routing_cost, res.rotations, res.links_changed)


def make_pair(n, k, **kwargs):
    return (
        KArySplayNet(n, k, engine="object", **kwargs),
        KArySplayNet(n, k, engine=best_available_engine(), **kwargs),
    )


def signature(net):
    return tree_signature(net.tree)


class TestFlatTreeConversion:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_roundtrip_preserves_topology(self, k):
        tree = build_random_tree(40, k, seed=k)
        flat = FlatTree.from_tree(tree)
        assert flat.signature() == tree_signature(tree)
        back = flat.to_tree(validate=True)
        assert tree_signature(back) == tree_signature(tree)

    def test_flat_validate_catches_bad_wiring(self):
        flat = FlatTree.from_tree(build_balanced_tree(10, 2))
        flat.validate()
        # corrupt the parent mirror of some non-root child
        for nid in range(1, 11):
            if flat.parent[nid]:
                flat.parent[nid] = nid
                break
        with pytest.raises(InvalidTreeError):
            flat.validate()


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(EngineError):
            KArySplayNet(8, 2, engine="turbo")

    def test_resolve_and_default(self):
        assert resolve_engine(None) in ENGINES
        assert resolve_engine("flat") == "object"
        set_default_engine("flat")
        try:
            assert KArySplayNet(8, 2).engine == "object"
        finally:
            set_default_engine("object")
        assert KArySplayNet(8, 2).engine == "object"

    def test_arity_conflict_rejected_even_without_n(self):
        # Satellite fix: the k-vs-tree arity check must not depend on n.
        tree = build_balanced_tree(20, 3)
        with pytest.raises(InvalidTreeError, match="conflicts"):
            KArySplayNet(initial=tree, k=2)
        with pytest.raises(InvalidTreeError, match="conflicts"):
            KArySplayNet(20, 2, initial=tree)
        # Omitting k adopts the tree's arity.
        assert KArySplayNet(initial=tree).k == 3
        assert KArySplayNet(initial=tree, k=3).k == 3

    def test_best_available_engine_adopts_explicit_tree(self):
        tree = build_balanced_tree(15, 3)
        net = KArySplayNet(initial=tree, engine=best_available_engine())
        assert net.n == 15 and net.k == 3
        assert tree_signature(net.tree) == tree_signature(tree)


class TestScalarEquivalence:
    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("policy", ["center", "left", "right"])
    def test_serve_equivalence_per_request(self, k, policy, rng):
        n, m = 32, 250
        trace = uniform_trace(n, m, seed=1000 * k + len(policy))
        obj, fast = make_pair(n, k, policy=policy)
        for i, (u, v) in enumerate(trace.pairs()):
            ra, rb = obj.serve(u, v), fast.serve(u, v)
            assert result_tuple(ra) == result_tuple(rb), (k, policy, i)
            if i % 25 == 0:
                assert tree_signature(obj.tree) == signature(fast)
        assert tree_signature(obj.tree) == signature(fast)
        fast.validate()
        obj.validate()

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("depth", [3, 4])
    def test_deep_splay_equivalence(self, k, depth):
        n, m = 28, 150
        trace = uniform_trace(n, m, seed=k * depth)
        obj, fast = make_pair(n, k, splay_depth=depth)
        for i, (u, v) in enumerate(trace.pairs()):
            ra, rb = obj.serve(u, v), fast.serve(u, v)
            assert result_tuple(ra) == result_tuple(rb), (k, depth, i)
        assert tree_signature(obj.tree) == signature(fast)
        fast.validate()

    @pytest.mark.parametrize("k", [2, 4])
    def test_access_and_semi_equivalence(self, k, rng):
        n = 24
        obj, fast = make_pair(n, k)
        for _ in range(120):
            x = int(rng.integers(1, n + 1))
            assert result_tuple(obj.access(x)) == result_tuple(fast.access(x))
            u = int(rng.integers(1, n + 1))
            v = int(rng.integers(1, n))
            v += v >= u
            assert result_tuple(obj.serve_semi(u, v)) == result_tuple(
                fast.serve_semi(u, v)
            )
        assert tree_signature(obj.tree) == signature(fast)
        fast.validate()

    def test_distance_and_depth_agree(self, rng):
        n, k = 30, 3
        obj, fast = make_pair(n, k)
        for _ in range(60):
            u = int(rng.integers(1, n + 1))
            v = int(rng.integers(1, n + 1))
            obj.serve(u, v) if u != v else None
            fast.serve(u, v) if u != v else None
            assert obj.distance(u, v) == fast.distance(u, v)
            assert obj.depth(u) == fast.depth(u)


class TestBatchedEquivalence:
    def test_all_engines_batched_equivalence(self):
        """Every registered engine — object and native (which is object's
        stand-in when the kernel is unavailable) — produces the identical
        topology and cost totals on one batched trace."""
        n, k, m = 40, 4, 400
        trace = zipf_trace(n, m, 1.25, seed=8)
        totals = {}
        signatures = {}
        for engine in ENGINES:
            net = KArySplayNet(n, k, engine=engine)
            batch = net.serve_trace(trace)
            totals[engine] = (
                batch.total_routing,
                batch.total_rotations,
                batch.total_links_changed,
            )
            signatures[engine] = tree_signature(net.tree)
        reference_totals = totals["object"]
        reference_signature = signatures["object"]
        assert all(t == reference_totals for t in totals.values()), totals
        assert all(s == reference_signature for s in signatures.values())

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_serve_trace_matches_scalar_loop(self, k):
        n, m = 32, 300
        trace = uniform_trace(n, m, seed=k)
        for engine in ENGINES:
            scalar = KArySplayNet(n, k, engine=engine)
            batched = KArySplayNet(n, k, engine=engine)
            totals = [0, 0, 0]
            for u, v in trace.pairs():
                r = scalar.serve(u, v)
                totals[0] += r.routing_cost
                totals[1] += r.rotations
                totals[2] += r.links_changed
            batch = batched.serve_trace(trace.sources, trace.targets)
            assert (
                batch.total_routing,
                batch.total_rotations,
                batch.total_links_changed,
            ) == tuple(totals), engine
            assert tree_signature(scalar.tree) == tree_signature(batched.tree)

    def test_serve_trace_series_and_cross_engine(self):
        n, k, m = 40, 3, 400
        trace = zipf_trace(n, m, 1.3, seed=5)
        obj, fast = make_pair(n, k)
        ba = obj.serve_trace(trace, record_series=True)
        bb = fast.serve_trace(trace.sources, trace.targets, record_series=True)
        assert ba.m == bb.m == m
        assert ba.total_routing == bb.total_routing
        assert ba.total_rotations == bb.total_rotations
        assert ba.total_links_changed == bb.total_links_changed
        assert np.array_equal(ba.routing_series, bb.routing_series)
        assert np.array_equal(ba.rotation_series, bb.rotation_series)
        fast.validate()

    def test_simulator_fast_path_matches_validated_loop(self):
        n, k, m = 24, 3, 200
        trace = uniform_trace(n, m, seed=9)
        for engine in ENGINES:
            fast = Simulator().run(KArySplayNet(n, k, engine=engine), trace)
            slow = Simulator(validate_every=50).run(
                KArySplayNet(n, k, engine=engine), trace
            )
            assert fast.total_routing == slow.total_routing
            assert fast.total_rotations == slow.total_rotations
            assert fast.total_links_changed == slow.total_links_changed


class TestCentroidEngineEquivalence:
    @pytest.mark.parametrize("k", [2, 3])
    def test_centroid_serve_equivalence(self, k):
        n, m = 40, 250
        trace = uniform_trace(n, m, seed=k)
        obj = CentroidSplayNet(n, k, engine="object")
        fast = CentroidSplayNet(n, k, engine=best_available_engine())
        for i, (u, v) in enumerate(trace.pairs()):
            ra, rb = obj.serve(u, v), fast.serve(u, v)
            assert result_tuple(ra) == result_tuple(rb), (k, i)
            assert obj.distance(u, v) == fast.distance(u, v)
        fast.validate()
        obj.validate()

    def test_centroid_serve_trace_matches_loop(self):
        n, k, m = 36, 2, 300
        trace = zipf_trace(n, m, 1.2, seed=3)
        loop = CentroidSplayNet(n, k, engine=best_available_engine())
        batched = CentroidSplayNet(n, k, engine=best_available_engine())
        totals = [0, 0, 0]
        for u, v in trace.pairs():
            r = loop.serve(u, v)
            totals[0] += r.routing_cost
            totals[1] += r.rotations
            totals[2] += r.links_changed
        batch = batched.serve_trace(trace.sources, trace.targets)
        assert (
            batch.total_routing,
            batch.total_rotations,
            batch.total_links_changed,
        ) == tuple(totals)
        batched.validate()


class TestStaticAndLazyBatched:
    def test_static_serve_trace_matches_scalar(self):
        from repro.core.builders import build_complete_tree

        n, m = 30, 200
        trace = uniform_trace(n, m, seed=4)
        net = StaticTreeNetwork(build_complete_tree(n, 3))
        scalar_total = sum(net.serve(u, v).routing_cost for u, v in trace.pairs())
        batch = net.serve_trace(trace.sources, trace.targets, record_series=True)
        assert batch.total_routing == scalar_total
        assert batch.total_rotations == 0
        assert int(batch.routing_series.sum()) == scalar_total

    @pytest.mark.parametrize("window", [None, 40])
    def test_lazy_serve_trace_matches_scalar(self, window):
        n, m = 16, 300
        trace = zipf_trace(n, m, 1.4, seed=7)
        scalar = LazyRebuildNetwork(n, 2, alpha=120.0, window=window)
        batched = LazyRebuildNetwork(n, 2, alpha=120.0, window=window)
        totals = [0, 0, 0]
        for u, v in trace.pairs():
            r = scalar.serve(u, v)
            totals[0] += r.routing_cost
            totals[1] += r.rotations
            totals[2] += r.links_changed
        batch = batched.serve_trace(trace.sources, trace.targets)
        assert (
            batch.total_routing,
            batch.total_rotations,
            batch.total_links_changed,
        ) == tuple(totals)
        assert scalar.rebuilds == batched.rebuilds
        assert np.array_equal(scalar._counts, batched._counts)
        assert scalar.tree.edge_set() == batched.tree.edge_set()


class TestReviewRegressions:
    @pytest.mark.skipif(
        not native_available(), reason="compiled serve kernel unavailable"
    )
    def test_serve_many_requires_both_series_buffers(self):
        flat = KArySplayNet(10, 2, engine="native").flat
        with pytest.raises(EngineError, match="together"):
            flat.serve_many([1, 2], [2, 3], routing_series=np.zeros(2, np.int64))

    def test_lazy_serve_trace_skips_self_pairs_like_serve(self):
        scalar = LazyRebuildNetwork(8, 2, alpha=50.0, window=10)
        batched = LazyRebuildNetwork(8, 2, alpha=50.0, window=10)
        us = [1, 3, 3, 5, 2, 2]
        vs = [2, 3, 4, 5, 7, 1]  # two self-pairs mixed in
        for u, v in zip(us, vs):
            scalar.serve(u, v)
        batched.serve_trace(np.array(us), np.array(vs))
        assert np.array_equal(scalar._counts, batched._counts)
        assert list(scalar._history) == list(batched._history)

    def test_potential_audit_works_on_best_available_engine(self):
        from repro.analysis.potential import audit_splaynet_accesses

        net = KArySplayNet(20, 3, engine=best_available_engine())
        audits = audit_splaynet_accesses(net, [5, 12, 5, 19])
        assert len(audits) == 4


class TestBestAvailableLongRun:
    def test_zipf_long_run_structural_integrity(self):
        n, k, m = 64, 4, 2_000
        trace = zipf_trace(n, m, 1.2, seed=11)
        obj, fast = make_pair(n, k)
        ba = obj.serve_trace(trace)
        bb = fast.serve_trace(trace)
        assert (ba.total_routing, ba.total_rotations, ba.total_links_changed) == (
            bb.total_routing,
            bb.total_rotations,
            bb.total_links_changed,
        )
        assert tree_signature(obj.tree) == signature(fast)
        fast.validate()
