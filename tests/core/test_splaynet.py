"""Tests for KArySplayNet — the paper's Section 4.1 online network."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.entropy import entropy_bound
from repro.core.builders import build_balanced_tree, build_complete_tree
from repro.core.flat import tree_signature
from repro.core.splaynet import KArySplayNet
from repro.errors import InvalidTreeError, RotationError
from repro.network.simulator import Simulator, simulate
from repro.workloads.synthetic import sequential_trace, uniform_trace, zipf_trace

GRID = [(2, 2), (3, 2), (10, 3), (31, 4), (64, 8)]


class TestConstruction:
    def test_initial_topologies(self):
        for initial in ("complete", "balanced", "random"):
            net = KArySplayNet(20, 3, initial=initial, seed=1)
            net.validate()
            assert net.n == 20 and net.k == 3

    def test_explicit_tree_adopted(self):
        tree = build_balanced_tree(20, 3)
        # Identity (not just topology equality) is an object-engine
        # property: the array-backed engines snapshot the tree instead.
        net = KArySplayNet(initial=tree, engine="object")
        assert net.tree is tree
        adopted = KArySplayNet(initial=tree, engine="native")
        assert tree_signature(adopted.tree) == tree_signature(tree)

    def test_n_conflict_rejected(self):
        tree = build_balanced_tree(20, 3)
        with pytest.raises(InvalidTreeError):
            KArySplayNet(21, 3, initial=tree)

    def test_routing_based_tree_rejected(self):
        tree = build_balanced_tree(10, 2)
        tree.routing_based = True
        with pytest.raises(InvalidTreeError, match="routing-based"):
            KArySplayNet(initial=tree)

    def test_unknown_initial_rejected(self):
        with pytest.raises(InvalidTreeError):
            KArySplayNet(10, 2, initial="fancy")

    def test_missing_n_rejected(self):
        with pytest.raises(InvalidTreeError):
            KArySplayNet(k=3)

    def test_bad_policy_rejected(self):
        with pytest.raises(RotationError):
            KArySplayNet(10, 2, policy="nope")


class TestServeSemantics:
    @pytest.mark.parametrize("n,k", GRID)
    def test_endpoints_adjacent_after_serve(self, n, k, rng):
        net = KArySplayNet(n, k)
        for _ in range(100):
            u = int(rng.integers(1, n + 1))
            v = int(rng.integers(1, n + 1))
            if u == v:
                continue
            net.serve(u, v)
            assert net.distance(u, v) == 1

    def test_self_request_is_free(self):
        net = KArySplayNet(10, 2)
        res = net.serve(4, 4)
        assert res.routing_cost == 0 and res.rotations == 0

    def test_repeated_request_costs_one(self):
        net = KArySplayNet(50, 3)
        net.serve(7, 31)
        for _ in range(5):
            res = net.serve(7, 31)
            assert res.routing_cost == 1
            assert res.rotations == 0

    def test_routing_cost_is_pre_adjustment_distance(self, rng):
        net = KArySplayNet(40, 3)
        for _ in range(50):
            u = int(rng.integers(1, 41))
            v = int(rng.integers(1, 41))
            if u == v:
                continue
            before = net.distance(u, v)
            res = net.serve(u, v)
            assert res.routing_cost == before

    def test_ancestor_descendant_requests(self):
        net = KArySplayNet(31, 2)
        root = net.tree.root_id
        leaf = next(
            node.nid for node in net.tree.iter_nodes() if node.is_leaf
        )
        res = net.serve(root, leaf)
        assert net.distance(root, leaf) == 1
        assert res.routing_cost >= 1
        res = net.serve(leaf, root)
        assert res.routing_cost == 1

    def test_rotations_reported_when_tree_changes(self):
        net = KArySplayNet(63, 2)
        far_pair = (1, 63)
        res = net.serve(*far_pair)
        assert res.rotations > 0
        assert res.links_changed > 0

    @pytest.mark.parametrize("n,k", GRID)
    def test_tree_stays_valid_over_long_runs(self, n, k):
        net = KArySplayNet(n, k)
        trace = uniform_trace(n, 300, seed=n * k) if n > 2 else sequential_trace(n, 300)
        Simulator(validate_every=50).run(net, trace)


class TestCostTrends:
    def test_cost_decreases_with_k_on_uniform(self):
        trace = uniform_trace(128, 4000, seed=3)
        costs = {}
        for k in (2, 4, 8):
            costs[k] = simulate(KArySplayNet(128, k), trace).total_routing
        assert costs[2] > costs[4] > costs[8]

    def test_locality_is_exploited(self):
        """A sequential scan (high locality) is far cheaper than uniform."""
        n, m = 64, 4000
        seq = simulate(KArySplayNet(n, 3), sequential_trace(n, m))
        uni = simulate(KArySplayNet(n, 3), uniform_trace(n, m, seed=1))
        assert seq.total_routing < 0.6 * uni.total_routing

    def test_entropy_bound_theorem13(self):
        """Total cost stays within a small constant of the Thm 13 bound."""
        n, m = 100, 5000
        for trace in (
            uniform_trace(n, m, seed=5),
            zipf_trace(n, m, 1.4, seed=5),
        ):
            result = simulate(KArySplayNet(n, 3), trace)
            bound = entropy_bound(trace)
            # Constant-factor check: generous envelope, fixed seeds.
            assert result.total_routing <= 3.0 * bound + 2 * m

    def test_block_policies_all_work(self):
        trace = uniform_trace(40, 500, seed=9)
        for policy in ("center", "left", "right"):
            net = KArySplayNet(40, 4, policy=policy)
            simulate(net, trace)
            net.validate()
