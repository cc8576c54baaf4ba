"""The kernel's single-operation entries and rotation groups against the
object engine.

Four guarantees.  Per call, the native ``depth``/``lca``/``splay_until``/
``serve_semi``/``access`` equal the object engine on random trees for
every arity class and block policy (a hypothesis differential).  Per
request, a native serve equals the object engine's ``(routing, rotations,
links)`` on random trees of up to 300 nodes for k up to ``MAX_K``, and
the final layout matches byte for byte; single rotation steps hit the
k-semi-splay and both k-splay cases (``rk_semi`` and ``rk_splay`` build
each group's merged runs from the nested rows, so every case is pinned).
Bad input — an identifier outside ``1..n``, ``stop == x``, a ``stop``
that is not a proper ancestor of ``x``, an unknown policy — returns a
nonzero status and leaves the resident tree byte-identical.  And a native
``CentroidSplayNet`` serves a whole trace without copying its trees out
of the kernel once.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core import rotations
from repro.core.centroid_splaynet import CentroidSplayNet
from repro.core.engine import native_available
from repro.core.flat import tree_signature
from repro.core.keyspace import MAX_K
from repro.core.native import NativeTree
from repro.core.rotations import BLOCK_POLICIES, splay_step
from repro.core.splay import splay_until
from repro.core.splaynet import KArySplayNet
from repro.errors import EngineError, RotationError
from repro.workloads.synthetic import uniform_trace, zipf_trace

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

pytestmark = pytest.mark.skipif(
    not native_available(), reason="compiled serve kernel unavailable"
)

OPS = ("depth", "lca", "splay_until", "serve_semi", "access", "serve")
ARITIES = (2, 3, 4, 10, MAX_K)
CASES = ("semi", "splay-distant", "splay-close")


def _twins(n, k, policy, seed):
    return (
        KArySplayNet(n, k, initial="random", seed=seed, policy=policy,
                     engine="object"),
        KArySplayNet(n, k, initial="random", seed=seed, policy=policy,
                     engine="native"),
    )


def _ancestors(tree, x):
    node, chain = tree.node(x).parent, []
    while node is not None:
        chain.append(node.nid)
        node = node.parent
    return chain


def _raw_state(tree: NativeTree) -> bytes:
    """The handle's buffers, byte for byte (read without touching the lists)."""
    n, k = tree.n, tree.k
    buffers = (
        np.empty(1, dtype=np.int64),
        np.empty(n + 1, dtype=np.int64),
        np.empty(n + 1, dtype=np.int64),
        np.empty((n + 1, k), dtype=np.int64),
        np.empty((n + 1, k - 1), dtype=np.float64),
    )
    tree._lib.repro_tree_sync_out(tree._handle, *(b.ctypes.data for b in buffers))
    return b"".join(b.tobytes() for b in buffers)


@st.composite
def op_lists(draw):
    n = draw(st.integers(min_value=2, max_value=48))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(OPS),
                st.integers(min_value=1, max_value=n),
                st.integers(min_value=0, max_value=n),
            ),
            min_size=1,
            max_size=30,
        )
    )
    return n, seed, ops


class TestDifferentialAgainstObject:
    @pytest.mark.parametrize("policy", BLOCK_POLICIES)
    @pytest.mark.parametrize("k", [2, 3, 5, MAX_K])
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=op_lists())
    def test_every_call_matches_object(self, k, policy, case):
        n, seed, ops = case
        obj, nat = _twins(n, k, policy, seed)
        flat = nat.flat
        for op, x, y in ops:
            if op == "depth":
                assert nat.depth(x) == obj.depth(x)
            elif op == "lca":
                v = y or x
                node, du, dv = obj.tree.lca(x, v)
                assert flat.lca(x, v) == (node.nid, du, dv)
                assert nat.distance(x, v) == obj.distance(x, v)
            elif op == "splay_until":
                # y picks the stop: 0 (the root) or one of x's ancestors.
                chain = [0] + _ancestors(obj.tree, x)
                stop = chain[y % len(chain)]
                tree = obj.tree
                depth = tree.depth(x)
                rotations, links = splay_until(
                    tree,
                    tree.node(x),
                    tree.node(stop) if stop else None,
                    policy=policy,
                )
                assert flat.splay_until(x, stop, policy=policy) == (
                    depth, rotations, links
                )
            elif op == "serve_semi":
                assert nat.serve_semi(x, y or x) == obj.serve_semi(x, y or x)
            elif op == "access":
                assert nat.access(x) == obj.access(x)
            else:
                assert nat.serve(x, y or x) == obj.serve(x, y or x)
            assert flat.signature() == tree_signature(obj.tree)
        flat.validate()


def _requests(n, m, seed):
    """Uniform pairs mixed with pairs drawn from a small hot set, so that
    both long climbs and repeated (adjacent) requests occur."""
    rng = np.random.default_rng(seed)
    hot = rng.integers(1, n + 1, size=max(2, n // 16))
    sources = np.where(rng.random(m) < 0.5, rng.choice(hot, m),
                       rng.integers(1, n + 1, m))
    targets = np.where(rng.random(m) < 0.5, rng.choice(hot, m),
                       rng.integers(1, n + 1, m))
    return sources.tolist(), targets.tolist()


@pytest.fixture
def case_counts(monkeypatch):
    """Count the object engine's rotation groups by case."""
    counts: Counter = Counter()

    def counting(case, fn):
        def wrapped(*args, **kwargs):
            counts[case] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(rotations, "k_semi_splay",
                        counting("semi", rotations.k_semi_splay))
    monkeypatch.setattr(rotations, "_k_splay_distant",
                        counting("splay-distant", rotations._k_splay_distant))
    monkeypatch.setattr(rotations, "_k_splay_close",
                        counting("splay-close", rotations._k_splay_close))
    return counts


class TestServeDifferential:
    @pytest.mark.parametrize("policy", BLOCK_POLICIES)
    @pytest.mark.parametrize("k", ARITIES)
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.integers(min_value=2, max_value=300),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_every_request_matches_object(self, k, policy, n, seed):
        obj, nat = _twins(n, k, policy, seed)
        batched = _twins(n, k, policy, seed)[1]
        sources, targets = _requests(n, 200, seed)
        expected, links = [], 0
        for i, (u, v) in enumerate(zip(sources, targets)):
            want = obj.serve(u, v)
            assert nat.serve(u, v) == want, (n, seed, i, u, v)
            expected.append((want.routing_cost, want.rotations))
            links += want.links_changed
        batch = batched.serve_trace(sources, targets, record_series=True)
        assert list(zip(batch.routing_series.tolist(),
                        batch.rotation_series.tolist())) == expected
        assert batch.total_links_changed == links
        oracle = NativeTree.from_tree(obj.tree)
        assert _raw_state(nat.flat) == _raw_state(oracle)
        assert _raw_state(batched.flat) == _raw_state(oracle)
        nat.flat.validate()


class TestEachRotationCase:
    """One step at a time on a fixed-seed tree: every step's depth, link
    churn and resulting layout equal the object engine's, and each of the
    three rotation cases occurs."""

    @pytest.mark.parametrize("policy", BLOCK_POLICIES)
    @pytest.mark.parametrize("k", ARITIES)
    def test_single_steps_cover_every_case(self, k, policy, case_counts):
        n, seed = 300, 2024 + k
        obj, nat = _twins(n, k, policy, seed)
        tree, flat = obj.tree, nat.flat
        rng = np.random.default_rng(seed)
        for x in rng.integers(1, n + 1, size=400).tolist():
            node = tree.node(x)
            if node.parent is None:
                continue
            # A third of the steps stop below the grandparent: a
            # k-semi-splay inside the tree rather than at the root.
            grand = node.parent.parent
            stop = grand if grand is not None and rng.random() < 1 / 3 else None
            depth = tree.depth(x)
            outcome = splay_step(node, stop, policy=policy)
            if outcome.new_top.parent is None:
                tree.replace_root(outcome.new_top)
            assert flat.splay_until(
                x, stop.nid if stop else 0, policy=policy, max_rotations=1
            ) == (depth, 1, outcome.links_changed), x
            assert flat.signature() == tree_signature(tree), x
        assert all(case_counts[case] for case in CASES), dict(case_counts)


class TestKernelRefusesBadInput:
    """Each refused call returns nonzero and leaves the tree untouched."""

    def tree(self, n=20, k=3):
        nat = KArySplayNet(n, k, engine="native")
        nat.serve_trace(uniform_trace(n, 60, seed=3))  # a non-initial shape
        return nat.flat

    def status(self, tree, entry, *args):
        before = _raw_state(tree)
        out = np.zeros(3, dtype=np.int64)
        status = getattr(tree._lib, entry)(tree._handle, *args, out.ctypes.data)
        assert _raw_state(tree) == before
        return status

    @pytest.mark.parametrize("x", [0, -1, 21, 10**9])
    def test_splay_until_id_out_of_range(self, x):
        tree = self.tree()
        assert self.status(tree, "repro_tree_splay_until", x, 0, -1, 0) == 2

    def test_splay_until_stop_equal_to_x(self):
        tree = self.tree()
        for x in range(1, tree.n + 1):
            assert self.status(tree, "repro_tree_splay_until", x, x, -1, 0) == 3

    def test_splay_until_stop_not_a_proper_ancestor(self):
        tree = self.tree()
        tree._sync_lists()
        for x in range(1, tree.n + 1):
            ancestors = set()
            node = tree.parent[x]
            while node:
                ancestors.add(node)
                node = tree.parent[node]
            for stop in [-3, tree.n + 1, *range(1, tree.n + 1)]:
                if stop in ancestors:
                    continue
                assert (
                    self.status(tree, "repro_tree_splay_until", x, stop, -1, 0)
                    == 3
                ), (x, stop)

    def test_splay_until_unknown_policy(self):
        tree = self.tree()
        assert self.status(tree, "repro_tree_splay_until", 5, 0, -1, 3) == 1

    @pytest.mark.parametrize("u, v", [(0, 4), (4, 0), (21, 4), (4, -2)])
    def test_lca_id_out_of_range(self, u, v):
        tree = self.tree()
        assert self.status(tree, "repro_tree_lca", u, v) == 2

    def test_python_side_raises_and_keeps_the_tree(self):
        tree = self.tree()
        before = tree.signature()
        with pytest.raises(EngineError, match="1..20"):
            tree.splay_until(21, 0)
        with pytest.raises(EngineError, match="1..20"):
            tree.lca(0, 3)
        with pytest.raises(RotationError, match="ancestor"):
            tree.splay_until(4, 4)
        with pytest.raises(RotationError, match="policy"):
            tree.splay_until(4, 0, policy="middle")
        assert tree.signature() == before


class TestCentroidStaysInTheKernel:
    def test_native_centroid_serves_without_a_sync(self, monkeypatch):
        calls = []
        sync = NativeTree._sync_lists

        def counted(self):
            calls.append(self)
            return sync(self)

        n, k = 120, 2
        trace = zipf_trace(n, 1500, 1.1, seed=4)
        nat = CentroidSplayNet(n, k, engine="native")
        obj = CentroidSplayNet(n, k, engine="object")
        monkeypatch.setattr(NativeTree, "_sync_lists", counted)
        batch = nat.serve_trace(trace)
        for u, v in list(trace.pairs())[:200]:
            nat.serve(u, v)
            nat.distance(u, v)
        assert calls == []
        monkeypatch.undo()
        reference = obj.serve_trace(trace)
        for u, v in list(trace.pairs())[:200]:
            obj.serve(u, v)
        assert (
            batch.total_routing,
            batch.total_rotations,
            batch.total_links_changed,
        ) == (
            reference.total_routing,
            reference.total_rotations,
            reference.total_links_changed,
        )
        for u in range(1, n + 1):
            assert nat.distance(1, u) == obj.distance(1, u)
