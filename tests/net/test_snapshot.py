"""Snapshot/restore: topology-identical checkpoints on both engines.

The session checkpoint contract: ``snapshot()`` then ``restore()``
reproduces (1) the exact topology, (2) the exact costs of any subsequent
request sequence, (3) identically on the ``object`` and ``native`` engines —
including mid-stream for the lazy-rebuild network, whose rebuild schedule
depends on accumulated state beyond the tree.  The randomized sweep is a
hypothesis property test (skipped, like the DP exactness test, when
hypothesis is unavailable).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import ENGINES
from repro.core.flat import FlatTree, tree_signature
from repro.net import build_network, open_session
from repro.workloads.synthetic import zipf_trace


def _topology_signature(network):
    """An engine-independent topology fingerprint of a (k-ary) network."""
    flat = getattr(network, "flat", None)
    if flat is not None:
        return flat.signature()
    return tree_signature(network.tree)


def _state_signature(state):
    """The same fingerprint of a checkpoint state (flat or object tree)."""
    if isinstance(state, FlatTree):
        return state.signature()
    return tree_signature(state)


def _request_block(n, m, seed):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(1, n + 1, size=m).tolist(),
        rng.integers(1, n + 1, size=m).tolist(),
    )


def _serve_costs(session, sources, targets):
    return [
        (result.routing_cost, result.rotations, result.links_changed)
        for result in (session.serve(u, v) for u, v in zip(sources, targets))
    ]


class TestKArySnapshotBothEngines:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("k", [2, 4])
    def test_restore_reproduces_topology_and_costs(self, engine, k):
        n = 64
        session = open_session("kary-splaynet", n=n, k=k, engine=engine)
        warmup = _request_block(n, 200, seed=1)
        session.serve_stream(*warmup)
        checkpoint = session.snapshot()
        reference_topology = _topology_signature(session.network)

        tail = _request_block(n, 150, seed=2)
        first_costs = _serve_costs(session, *tail)
        assert _topology_signature(session.network) != reference_topology

        session.restore(checkpoint)
        assert _topology_signature(session.network) == reference_topology
        session.validate()
        assert _serve_costs(session, *tail) == first_costs

    def test_snapshot_transfers_across_engines(self):
        """A mid-stream checkpoint taken on any engine restores on any
        other — all engines represent the identical topology."""
        n, k = 48, 3
        warmup = _request_block(n, 300, seed=3)
        tail = _request_block(n, 120, seed=4)

        checkpoints = {}
        costs = {}
        for engine in ENGINES:
            session = open_session("kary-splaynet", n=n, k=k, engine=engine)
            session.serve_stream(*warmup)
            checkpoints[engine] = session.snapshot()
            costs[engine] = _serve_costs(session, *tail)
        reference = costs[ENGINES[0]]
        assert all(c == reference for c in costs.values())

        for source_engine in ENGINES:
            for target_engine in ENGINES:
                if source_engine == target_engine:
                    continue
                session = open_session(
                    "kary-splaynet", n=n, k=k, engine=target_engine
                )
                session.restore(checkpoints[source_engine])
                assert (
                    _topology_signature(session.network)
                    == _topology_signature(
                        build_restored(n, k, checkpoints[source_engine])
                    )
                ), (source_engine, target_engine)
                assert _serve_costs(session, *tail) == reference, (
                    source_engine,
                    target_engine,
                )

    def test_restore_resets_metrics(self):
        session = open_session("kary-splaynet", n=16, k=2)
        session.serve(1, 9)
        checkpoint = session.snapshot()
        session.serve(2, 14)
        session.restore(checkpoint)
        assert session.metrics.requests == 1

    def test_snapshot_is_immutable_under_serving(self):
        for engine in ENGINES:
            session = open_session("kary-splaynet", n=32, k=3, engine=engine)
            session.serve_stream(*_request_block(32, 100, seed=5))
            checkpoint = session.snapshot()
            frozen_signature = _state_signature(checkpoint.state)
            session.serve_stream(*_request_block(32, 100, seed=6))
            assert _state_signature(checkpoint.state) == frozen_signature


def build_restored(n, k, checkpoint):
    net = build_network("kary-splaynet", n=n, k=k, engine="object")
    net.restore_state(checkpoint.state)
    return net


class TestOtherNetworksSnapshot:
    def test_centroid_both_engines(self):
        n, k = 40, 3
        tail = _request_block(n, 100, seed=8)
        for engine in ENGINES:
            session = open_session("centroid-splaynet", n=n, k=k, engine=engine)
            session.serve_stream(*_request_block(n, 200, seed=7))
            checkpoint = session.snapshot()
            costs = _serve_costs(session, *tail)
            session.restore(checkpoint)
            assert _serve_costs(session, *tail) == costs
            session.validate()

    def test_binary_splaynet(self):
        session = open_session("splaynet", n=32)
        session.serve_stream(*_request_block(32, 150, seed=9))
        checkpoint = session.snapshot()
        tail = _request_block(32, 80, seed=10)
        costs = _serve_costs(session, *tail)
        session.restore(checkpoint)
        assert _serve_costs(session, *tail) == costs

    def test_lazy_mid_stream(self):
        """Mid-stream restore of the lazy-rebuild network: the accumulated
        demand, window history and cost-toward-threshold all rewind, so
        the replay reproduces the identical rebuild schedule and costs."""
        n = 24
        session = open_session(
            "lazy", n=n, k=2, params={"alpha": 150.0, "window": 300}
        )
        trace = zipf_trace(n, 2_000, alpha=1.4, seed=11)
        # Stop mid-stream, between rebuilds.
        session.serve_stream(trace.sources[:900], trace.targets[:900])
        assert session.network.rebuilds > 0
        checkpoint = session.snapshot()
        rebuilds_at_checkpoint = session.network.rebuilds

        tail = (trace.sources[900:].tolist(), trace.targets[900:].tolist())
        first = _serve_costs(session, *tail)
        first_rebuilds = session.network.rebuilds

        session.restore(checkpoint)
        assert session.network.rebuilds == rebuilds_at_checkpoint
        assert _serve_costs(session, *tail) == first
        assert session.network.rebuilds == first_rebuilds

    def test_lazy_streamed_replay_after_restore(self):
        n = 24
        session = open_session("lazy", n=n, k=2, params={"alpha": 120.0})
        trace = zipf_trace(n, 1_500, alpha=1.4, seed=12)
        session.serve_stream(trace.sources[:700], trace.targets[:700])
        checkpoint = session.snapshot()
        tail_batch = session.serve_stream(trace.sources[700:], trace.targets[700:])
        session.restore(checkpoint)
        replay = session.serve_stream(trace.sources[700:], trace.targets[700:])
        assert replay.total_routing == tail_batch.total_routing
        assert replay.total_rotations == tail_batch.total_rotations
        assert replay.total_links_changed == tail_batch.total_links_changed

    def test_static_network_snapshot_trivial(self):
        session = open_session("full-tree", n=16, k=2)
        checkpoint = session.snapshot()
        session.serve(1, 16)
        session.restore(checkpoint)
        assert session.metrics.requests == 0

    def test_probabilistic_wrapper_rng_checkpointed(self):
        """Restoring a probabilistic policy replays identical coin flips."""
        session = open_session(
            "kary-splaynet", n=32, k=3,
            policies=[{"policy": "probabilistic", "params": {"q": 0.5, "seed": 2}}],
        )
        session.serve_stream(*_request_block(32, 200, seed=13))
        checkpoint = session.snapshot()
        tail = _request_block(32, 100, seed=14)
        first = _serve_costs(session, *tail)
        adjusted_first = session.network.adjusted
        session.restore(checkpoint)
        assert _serve_costs(session, *tail) == first
        assert session.network.adjusted == adjusted_first

    def test_unsupported_network_raises(self):
        from repro.errors import ExperimentError

        class Bare:
            n = 4

            def serve(self, u, v):
                from repro.network.protocols import ServeResult

                return ServeResult(1)

        session = open_session(network=Bare())
        with pytest.raises(ExperimentError, match="snapshot"):
            session.snapshot()


# ----------------------------------------------------------------------
# randomized property sweep (hypothesis, optional like the DP test)
# ----------------------------------------------------------------------
pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=2, max_value=5),
    split=st.integers(min_value=0, max_value=200),
)
def test_snapshot_restore_property(seed, k, split):
    """Property: for any request sequence and any checkpoint position, the
    restored session replays the tail at identical costs with identical
    final topology, and both engines (object and, where the kernel is
    available, native) agree on both."""
    n = 32
    rng = np.random.default_rng(seed)
    sources = rng.integers(1, n + 1, size=250).tolist()
    targets = rng.integers(1, n + 1, size=250).tolist()
    head = (sources[:split], targets[:split])
    tail = (sources[split:], targets[split:])

    outcomes = []
    for engine in ENGINES:
        session = open_session("kary-splaynet", n=n, k=k, engine=engine)
        session.serve_stream(*head)
        checkpoint = session.snapshot()
        costs = _serve_costs(session, *tail)
        final = _topology_signature(session.network)
        session.restore(checkpoint)
        assert _serve_costs(session, *tail) == costs
        assert _topology_signature(session.network) == final
        outcomes.append((costs, final))
    assert all(outcome == outcomes[0] for outcome in outcomes)
