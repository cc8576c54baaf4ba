"""Online serving sessions: per-request, streamed, metrics, batched paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import best_available_engine
from repro.errors import ExperimentError
from repro.net import NetworkSpec, Session, build_network, open_session
from repro.workloads.synthetic import uniform_trace, zipf_trace


#: The array engine where the kernel builds, else object.
BEST = best_available_engine()


def _zipf(n=1024, m=20_000, seed=0):
    return zipf_trace(n, m, alpha=1.2, seed=seed)


class TestOpenSession:
    def test_from_name(self):
        session = open_session("kary-splaynet", n=32, k=3)
        assert session.n == 32
        assert session.spec == NetworkSpec("kary-splaynet", n=32, k=3)

    def test_from_spec(self):
        spec = NetworkSpec("lazy", n=16, params={"alpha": 200.0})
        session = open_session(spec)
        assert session.network.alpha == 200.0

    def test_from_prebuilt_network(self):
        net = build_network("kary-splaynet", n=16, k=2)
        session = open_session(network=net)
        assert session.network is net
        assert session.spec is None

    def test_network_and_spec_conflict(self):
        net = build_network("kary-splaynet", n=16, k=2)
        with pytest.raises(ExperimentError):
            open_session("kary-splaynet", network=net, n=16)

    def test_rejects_non_network(self):
        with pytest.raises(ExperimentError):
            Session(object())

    def test_context_manager(self):
        with open_session("kary-splaynet", n=8) as session:
            session.serve(1, 5)
        assert session.metrics.requests == 1


class TestServeMetrics:
    def test_serve_accumulates(self):
        session = open_session("kary-splaynet", n=16, k=2)
        first = session.serve(2, 13)
        second = session.serve(2, 13)
        metrics = session.metrics
        assert metrics.requests == 2
        assert metrics.total_routing == first.routing_cost + second.routing_cost
        assert metrics.total_rotations == first.rotations + second.rotations
        assert second.routing_cost == 1  # endpoints splayed adjacent

    def test_average_routing(self):
        session = open_session("kary-splaynet", n=16, k=2)
        session.serve(1, 16)
        assert session.metrics.average_routing == session.metrics.total_routing

    def test_record_series(self):
        trace = _zipf(n=64, m=500)
        session = open_session("kary-splaynet", n=64, k=3, record_series=True)
        session.serve_stream(trace, chunk=100)
        routing, rotations = session.metrics.series_arrays()
        assert len(routing) == 500
        assert routing.sum() == session.metrics.total_routing
        assert rotations.sum() == session.metrics.total_rotations


class TestServeStream:
    def test_matches_serve_trace_totals_exactly(self):
        """Acceptance: chunked streaming == one-shot serve_trace on the
        Zipf n=1024 / k=4 reference workload, on both engines."""
        trace = _zipf()
        for engine in ("object", BEST):
            reference = build_network(
                "kary-splaynet", n=trace.n, k=4, engine=engine
            ).serve_trace(trace.sources, trace.targets)
            session = open_session(
                "kary-splaynet", n=trace.n, k=4, engine=engine
            )
            streamed = session.serve_stream(trace, chunk=1024)
            assert streamed.m == reference.m
            assert streamed.total_routing == reference.total_routing
            assert streamed.total_rotations == reference.total_rotations
            assert streamed.total_links_changed == reference.total_links_changed
            assert session.metrics.total_routing == reference.total_routing

    def test_pair_iterable_matches_arrays(self):
        trace = _zipf(n=128, m=2_000)
        by_arrays = open_session("kary-splaynet", n=128, k=3)
        by_pairs = open_session("kary-splaynet", n=128, k=3)
        a = by_arrays.serve_stream(trace.sources, trace.targets, chunk=256)
        pair_generator = ((int(u), int(v)) for u, v in zip(trace.sources, trace.targets))
        b = by_pairs.serve_stream(pair_generator, chunk=256)
        assert (a.total_routing, a.total_rotations) == (
            b.total_routing, b.total_rotations,
        )

    def test_chunk_size_invariant(self):
        trace = _zipf(n=64, m=1_500)
        totals = []
        for chunk in (1, 7, 256, 10_000):
            session = open_session("kary-splaynet", n=64, k=3)
            batch = session.serve_stream(trace, chunk=chunk)
            totals.append((batch.total_routing, batch.total_rotations))
        assert len(set(totals)) == 1

    def test_incremental_streams_accumulate(self):
        trace = _zipf(n=64, m=1_000)
        whole = open_session("kary-splaynet", n=64, k=3)
        whole.serve_stream(trace)
        split = open_session("kary-splaynet", n=64, k=3)
        split.serve_stream(trace.sources[:400], trace.targets[:400])
        split.serve_stream(trace.sources[400:], trace.targets[400:])
        assert split.metrics.to_dict() == whole.metrics.to_dict()

    def test_serve_then_stream_mix(self):
        session = open_session("kary-splaynet", n=32, k=2)
        session.serve(1, 20)
        session.serve_stream([(2, 9), (9, 2), (1, 20)])
        assert session.metrics.requests == 4

    def test_stream_matches_per_request_serve(self):
        trace = _zipf(n=64, m=800)
        streamed = open_session("kary-splaynet", n=64, k=3, engine=BEST)
        streamed.serve_stream(trace, chunk=128)
        scalar = open_session("kary-splaynet", n=64, k=3, engine=BEST)
        for u, v in zip(trace.sources.tolist(), trace.targets.tolist()):
            scalar.serve(u, v)
        assert scalar.metrics.to_dict() == streamed.metrics.to_dict()

    def test_bad_chunk(self):
        session = open_session("kary-splaynet", n=8)
        with pytest.raises(ExperimentError):
            session.serve_stream([(1, 2)], chunk=0)

    def test_mismatched_arrays(self):
        session = open_session("kary-splaynet", n=8)
        with pytest.raises(ExperimentError):
            session.serve_stream(np.array([1, 2]), np.array([3]))

    def test_network_without_serve_trace_falls_back(self):
        class Scalar:
            n = 8

            def serve(self, u, v):
                from repro.network.protocols import ServeResult

                return ServeResult(2 if u != v else 0, 1, 0)

        session = open_session(network=Scalar())
        batch = session.serve_stream([(1, 2), (3, 3), (4, 5)])
        assert batch.total_routing == 4
        assert batch.total_rotations == 3


class TestWrappedSessionsTakeBatchedPath:
    def test_thresholded_session_uses_serve_trace(self):
        """Acceptance: a wrapped (ThresholdedNetwork) session drives the
        batched path, not the per-request fallback."""
        trace = _zipf(n=128, m=1_000)
        net = build_network(
            "kary-splaynet", n=128, k=4,
            policies=[{"policy": "thresholded", "params": {"threshold": 2}}],
        )
        calls = []
        original = net.serve_trace

        def spying_serve_trace(sources, targets=None, **kwargs):
            calls.append(len(sources))
            return original(sources, targets, **kwargs)

        net.serve_trace = spying_serve_trace
        session = open_session(network=net)
        batch = session.serve_stream(trace, chunk=250)
        assert calls == [250, 250, 250, 250]
        assert batch.total_routing > 0
        assert net.served == 1_000

    def test_thresholded_simulator_fast_path(self):
        """Simulator.run consumes the wrapper's serve_trace (no per-request
        ServeResult loop) and reproduces the per-request totals."""
        from repro.network.simulator import Simulator

        trace = _zipf(n=128, m=2_000)
        batched_net = build_network(
            "kary-splaynet", n=128, k=4,
            policies=[{"policy": "thresholded", "params": {"threshold": 2}}],
        )
        assert hasattr(batched_net, "serve_trace")
        batched = Simulator().run(batched_net, trace)
        scalar_net = build_network(
            "kary-splaynet", n=128, k=4,
            policies=[{"policy": "thresholded", "params": {"threshold": 2}}],
        )
        total = [scalar_net.serve(int(u), int(v)) for u, v in trace.pairs()]
        assert batched.total_routing == sum(r.routing_cost for r in total)
        assert batched.total_rotations == sum(r.rotations for r in total)


class TestLatencyStats:
    def test_percentiles_from_histogram(self):
        from repro.net import LatencyStats

        stats = LatencyStats()
        assert stats.total == 0
        assert stats.p50 == 0.0 and stats.p99 == 0.0
        for _ in range(90):
            stats.record(1e-6)
        for _ in range(10):
            stats.record(1e-3)
        assert stats.total == 100
        # Bucketed percentiles: right order of magnitude, monotone.
        assert 5e-7 < stats.p50 < 5e-6
        assert 2e-4 < stats.p99 < 5e-3
        assert stats.p50 <= stats.p99

    def test_merge_is_exact_and_copy_independent(self):
        from repro.net import LatencyStats

        a, b, combined = LatencyStats(), LatencyStats(), LatencyStats()
        for i in range(1, 50):
            seconds = i * 3.7e-6
            (a if i % 2 else b).record(seconds)
            combined.record(seconds)
        merged = a.copy()
        merged.merge(b)
        assert merged.to_dict() == combined.to_dict()
        assert a.total == 25  # the copy did not alias a

    def test_weighted_record_counts(self):
        from repro.net import LatencyStats

        stats = LatencyStats()
        stats.record(2e-6, 500)
        assert stats.total == 500
        assert stats.p50 == stats.p99

    def test_bad_quantile_rejected(self):
        from repro.net import LatencyStats

        stats = LatencyStats()
        stats.record(1e-6)
        with pytest.raises(ExperimentError):
            stats.percentile(1.5)
        with pytest.raises(ExperimentError):
            stats.percentile(-0.1)


class TestSessionLatency:
    def test_scalar_serve_records_latency(self):
        session = open_session("kary-splaynet", n=16, k=2, engine=BEST)
        for _ in range(10):
            session.serve(1, 9)
        assert session.metrics.latency.total == 10
        assert session.metrics.latency_p99 >= session.metrics.latency_p50 > 0

    def test_stream_records_per_request_latency(self):
        session = open_session("kary-splaynet", n=32, k=3, engine=BEST)
        trace = uniform_trace(32, 200, seed=3)
        session.serve_stream(trace, chunk=50)
        assert session.metrics.latency.total == 200
        assert session.metrics.latency_p50 > 0

    def test_latency_excluded_from_deterministic_view(self):
        """to_dict is compared cell-for-cell across differently-timed
        runs (reliability suites), so timing must stay out of it."""
        session = open_session("kary-splaynet", n=16, k=2, engine=BEST)
        session.serve(1, 9)
        assert "latency" not in session.metrics.to_dict()
        copied = session.metrics.copy()
        assert copied.latency.total == 1
        copied.latency.record(1.0)
        assert session.metrics.latency.total == 1  # copy did not alias


class TestAutoChunk:
    def test_default_chunk_is_auto_sized(self):
        from repro.net.session import DEFAULT_CHUNK

        session = open_session("kary-splaynet", n=16, k=2, engine=BEST)
        assert session._auto_chunk() == DEFAULT_CHUNK
        capped = open_session(
            "kary-splaynet", n=16, k=2, engine=BEST, checkpoint_every=100
        )
        assert capped._auto_chunk() == 100

    def test_auto_chunk_honours_checkpoint_cadence(self):
        session = open_session(
            "kary-splaynet", n=32, k=2, engine=BEST, checkpoint_every=25
        )
        trace = uniform_trace(32, 100, seed=7)
        session.serve_stream(trace)  # chunk=None -> auto
        # Four auto-checkpoints were cut, one per 25 requests.
        assert session.metrics.requests == 100
        assert session.last_checkpoint is not None

    def test_explicit_bad_chunk_still_rejected(self):
        session = open_session("kary-splaynet", n=16, k=2, engine=BEST)
        with pytest.raises(ExperimentError):
            session.serve_stream([(1, 2)], chunk=0)
