"""Session auto-checkpointing: cadence, recovery, audit-on-restore."""

from __future__ import annotations

import pytest

from repro.core.engine import ENGINES, best_available_engine
from repro.errors import ExperimentError, ReliabilityError
from repro.net import open_session
from repro.reliability.faults import FaultPlan, FaultSpec, inject_faults
from repro.workloads.synthetic import uniform_trace


def _session(engine: str = best_available_engine(), every=None, **kwargs):
    return open_session(
        "kary-splaynet",
        n=32,
        k=3,
        engine=engine,
        checkpoint_every=every,
        **kwargs,
    )


class TestCadence:
    def test_no_checkpointing_by_default(self):
        session = _session()
        session.serve_stream(uniform_trace(32, 50, seed=1))
        assert session.last_checkpoint is None
        with pytest.raises(ReliabilityError, match="no auto-checkpoint"):
            session.recover()

    def test_checkpoint_every_validation(self):
        with pytest.raises(ExperimentError, match="checkpoint_every"):
            _session(every=0)

    def test_stream_cuts_checkpoints_at_chunk_granularity(self):
        session = _session(every=10)
        trace = uniform_trace(32, 47, seed=2)
        session.serve_stream(trace, chunk=10)
        checkpoint = session.last_checkpoint
        assert checkpoint is not None
        # Chunks of 10 over 47 requests: the last checkpoint covers 40.
        assert checkpoint.metrics.requests == 40
        assert session.metrics.requests == 47
        assert session._since_checkpoint == 7

    def test_single_serves_count_toward_checkpoints(self):
        session = _session(every=3)
        pairs = [(1, 2), (3, 4), (5, 6), (7, 8)]
        for u, v in pairs:
            session.serve(u, v)
        assert session.last_checkpoint is not None
        assert session.last_checkpoint.metrics.requests == 3

    def test_checkpoint_metrics_cover_the_checkpointed_chunk(self):
        session = _session(every=5)
        session.serve_stream(uniform_trace(32, 5, seed=3), chunk=5)
        checkpoint = session.last_checkpoint
        assert checkpoint.metrics.requests == 5
        assert checkpoint.metrics.total_routing == session.metrics.total_routing


class TestRecover:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_recover_rewinds_and_replay_matches_straight_run(self, engine):
        trace = uniform_trace(32, 60, seed=4)
        straight = _session(engine)
        straight.serve_stream(trace)
        expected = straight.metrics.to_dict()

        crashy = _session(engine, every=20)
        crashy.serve_stream(
            (
                (int(trace.sources[i]), int(trace.targets[i]))
                for i in range(40)
            ),
            chunk=20,
        )
        # "Crash": serve junk past the checkpoint, then rewind to it.
        crashy.serve(9, 10)
        crashy.serve(11, 12)
        recovered = crashy.recover()
        assert recovered.metrics.requests == 40
        assert crashy.metrics.requests == 40
        # Replay the tail; totals must match the uninterrupted run.
        crashy.serve_stream(
            (
                (int(trace.sources[i]), int(trace.targets[i]))
                for i in range(40, 60)
            )
        )
        assert crashy.metrics.to_dict() == expected

    def test_recover_returns_the_snapshot_recovered_to(self):
        session = _session(every=4)
        session.serve_stream(uniform_trace(32, 8, seed=5), chunk=4)
        assert session.recover() is session.last_checkpoint

    def test_restore_resets_the_checkpoint_counter(self):
        session = _session(every=10)
        session.serve_stream(uniform_trace(32, 17, seed=6), chunk=10)
        assert session._since_checkpoint == 7
        session.recover()
        assert session._since_checkpoint == 0


class TestAudit:
    def test_audit_passes_on_a_healthy_session(self):
        for engine in ("object", "native"):
            session = _session(engine)
            session.serve_stream(uniform_trace(32, 30, seed=7))
            session.audit()  # must not raise

    def test_audit_detects_a_corrupted_snapshot_on_restore(self):
        """The ``session.snapshot`` corrupt fault must never serve silently."""
        session = _session(every=5)
        plan = FaultPlan(
            specs=(FaultSpec("session.snapshot", mode="corrupt", at=(1,)),)
        )
        with inject_faults(plan):
            snapshot = session.snapshot()  # corrupted in flight
        with pytest.raises(ReliabilityError, match="audit"):
            session.restore(snapshot)

    def test_corrupted_auto_checkpoint_is_caught_by_recover(self):
        session = _session(every=5)
        plan = FaultPlan(
            specs=(FaultSpec("session.snapshot", mode="corrupt", at=(1,)),)
        )
        with inject_faults(plan):
            session.serve_stream(uniform_trace(32, 5, seed=8), chunk=5)
        with pytest.raises(ReliabilityError, match="audit"):
            session.recover()

    def test_snapshot_error_mode_fails_the_snapshot(self):
        from repro.errors import FaultInjected

        session = _session()
        plan = FaultPlan(specs=(FaultSpec("session.snapshot", at=(1,)),))
        with inject_faults(plan):
            with pytest.raises(FaultInjected):
                session.snapshot()

    def test_audit_flags_mismatched_series_length(self):
        session = _session(record_series=True)
        session.serve_stream(uniform_trace(32, 10, seed=9))
        session.metrics.routing_series.append(0)  # tamper
        with pytest.raises(ReliabilityError, match="series length"):
            session.audit()

    def test_audit_flags_negative_totals(self):
        session = _session()
        session.serve_stream(uniform_trace(32, 10, seed=10))
        session.metrics.total_routing = -1  # tamper
        with pytest.raises(ReliabilityError, match="negative metrics"):
            session.audit()
