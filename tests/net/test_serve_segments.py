"""``Session.serve_segments``: one call, many segments, per-segment rows.

The contract is an equivalence: serving segments in one call must leave a
session exactly where calling ``serve_stream`` once per segment leaves a
twin session — the same rows, metrics, recorded series, auto-checkpoint
and topology.  On the native engine the whole call is one kernel call
over a segmented batch (``repro_tree_serve_batch`` with segment ends);
every other configuration goes through the per-segment loop.  The
kernel-level checks pin that bad segment ends never reach the C entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.builders import build_complete_tree
from repro.core.engine import native_available
from repro.core.flat import FlatTree
from repro.core.keyspace import MAX_K
from repro.core.native import NativeTree
from repro.core.splaynet import KArySplayNet
from repro.errors import EngineError, ExperimentError
from repro.net import open_session

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

needs_kernel = pytest.mark.skipif(
    not native_available(), reason="compiled serve kernel unavailable"
)

N = 24


def _signature(session):
    """Engine-neutral topology signature (object trees included).

    Networks without a single tree (the centroid SplayNet's forest of
    subnets) are compared by their full distance matrix.
    """
    network = session.network
    if hasattr(network, "tree"):
        return FlatTree.from_tree(network.tree).signature()
    nodes = range(1, N + 1)
    return [network.distance(u, v) for u in nodes for v in nodes]


def _flatten(segments):
    sources = np.array([u for seg in segments for u, _ in seg], dtype=np.int64)
    targets = np.array([v for seg in segments for _, v in seg], dtype=np.int64)
    return sources, targets, [len(seg) for seg in segments]


def _row(batch):
    return (
        batch.m,
        batch.total_routing,
        batch.total_rotations,
        batch.total_links_changed,
    )


class _Recorder:
    """Stands in for the kernel library and records each entry used."""

    def __init__(self, lib):
        self.lib = lib
        self.calls: list[str] = []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.lib, name)


pairs = st.tuples(st.integers(1, N), st.integers(1, N))
# Zero-length segments and self-pairs (u == v) included by construction.
segment_lists = st.lists(st.lists(pairs, max_size=6), max_size=8)


def _assert_twins(spec, segments, *, checkpoint_every=None, record=False):
    session = open_session(
        spec, checkpoint_every=checkpoint_every, record_series=record
    )
    twin = open_session(
        spec, checkpoint_every=checkpoint_every, record_series=record
    )
    # A warm-up call first, so the segmented call starts mid-session.
    session.serve_segments([3], [17], [1])
    twin.serve_stream([3], [17])
    sources, targets, counts = _flatten(segments)
    rows = session.serve_segments(sources, targets, counts)
    expected = []
    start = 0
    for count in counts:
        end = start + count
        batch = twin.serve_stream(sources[start:end], targets[start:end])
        expected.append(_row(batch))
        start = end
    assert rows == expected
    assert session.metrics.to_dict() == twin.metrics.to_dict()
    assert session.metrics.latency.total == twin.metrics.latency.total
    assert session.metrics.routing_series == twin.metrics.routing_series
    assert session.metrics.rotation_series == twin.metrics.rotation_series
    assert _signature(session) == _signature(twin)
    if checkpoint_every is not None:
        mine, theirs = session.last_checkpoint, twin.last_checkpoint
        assert (mine is None) == (theirs is None)
        if mine is not None:
            assert mine.metrics.to_dict() == theirs.metrics.to_dict()
        assert session._since_checkpoint == twin._since_checkpoint
    return session


class TestSegmentsEqualPerSegmentStreams:
    @pytest.mark.parametrize("engine", ["native", "object"])
    @pytest.mark.parametrize("k", [2, 3, MAX_K])
    @settings(max_examples=25, deadline=None)
    @given(segments=segment_lists, record=st.booleans())
    def test_engines_and_arities(self, engine, k, segments, record):
        spec = {"algorithm": "kary-splaynet", "n": N, "k": k, "engine": engine}
        _assert_twins(spec, segments, record=record)

    @pytest.mark.parametrize("engine", ["native", "object"])
    @settings(max_examples=25, deadline=None)
    @given(segments=segment_lists, every=st.integers(1, 7))
    def test_checkpoint_cadence(self, engine, segments, every):
        spec = {"algorithm": "kary-splaynet", "n": N, "k": 3, "engine": engine}
        _assert_twins(spec, segments, checkpoint_every=every)

    @settings(max_examples=15, deadline=None)
    @given(segments=segment_lists)
    def test_deep_splay_and_other_networks_fall_back(self, segments):
        for spec in (
            {
                "algorithm": "kary-splaynet",
                "n": N,
                "k": 3,
                "engine": "native",
                "params": {"splay_depth": 3},
            },
            {"algorithm": "centroid-splaynet", "n": N, "k": 3},
        ):
            session = _assert_twins(spec, segments)
            assert not getattr(session.network, "serves_segments", False)


class TestServeSegmentsApi:
    @needs_kernel
    def test_native_session_serves_segments_natively(self):
        session = open_session("kary-splaynet", n=N, k=3, engine="native")
        assert session.network.serves_segments
        assert not open_session(
            "kary-splaynet", n=N, k=3, engine="object"
        ).network.serves_segments

    @needs_kernel
    def test_native_session_makes_one_kernel_call(self, monkeypatch):
        session = open_session("kary-splaynet", n=N, k=3, engine="native")
        session.serve_segments([3], [17], [1])  # loads the handle
        flat = session.network.flat
        flat._lib = recorder = _Recorder(flat._lib)

        def per_segment(*args, **kwargs):
            raise AssertionError("the native path must not loop serve_stream")

        monkeypatch.setattr(session, "serve_stream", per_segment)
        rows = session.serve_segments([1, 2, 3, 4], [9, 9, 9, 9], [1, 0, 2, 1])
        assert [row[0] for row in rows] == [1, 0, 2, 1]
        assert recorder.calls.count("repro_tree_serve_batch") == 1

    def test_empty_call_serves_nothing(self):
        session = open_session("kary-splaynet", n=N, k=3)
        assert session.serve_segments([], [], []) == []
        assert session.metrics.requests == 0

    @pytest.mark.parametrize(
        "sources, targets, counts",
        [
            ([1, 2], [3], [2]),  # unequal sides
            ([1, 2], [3, 4], [1]),  # counts short of the pairs
            ([1, 2], [3, 4], [3, -1]),  # negative count
            ([1, 2], [3, 4], [1.0, 1.0]),  # float counts
        ],
    )
    def test_bad_shapes_rejected(self, sources, targets, counts):
        session = open_session("kary-splaynet", n=N, k=3)
        with pytest.raises(ExperimentError):
            session.serve_segments(sources, targets, counts)
        assert session.metrics.requests == 0


class TestNodeIdsAreIntegers:
    """Float ids raise ExperimentError on every engine and entry point."""

    @pytest.mark.parametrize("engine", ["native", "object"])
    def test_float_ids_rejected_everywhere(self, engine):
        session = open_session("kary-splaynet", n=N, k=3, engine=engine)
        before = _signature(session)
        floats = (np.array([1.9, 2.2]), np.array([5.7, 9.1]))
        with pytest.raises(ExperimentError, match="integers"):
            session.serve(1.9, 5.7)
        with pytest.raises(ExperimentError, match="integers"):
            session.serve(True, 5)
        with pytest.raises(ExperimentError, match="integers"):
            session.serve_stream(*floats)
        with pytest.raises(ExperimentError, match="integers"):
            session.serve_stream([1.9, 2.2], [5, 9])
        with pytest.raises(ExperimentError, match="integers"):
            session.serve_stream([(1.9, 5.7), (2.2, 9.1)])
        with pytest.raises(ExperimentError, match="integers"):
            session.serve_stream(np.array([[1.9, 5.7], [2.2, 9.1]]))
        with pytest.raises(ExperimentError, match="integers"):
            session.serve_segments(*floats, [1, 1])
        assert session.metrics.requests == 0
        assert _signature(session) == before

    @pytest.mark.parametrize("engine", ["native", "object"])
    def test_integer_kinds_still_accepted(self, engine):
        session = open_session("kary-splaynet", n=N, k=3, engine=engine)
        session.serve(np.int32(2), 7)
        session.serve_stream(np.array([1, 2], dtype=np.uint16), [5, 9])
        session.serve_stream([(np.int64(1), 4)])
        assert session.metrics.requests == 4


@needs_kernel
class TestKernelSegmentChecks:
    """Bad segment ends are refused before the C call, never inside it."""

    def _resident_tree(self):
        tree = NativeTree.from_tree(build_complete_tree(N, 3))
        tree.serve_many([1], [20])  # allocate and load the handle
        recorder = _Recorder(tree._lib)
        tree._lib = recorder
        return tree, recorder

    @pytest.mark.parametrize(
        "ends",
        [
            np.empty(0, dtype=np.int64),  # nseg = 0
            np.array([2, 1, 3], dtype=np.int64),  # decreasing
            np.array([1, 2], dtype=np.int64),  # does not end at m
            np.array([-1, 3], dtype=np.int64),  # negative start
            np.array([1.0, 3.0]),  # not int64
            [1, 3],  # not an array
        ],
    )
    def test_bad_ends_never_reach_the_kernel(self, ends):
        tree, recorder = self._resident_tree()
        before = tree.signature()
        with pytest.raises(EngineError, match="segment"):
            tree.serve_many([1, 2, 3], [9, 8, 7], ends=ends)
        assert "repro_tree_serve_batch" not in recorder.calls
        assert tree.signature() == before

    def test_segment_rows_match_separate_calls(self):
        tree, _ = self._resident_tree()
        twin = NativeTree.from_flat(tree)
        sources = np.array([1, 5, 5, 9, 2, 24], dtype=np.int64)
        targets = np.array([12, 1, 5, 4, 17, 3], dtype=np.int64)
        ends = np.array([2, 2, 3, 6], dtype=np.int64)
        rows = tree.serve_many(sources, targets, ends=ends)
        expected = []
        start = 0
        for end in ends:
            expected.append(
                twin.serve_many(sources[start:end], targets[start:end])
            )
            start = end
        assert rows.tolist() == [list(row) for row in expected]
        assert tree.signature() == twin.signature()

    def test_out_of_range_pair_in_a_later_segment_serves_nothing(self):
        """The kernel checks every pair of the call before serving any."""
        tree, _ = self._resident_tree()
        before = tree.signature()
        with pytest.raises(EngineError, match=f"1..{N}"):
            tree.serve_many(
                [1, 2, 3],
                [9, 8, N + 1],
                ends=np.array([2, 3], dtype=np.int64),
            )
        assert tree.signature() == before

    def test_kernel_refuses_decreasing_ends_itself(self):
        """Defence in depth: the C entry also refuses bad offsets."""
        import ctypes

        tree, _ = self._resident_tree()
        before = tree.signature()
        handle = tree._handle
        sources = np.array([1, 2], dtype=np.int64)
        targets = np.array([9, 8], dtype=np.int64)
        ends = np.array([2, 1], dtype=np.int64)
        totals = np.zeros((2, 3), dtype=np.int64)
        status = tree._lib.repro_tree_serve_batch(
            handle,
            sources.ctypes.data,
            targets.ctypes.data,
            ends.ctypes.data,
            ctypes.c_int64(2),
            ctypes.c_int64(0),
            None,
            None,
            totals.ctypes.data,
        )
        assert status == 1
        assert tree.signature() == before

    def test_segments_need_the_kernel(self):
        """A deep splay runs on the object engine: no segmented batches."""
        net = KArySplayNet(N, 3, engine="native", splay_depth=3)
        with pytest.raises(EngineError, match="segmented"):
            net.serve_trace([1], [9], ends=np.array([1], dtype=np.int64))

