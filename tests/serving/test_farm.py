"""Serve-farm behaviour: equivalence with clean sessions, metrics, API."""

from __future__ import annotations

import random

import pytest

from repro.core.engine import native_available
from repro.errors import ExperimentError
from repro.net import open_session
from repro.serving import FarmMetrics, ServeFarm


def keyed_requests(n: int, m: int, keys: int, seed: int = 0):
    rng = random.Random(seed)
    return [
        (
            f"key-{i % keys}",
            rng.randrange(1, n + 1),
            rng.randrange(1, n + 1),
        )
        for i in range(m)
    ]


def per_key_pairs(requests):
    split: dict = {}
    for key, u, v in requests:
        split.setdefault(key, []).append((u, v))
    return split


class TestFarmEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_matches_clean_single_process_sessions(self, shards):
        """Farm results are cell-for-cell the clean per-key session runs,
        at every shard count — sharding must never change an outcome."""
        n, k = 48, 3
        requests = keyed_requests(n, 400, keys=5, seed=shards)
        with ServeFarm(
            "kary-splaynet", n=n, k=k, shards=shards, window=64
        ) as farm:
            batch = farm.serve_stream(requests)
            farm_metrics = farm.session_metrics()
        clean_metrics = {}
        for key, pairs in per_key_pairs(requests).items():
            session = open_session("kary-splaynet", n=n, k=k)
            session.serve_stream(pairs)
            clean_metrics[key] = session.metrics.to_dict()
        assert farm_metrics == clean_metrics
        assert batch.m == 400
        assert batch.total_routing == sum(
            m["total_routing"] for m in clean_metrics.values()
        )

    def test_aggregate_metrics_track_dispatches(self):
        n = 32
        requests = keyed_requests(n, 150, keys=4, seed=9)
        with ServeFarm("kary-splaynet", n=n, k=2, shards=2, window=50) as farm:
            batch = farm.serve_stream(requests)
            metrics = farm.metrics
            assert metrics.requests == batch.m == 150
            assert metrics.total_routing == batch.total_routing
            assert metrics.total_rotations == batch.total_rotations
            assert metrics.total_links_changed == batch.total_links_changed
            assert metrics.average_routing == pytest.approx(
                batch.total_routing / 150
            )
            # Latency and busy accounting advanced with the stream.
            assert metrics.latency.total == 150
            assert metrics.latency_p99 >= metrics.latency_p50 > 0.0
            assert metrics.critical_path_seconds >= 0.0
            assert sum(metrics.busy_seconds.values()) >= 0.0
            # The deterministic to_dict view excludes timing.
            assert metrics.to_dict() == {
                "requests": 150,
                "total_routing": batch.total_routing,
                "total_rotations": batch.total_rotations,
                "total_links_changed": batch.total_links_changed,
            }

    def test_scalar_and_batch_serving(self):
        with ServeFarm("kary-splaynet", n=16, k=2, shards=2) as farm:
            farm.serve("a", 1, 9)
            result = farm.serve_batch("b", [2, 3], [10, 11])
            assert result.m == 2
            assert farm.metrics.requests == 3
            per_key = farm.session_metrics()
            assert per_key["a"]["requests"] == 1
            assert per_key["b"]["requests"] == 2


class TestFarmEngines:
    def test_workers_use_native_when_available_else_object(self):
        """The farm defaults to resident native trees; without the kernel
        (REPRO_NATIVE=0 / no toolchain) every worker degrades to object."""
        expected = "native" if native_available() else "object"
        with ServeFarm("kary-splaynet", n=16, k=2, shards=2) as farm:
            farm.serve("a", 1, 9)
            farm.serve("b", 2, 10)
            engines = set()
            for status in farm.status():
                assert status["native_available"] == native_available()
                engines.update(status["sessions"].values())
        assert engines == {expected}

    def test_explicit_spec_engine_is_respected(self):
        with ServeFarm(
            "kary-splaynet", n=16, k=2, engine="object", shards=1
        ) as farm:
            farm.serve("a", 1, 9)
            [status] = farm.status()
            assert set(status["sessions"].values()) == {"object"}


class TestFarmApi:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ExperimentError):
            ServeFarm("kary-splaynet", n=8, shards=0)
        with pytest.raises(ExperimentError):
            ServeFarm("kary-splaynet", n=8, window=0)
        with pytest.raises(ExperimentError):
            ServeFarm("kary-splaynet", n=8, max_respawns=-1)
        with ServeFarm("kary-splaynet", n=8, shards=1) as farm:
            with pytest.raises(ExperimentError):
                farm.serve_batch("a", [1, 2], [3])
            with pytest.raises(ExperimentError):
                farm.serve_stream([("a", 1, 2)], window=0)

    def test_closed_farm_refuses_work(self):
        farm = ServeFarm("kary-splaynet", n=8, shards=1)
        farm.serve("a", 1, 5)
        farm.close()
        farm.close()  # idempotent
        with pytest.raises(ExperimentError):
            farm.serve("a", 1, 5)
        with pytest.raises(ExperimentError):
            farm.status()

    def test_worker_errors_surface_in_parent(self):
        from repro.errors import ReliabilityError

        with ServeFarm("kary-splaynet", n=8, shards=1) as farm:
            with pytest.raises(ReliabilityError):
                farm.serve("a", 1, 99)  # out of range in the worker

    def test_farm_metrics_dataclass_defaults(self):
        metrics = FarmMetrics()
        assert metrics.requests == 0
        assert metrics.average_routing == 0.0
        assert metrics.critical_path_seconds == 0.0
        metrics.record_batch(0, 10, 30, 5, 2, 0.01, 0.008)
        assert metrics.requests == 10
        assert metrics.busy_seconds == {0: pytest.approx(0.008)}
        assert metrics.windows == 1


class TestStartupLeak:
    def test_partial_spawn_failure_leaks_no_workers(self, monkeypatch):
        """When a later worker fails to spawn, the constructor must tear
        down the workers it already started instead of leaking them —
        the regression where shard 0's process outlived the failed
        ``ServeFarm(...)`` call with nobody holding a handle to it."""
        real = ServeFarm._start_worker
        spawned = []

        def flaky(self, shard):
            if shard == 1:
                raise RuntimeError("spawn budget exhausted")
            real(self, shard)
            spawned.append((self._procs[shard], self._conns[shard]))

        monkeypatch.setattr(ServeFarm, "_start_worker", flaky)
        with pytest.raises(RuntimeError, match="spawn budget"):
            ServeFarm("kary-splaynet", n=8, shards=2)
        assert spawned, "shard 0 never started — the test proved nothing"
        [(proc, conn)] = spawned
        proc.join(timeout=10.0)
        assert not proc.is_alive(), "shard 0 worker leaked past __init__"
        assert conn.closed

    def test_failed_constructor_farm_is_closed(self, monkeypatch):
        def always_fail(self, shard):
            raise OSError("cannot fork")

        monkeypatch.setattr(ServeFarm, "_start_worker", always_fail)
        with pytest.raises(OSError, match="fork"):
            ServeFarm("kary-splaynet", n=8, shards=1)


class TestServeGrouped:
    """The ingress gateway's dispatch primitive: one round trip per
    coalesced list, exact per-entry totals."""

    def test_per_batch_results_match_individual_calls(self):
        n, k = 32, 2
        rng = random.Random(3)
        pairs = [
            (rng.randrange(1, n + 1), rng.randrange(1, n + 1))
            for _ in range(30)
        ]
        with ServeFarm("kary-splaynet", n=n, k=k, shards=2) as farm:
            key = "grouped-key"
            shard = farm.router.shard_of(key)
            batches = [
                (key, [u for u, _ in pairs], [v for _, v in pairs]),
            ]
            [grouped] = farm.serve_grouped(shard, batches)
            windows_after = farm.metrics.windows
        session = open_session("kary-splaynet", n=n, k=k)
        clean = session.serve_stream(pairs)
        assert grouped.m == clean.m
        assert grouped.total_routing == clean.total_routing
        assert grouped.total_rotations == clean.total_rotations
        assert grouped.total_links_changed == clean.total_links_changed
        assert windows_after == 1  # the whole list cost one round trip

    def test_multiple_keys_one_round_trip_with_per_key_totals(self):
        n = 16
        with ServeFarm("kary-splaynet", n=n, k=2, shards=1) as farm:
            batches = [
                ("a", [1, 2], [9, 10]),
                ("b", [3], [11]),
                ("a", [4], [12]),  # same key again: served in order
            ]
            results = farm.serve_grouped(0, batches)
            assert [r.m for r in results] == [2, 1, 1]
            assert farm.metrics.windows == 1
            assert farm.metrics.requests == 4

    def test_wrong_shard_key_is_rejected(self):
        with ServeFarm("kary-splaynet", n=8, shards=2) as farm:
            key = "some-key"
            wrong = 1 - farm.router.shard_of(key)
            with pytest.raises(ExperimentError, match="routes to shard"):
                farm.serve_grouped(wrong, [(key, [1], [2])])

    def test_mismatched_lengths_and_empty_list(self):
        with ServeFarm("kary-splaynet", n=8, shards=1) as farm:
            with pytest.raises(ExperimentError, match="equal length"):
                farm.serve_grouped(0, [("a", [1, 2], [3])])
            assert farm.serve_grouped(0, []) == []
            assert farm.metrics.windows == 0


def _clean_entry_totals(entries, n, k):
    """Per-entry totals of clean sessions fed each key's entries in order."""
    sessions: dict = {}
    totals = []
    for key, sources, targets in entries:
        session = sessions.get(key)
        if session is None:
            session = sessions[key] = open_session("kary-splaynet", n=n, k=k)
        batch = session.serve_stream(list(sources), list(targets))
        totals.append(
            (
                batch.m,
                batch.total_routing,
                batch.total_rotations,
                batch.total_links_changed,
            )
        )
    return totals


class TestPackedDispatch:
    """Lists and arrays alike go through one packer into int64 arrays."""

    def test_mixed_list_and_array_entries_match_clean_sessions(self):
        import numpy as np

        from repro.ingress import protocol

        n, k = 64, 3
        rng = random.Random(11)

        def ids(m):
            return [rng.randrange(1, n + 1) for _ in range(m)]

        wire = protocol.decode_request(
            protocol.split_frames(
                protocol.encode_request(
                    protocol.OP_SERVE_BATCH, 1, key="a",
                    sources=ids(256), targets=ids(256),
                )
            )[0][0]
        )
        entries = [
            ("a", ids(256), ids(256)),
            ("b", np.array(ids(1)), np.array(ids(1), dtype=np.int32)),
            ("a", [], []),
            ("c", np.array(ids(256), dtype=np.uint32), ids(256)),
            ("b", ids(1), np.array(ids(1), dtype=np.uint16)),
            ("a", np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)),
            ("a", wire.sources, wire.targets),  # read-only >u4 views
            ("c", np.array(ids(1), dtype=np.int8), ids(1)),
        ]
        with ServeFarm("kary-splaynet", n=n, k=k, shards=1) as farm:
            results = farm.serve_grouped(0, entries)
            assert farm.metrics.windows == 1
            metrics = farm.session_metrics()
        got = [
            (r.m, r.total_routing, r.total_rotations, r.total_links_changed)
            for r in results
        ]
        assert got == _clean_entry_totals(entries, n, k)
        assert [r.m for r in results] == [256, 1, 0, 256, 1, 0, 256, 1]
        assert sum(m["requests"] for m in metrics.values()) == 771

    @pytest.mark.parametrize(
        "bad",
        [
            [1.9, 2.2],
            [True, False],
            [object(), 2],
            [2**70, 2],
            ["1", "2"],
            "float64",
            "bool",
            "object",
            "uint64",
        ],
    )
    def test_non_integer_ids_are_rejected_not_truncated(self, bad):
        import numpy as np

        if isinstance(bad, str):
            bad = np.array([1, 2]).astype(bad)
            if bad.dtype == np.float64:
                bad = bad + 0.9
        # serve_stream sees single elements, not arrays: an object or
        # uint64 array's elements are exact integers and pass there.
        stream_rejects = not (
            isinstance(bad, np.ndarray) and bad.dtype.kind in "Ou"
        )
        good = [5, 9]
        with ServeFarm("kary-splaynet", n=16, k=2, shards=1) as farm:
            for sources, targets in ((bad, good), (good, bad)):
                with pytest.raises(ExperimentError, match="integers"):
                    farm.serve_grouped(0, [("a", sources, targets)])
                with pytest.raises(ExperimentError, match="integers"):
                    farm.serve_grouped(
                        0, [("b", [1], [2]), ("a", sources, targets)]
                    )
                with pytest.raises(ExperimentError, match="integers"):
                    farm.serve_batch("a", sources, targets)
                if stream_rejects:
                    with pytest.raises(ExperimentError, match="integers"):
                        farm.serve_stream(
                            [("b", 1, 2)]
                            + [("a", u, v) for u, v in zip(sources, targets)]
                        )
            assert farm.metrics.requests == 0
            assert farm.session_metrics() == {}

    def test_non_flat_ids_are_rejected(self):
        with ServeFarm("kary-splaynet", n=16, k=2, shards=1) as farm:
            with pytest.raises(ExperimentError, match="1-D"):
                farm.serve_grouped(0, [("a", [[1, 2]], [[3, 4]])])
            assert farm.metrics.requests == 0


class TestRejectedDispatch:
    """A dispatch holding an unservable pair serves nothing at all."""

    def test_rejected_dispatch_leaves_sessions_and_journal_unchanged(self):
        from repro.errors import RejectedRequestError, ReliabilityError

        with ServeFarm("kary-splaynet", n=32, k=2, shards=1) as farm:
            farm.serve_grouped(0, [("a", [4], [30])])
            metrics = farm.session_metrics()
            requests = farm.metrics.requests
            with pytest.raises(RejectedRequestError, match="1..32") as info:
                farm.serve_grouped(
                    0,
                    [
                        ("a", [1, 3], [20, 17]),
                        ("b", [1], [99]),
                        ("c", [5], [5]),
                        ("a", [0], [2]),
                    ],
                )
            assert info.value.entries == (1, 3)
            assert isinstance(info.value, ReliabilityError)
            with pytest.raises(RejectedRequestError):
                farm.serve_batch("a", [1, 2], [3, 33])
            with pytest.raises(RejectedRequestError):
                farm.serve_stream([("a", 1, 2), ("c", 3, 99)])
            assert farm.session_metrics() == metrics
            assert farm.metrics.requests == requests
            journal = farm._journal[0]
            assert set(journal) == {"a"}
            assert journal["a"].size == 1 and journal["a"].ends == [1]
            # An out-of-range self-pair is servable (cost 0), as ever.
            result = farm.serve_grouped(0, [("a", [99], [99])])[0]
            assert (result.m, result.total_routing) == (1, 0)

    def test_checkpoint_split_runs_answer_every_entry(self):
        """Key runs split at the snapshot cadence still answer per entry."""
        n, k = 32, 3
        rng = random.Random(11)
        entries = []
        for _ in range(12):
            m = rng.choice((0, 1, 2, 5))
            entries.append(
                (
                    rng.choice("ab"),
                    [rng.randrange(1, n + 1) for _ in range(m)],
                    [rng.randrange(1, n + 1) for _ in range(m)],
                )
            )
        with ServeFarm(
            "kary-splaynet", n=n, k=k, shards=1, checkpoint_every=4
        ) as farm:
            results = farm.serve_grouped(0, entries)
            covered = {key: e.base for key, e in farm._journal[0].items()}
        got = [
            (r.m, r.total_routing, r.total_rotations, r.total_links_changed)
            for r in results
        ]
        assert got == _clean_entry_totals(entries, n, k)
        # Snapshots land where entry-by-entry serving would cut them.
        for key, base in covered.items():
            since, cuts = 0, [0]
            done = 0
            for entry_key, sources, _ in entries:
                if entry_key != key:
                    continue
                since += len(sources)
                done += len(sources)
                if since >= 4:
                    cuts.append(done)
                    since = 0
            assert base == cuts[-1]


class TestPackedJournal:
    """The replay journal: one packed buffer per key, exact pruning."""

    def test_journal_holds_exactly_the_acknowledged_pairs(self):
        n = 32
        rng = random.Random(5)
        sent: dict = {}
        with ServeFarm("kary-splaynet", n=n, k=2, shards=1) as farm:
            for _ in range(6):
                entries = []
                for _ in range(rng.randrange(1, 6)):
                    key = rng.choice("abc")
                    m = rng.choice((0, 1, 3, 300))
                    pairs = [
                        (rng.randrange(1, n + 1), rng.randrange(1, n + 1))
                        for _ in range(m)
                    ]
                    entries.append(
                        (key, [u for u, _ in pairs], [v for _, v in pairs])
                    )
                    sent.setdefault(key, []).extend(pairs)
                farm.serve_grouped(0, entries)
            journal = farm._journal[0]
            for key, pairs in sent.items():
                if not pairs:
                    continue
                entry = journal[key]
                assert entry.base == 0
                assert entry.size == len(pairs)
                assert entry.sources[: entry.size].tolist() == [
                    u for u, _ in pairs
                ]
                assert entry.targets[: entry.size].tolist() == [
                    v for _, v in pairs
                ]
                assert entry.ends[-1] == len(pairs)
            assert farm.metrics.requests == sum(map(len, sent.values()))

    def test_snapshot_prune_keeps_exactly_the_uncovered_suffix(self):
        sources = [1 + (i % 31) for i in range(15)]
        targets = [1 + ((i * 7) % 31) for i in range(15)]
        with ServeFarm(
            "kary-splaynet", n=32, k=2, shards=1, checkpoint_every=10
        ) as farm:
            # Batches of 4, 4, 4, 3: the worker snapshots after the third
            # (12 >= 10 served), so only the last batch stays journaled.
            farm.serve_grouped(
                0,
                [
                    ("a", sources[i : i + 4], targets[i : i + 4])
                    for i in range(0, 15, 4)
                ],
            )
            entry = farm._journal[0]["a"]
            assert "a" in farm._snapshots[0]
            assert entry.base == 12
            assert entry.size == 3
            assert entry.sources[: entry.size].tolist() == sources[12:]
            assert entry.targets[: entry.size].tolist() == targets[12:]
            assert entry.ends == [15]

    def test_prune_only_at_a_batch_end(self):
        from repro.serving.farm import _PairJournal

        journal = _PairJournal()
        journal.append([1, 2, 3], [4, 5, 6], [2, 1])
        journal.append([7, 8], [9, 10], [2])
        assert journal.ends == [2, 3, 5]
        assert not journal.prune(4)  # inside the last batch: keep all
        assert journal.size == 5 and journal.base == 0
        assert journal.prune(3)
        assert journal.base == 3 and journal.ends == [5]
        assert journal.sources[: journal.size].tolist() == [7, 8]
        assert journal.targets[: journal.size].tolist() == [9, 10]
        assert not journal.prune(3)  # already covered
        assert journal.prune(5)
        assert journal.size == 0 and journal.ends == []
