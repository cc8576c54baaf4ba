"""Shard routing: stable hashing and window splitting."""

from __future__ import annotations

import zlib

import pytest

from repro.errors import ExperimentError
from repro.serving import ShardRouter, shard_for_key


class TestShardForKey:
    def test_deterministic_and_in_range(self):
        for shards in (1, 2, 3, 7):
            for key in ("a", "user-42", "", 17, ("tuple", 1)):
                shard = shard_for_key(key, shards)
                assert 0 <= shard < shards
                assert shard == shard_for_key(key, shards)

    def test_crc32_of_utf8_text_not_builtin_hash(self):
        """The routing hash must be process-stable (PYTHONHASHSEED-proof)."""
        assert shard_for_key("user-7", 5) == zlib.crc32(b"user-7") % 5
        assert shard_for_key(123, 5) == zlib.crc32(b"123") % 5

    def test_bytes_keys_hash_raw(self):
        assert shard_for_key(b"user-7", 5) == zlib.crc32(b"user-7") % 5

    def test_single_shard_owns_everything(self):
        assert all(shard_for_key(f"k{i}", 1) == 0 for i in range(20))

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ExperimentError):
            shard_for_key("x", 0)
        with pytest.raises(ExperimentError):
            ShardRouter(-1)


class TestSplit:
    def test_groups_per_key_in_arrival_order(self):
        router = ShardRouter(2)
        window = [("a", 1, 2), ("b", 3, 4), ("a", 5, 6), ("b", 7, 8)]
        grouped = router.split(window)
        flat = {
            key: (sources, targets)
            for batches in grouped.values()
            for key, sources, targets in batches
        }
        assert flat == {"a": ([1, 5], [2, 6]), "b": ([3, 7], [4, 8])}

    def test_batches_land_on_their_owning_shard(self):
        router = ShardRouter(3)
        window = [(f"key-{i}", i, i + 1) for i in range(30)]
        grouped = router.split(window)
        for shard, batches in grouped.items():
            for key, _, _ in batches:
                assert router.shard_of(key) == shard

    def test_empty_window(self):
        assert ShardRouter(4).split([]) == {}

    def test_endpoints_coerced_to_int(self):
        grouped = ShardRouter(1).split([("a", "3", 4.0)])
        [(_, sources, targets)] = grouped[0]
        assert sources == [3] and targets == [4]
        assert all(type(x) is int for x in sources + targets)

    def test_group_keeps_endpoints_as_given(self):
        # The farm groups with group(): its packer, not the router,
        # decides that a float id is an error rather than truncating it.
        router = ShardRouter(2)
        window = [("a", 1, 2.5), ("b", 3, 4), ("a", True, "x")]
        grouped = router.group(window)
        flat = {
            key: (sources, targets)
            for batches in grouped.values()
            for key, sources, targets in batches
        }
        assert flat == {"a": ([1, True], [2.5, "x"]), "b": ([3], [4])}
        assert type(flat["a"][0][1]) is bool
        assert router.split([(k, u, v) for k, u, v in window[:2]]) == (
            router.group([("a", 1, 2), ("b", 3, 4)])
        )
