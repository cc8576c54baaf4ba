"""Deterministic routing of session keys to serve-farm shards.

The farm partitions its keyspace by stable hash — CRC-32 of the key's
UTF-8 text, *not* Python's per-process randomized ``hash()`` — so the
same key lands on the same shard in every process, every run, and every
respawned worker (the replay-based recovery of
:class:`~repro.serving.farm.ServeFarm` depends on exactly this).
"""

from __future__ import annotations

import zlib
from typing import Any, Iterable

from repro.errors import ExperimentError

__all__ = ["ShardRouter", "shard_for_key"]


def shard_for_key(key: Any, shards: int) -> int:
    """The shard index in ``[0, shards)`` owning ``key`` (stable hash)."""
    if shards < 1:
        raise ExperimentError(f"shards must be >= 1, got {shards}")
    data = key if isinstance(key, bytes) else str(key).encode("utf-8")
    return zlib.crc32(data) % shards


class ShardRouter:
    """Hash-partitions session keys (and request windows) across shards."""

    __slots__ = ("shards",)

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ExperimentError(f"shards must be >= 1, got {shards}")
        self.shards = shards

    def shard_of(self, key: Any) -> int:
        return shard_for_key(key, self.shards)

    def split(
        self, requests: Iterable[tuple[Any, Any, Any]]
    ) -> dict[int, list[tuple[Any, list[int], list[int]]]]:
        """Group a ``(key, u, v)`` window into per-shard key batches.

        Returns ``{shard: [(key, sources, targets), ...]}``.  Within a
        window all requests of one key collapse into a single batch in
        arrival order — keys are independent sessions, so cross-key
        reordering inside a window cannot change any per-key outcome,
        while the batching maximizes each worker's kernel batch size.
        Endpoints are coerced with ``int()``.
        """
        return self.group((key, int(u), int(v)) for key, u, v in requests)

    def group(
        self, requests: Iterable[tuple[Any, Any, Any]]
    ) -> dict[int, list[tuple[Any, list, list]]]:
        """:meth:`split` with the endpoints kept exactly as given.

        The serve farm groups with this, so its packer can reject a
        non-integer node id instead of truncating it.
        """
        by_key: dict[Any, tuple[list, list]] = {}
        for key, u, v in requests:
            entry = by_key.get(key)
            if entry is None:
                entry = ([], [])
                by_key[key] = entry
            entry[0].append(u)
            entry[1].append(v)
        grouped: dict[int, list[tuple[Any, list, list]]] = {}
        for key, (sources, targets) in by_key.items():
            grouped.setdefault(self.shard_of(key), []).append(
                (key, sources, targets)
            )
        return grouped
