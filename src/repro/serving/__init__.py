"""Sharded online serving: hash-routed worker farm over resident trees.

The :mod:`repro.net` session API serves one network in one process; this
package scales it out.  A :class:`ServeFarm` hash-partitions session keys
across worker processes (:class:`ShardRouter`), each worker owning its
shard's sessions — resident native trees where the compiled kernel is
available, the object engine otherwise — with batched dispatch, aggregate
incremental metrics, and journal-replay recovery of killed workers.

Self-healing rides on top (:mod:`repro.serving.health`): workers
heartbeat on a dedicated pipe, a supervisor thread tracks per-shard
:class:`HealthConfig`-driven state (healthy / suspect / down /
recovering) and proactively respawns a dead shard before any dispatch
fails; ``checkpoint_every=N`` bounds replay by warm-standby snapshots.
"""

from repro.serving.farm import FARM_FAULT_POINT, FarmMetrics, ServeFarm
from repro.serving.health import (
    DOWN,
    HEALTHY,
    RECOVERING,
    SUSPECT,
    HealthConfig,
    HealthMonitor,
)
from repro.serving.router import ShardRouter, shard_for_key

__all__ = [
    "FARM_FAULT_POINT",
    "FarmMetrics",
    "ServeFarm",
    "ShardRouter",
    "shard_for_key",
    "HealthConfig",
    "HealthMonitor",
    "HEALTHY",
    "SUSPECT",
    "DOWN",
    "RECOVERING",
]
