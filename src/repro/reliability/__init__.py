"""Fault tolerance: injection harness, retry policy, recovery plumbing.

The serving story of a self-adjusting network is resilience — the
topology absorbs whatever the workload does to it.  This package gives
the *infrastructure* the same property:

* :mod:`repro.reliability.faults` — deterministic, replayable fault
  injection (worker crashes, torn sink writes, corrupted kernel caches,
  corrupted snapshots) behind named points and the ``REPRO_FAULTS``
  environment hook, so every recovery path below is pinned by tests that
  *cause* the failure;
* :mod:`repro.reliability.retry` — the one bounded-retry /
  exponential-backoff policy (optionally with seeded bounded jitter),
  shared by the pool and ingress paths;
* :mod:`repro.reliability.chaos` — the chaos soak harness
  (``repro chaos``): seeded multi-round fault storms against a live
  ``repro serve`` process under concurrent client load, gated on hard
  end-state invariants (totals equal a clean run, no dropped admitted
  request, every shard healthy at drain);
* pool hardening lives in :mod:`repro.parallel.pool` (per-task timeouts,
  retry, ``BrokenProcessPool`` respawn-and-resubmit), campaign resume in
  :mod:`repro.scenarios.core` (``run_specs(resume=True)``), and session
  auto-checkpointing in :mod:`repro.net.session`
  (``checkpoint_every`` / ``recover()`` / ``audit()``).

Errors: :class:`~repro.errors.ReliabilityError` (recovery impossible or
corruption detected) and its subclass :class:`~repro.errors.FaultInjected`
(raised only by the harness, never organically).
"""

from repro.errors import FaultInjected, ReliabilityError
from repro.reliability.chaos import ChaosConfig, run_chaos
from repro.reliability.faults import (
    FAULTS_ENV,
    FaultPlan,
    FaultSpec,
    active_fault_plan,
    clear_fault_plan,
    fire_fault,
    inject_faults,
    install_fault_plan,
)
from repro.reliability.retry import RetryPolicy, backoff_delays, call_with_retries

__all__ = [
    "FAULTS_ENV",
    "ChaosConfig",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "ReliabilityError",
    "RetryPolicy",
    "active_fault_plan",
    "backoff_delays",
    "call_with_retries",
    "clear_fault_plan",
    "fire_fault",
    "inject_faults",
    "install_fault_plan",
    "run_chaos",
]
