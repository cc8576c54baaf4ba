"""Tree-engine selection for the self-adjusting networks.

The library ships two interchangeable backends for the k-ary search tree
hot loop:

* ``"object"`` — the pointer-linked :class:`~repro.core.node.KAryNode`
  graph.  Every node is a Python object; rotations rewire attributes.  This
  backend is the reference implementation: it carries the paranoid
  per-rotation invariant checks used by the test suite, is the natural
  representation for structural inspection, rendering and export, and is
  the fallback wherever the kernel cannot serve.
* ``"native"`` — the compiled C kernel behind :mod:`repro.core.native`:
  the tree lives in the flat structure-of-arrays layout of
  :mod:`repro.core.flat`, resident in a kernel handle, and every serve,
  query and rotation runs in ``src/repro/core/_native/kernel.c`` (built on
  demand with the local C toolchain).

Both backends are kept *structurally equivalent*: on the same request
sequence they produce identical topologies and identical cost totals
(enforced by ``tests/test_native_engine.py`` and the tests/core and
tests/net sweeps).

The engine is fixed when a network is built, by :func:`resolve_engine`,
which sends three cases to ``"object"``:

* ``"native"`` without the kernel (``REPRO_NATIVE=0`` or no C toolchain;
  a one-time ``RuntimeWarning`` says so);
* a deep splay (``splay_depth != 2``), which only the object engine runs;
* the legacy name ``"flat"`` (the pure-Python array engine that earlier
  versions shipped), still read from stored specs but not offered by the
  CLI.

A native tree loads its kernel handle when it is built and keeps the
library loaded, so a kernel that becomes unavailable later in the
process does not affect networks already built.

Networks accept an ``engine=`` keyword (threaded through
:class:`~repro.core.splaynet.KArySplayNet` and
:class:`~repro.core.centroid_splaynet.CentroidSplayNet`); ``None`` falls
back to the process-wide default, which is ``"object"`` unless overridden
by the ``REPRO_ENGINE`` environment variable or
:func:`set_default_engine`.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional

import numpy as np

from repro.errors import EngineError

__all__ = [
    "ENGINES",
    "best_available_engine",
    "check_engine_name",
    "default_engine",
    "native_available",
    "set_default_engine",
    "resolve_engine",
    "as_request_lists",
    "as_request_arrays",
    "batch_serve",
    "check_request_ids",
]

#: The available tree-engine backends.
ENGINES = ("object", "native")

#: Engine names still accepted that resolve to another engine.  ``"flat"``
#: has two readers left: the benchmark's ``prefix_matches_flat`` oracle
#: (``perfbench/bench_serve.py``), and network/scenario specs and result
#: cache keys written while the pure-Python array engine existed.
_ALIASES = {"flat": "object"}

_default_engine = os.environ.get("REPRO_ENGINE", "object")

_native_fallback_warned = False


def check_engine_name(name: Optional[str], error=EngineError) -> None:
    """Raise ``error`` unless ``name`` is ``None``, an engine or an alias.

    The one check behind every ``engine=`` field (network, task, scenario
    and benchmark specs), so an accepted name is accepted everywhere.
    """
    if name is not None and name not in ENGINES and name not in _ALIASES:
        raise error(f"unknown engine {name!r}; choose from {ENGINES}")


def native_available() -> bool:
    """Whether the compiled serve kernel can be used in this process.

    True once :mod:`repro.core._native` has compiled (or loaded a cached)
    shared library; False when ``REPRO_NATIVE=0`` or no C toolchain is
    present (the failure reason is in ``repro.core._native.build_error()``).
    """
    from repro.core import _native

    return _native.available()


def best_available_engine() -> str:
    """The fastest tree engine usable in this process.

    ``"native"`` when the compiled kernel is available, else ``"object"``.
    The examples and benchmarks route their default engine choice through
    here so they automatically pick up the kernel where it exists.
    """
    return "native" if native_available() else "object"


def _warn_native_unavailable() -> None:
    global _native_fallback_warned
    if _native_fallback_warned:
        return
    _native_fallback_warned = True
    from repro.core import _native

    warnings.warn(
        "engine='native' requested but the compiled serve kernel is"
        f" unavailable ({_native.build_error()}); falling back to the"
        " pure-Python 'object' engine",
        RuntimeWarning,
        stacklevel=3,
    )


def default_engine() -> str:
    """The process-wide default engine (``REPRO_ENGINE`` or ``"object"``).

    Validated lazily (not at import time) so a misconfigured environment
    variable surfaces as a catchable :class:`EngineError` at the call site
    instead of breaking ``import repro``.
    """
    check_engine_name(_default_engine)
    return _default_engine


def set_default_engine(name: str) -> None:
    """Set the process-wide default engine for networks built afterwards."""
    global _default_engine
    check_engine_name(name)
    _default_engine = name


def resolve_engine(name: Optional[str], *, splay_depth: int = 2) -> str:
    """The engine a network asked for ``name`` is built on.

    ``None`` means the default.  ``"flat"`` resolves to ``"object"``, and
    so does ``"native"`` for a deep splay (``splay_depth != 2``) or
    without the compiled kernel (with a ``RuntimeWarning``, once per
    process).  The result is always one of :data:`ENGINES`.
    """
    if name is None:
        name = default_engine()
    check_engine_name(name)
    name = _ALIASES.get(name, name)
    if name == "native":
        if splay_depth != 2:
            return "object"
        if not native_available():
            _warn_native_unavailable()
            return "object"
    return name


def as_request_lists(sources, targets=None) -> tuple[list[int], list[int]]:
    """Normalize batched-serve input to two parallel Python int lists.

    Accepts ``(sources, targets)`` as NumPy arrays / sequences, or a single
    :class:`~repro.workloads.trace.Trace`-like object (anything exposing
    ``sources``/``targets``) in the first position.  Plain int lists are the
    fastest thing to iterate in the pure-Python serve loop, so the
    conversion happens once here instead of per request.
    """
    if targets is None:
        trace_sources = getattr(sources, "sources", None)
        if trace_sources is None:
            raise EngineError(
                "serve_trace needs (sources, targets) arrays or a Trace"
            )
        sources, targets = trace_sources, sources.targets
    src = sources.tolist() if hasattr(sources, "tolist") else list(sources)
    dst = targets.tolist() if hasattr(targets, "tolist") else list(targets)
    if len(src) != len(dst):
        raise EngineError(
            f"sources/targets length mismatch: {len(src)} != {len(dst)}"
        )
    return src, dst


def as_request_arrays(sources, targets=None) -> tuple[np.ndarray, np.ndarray]:
    """Normalize batched-serve input to two parallel NumPy int64 arrays.

    The vectorized counterpart of :func:`as_request_lists`, for networks
    whose batch path stays in NumPy (static trees, lazy rebuilding).
    """
    if targets is None:
        trace_sources = getattr(sources, "sources", None)
        if trace_sources is None:
            raise EngineError(
                "serve_trace needs (sources, targets) arrays or a Trace"
            )
        sources, targets = trace_sources, sources.targets
    us = np.asarray(sources, dtype=np.int64)
    vs = np.asarray(targets, dtype=np.int64)
    _require_parallel(us, vs)
    return us, vs


def _require_parallel(us: np.ndarray, vs: np.ndarray) -> None:
    if us.ndim != 1 or us.shape != vs.shape:
        raise EngineError(
            f"sources/targets must be equal-length 1-D arrays;"
            f" got shapes {us.shape} and {vs.shape}"
        )


def check_request_ids(us: np.ndarray, vs: np.ndarray, n: int) -> None:
    """Reject a batch that is ragged or names an identifier outside ``1..n``.

    The guard in front of the kernel entries that index the tree by
    request (and of the static oracle path, so both answer alike): a bad
    batch is an :class:`EngineError` here, never an out-of-bounds read.
    """
    _require_parallel(us, vs)
    if len(us) and (
        min(us.min(), vs.min()) < 1 or max(us.max(), vs.max()) > n
    ):
        raise EngineError(f"request identifiers must be in 1..{n}")


def batch_serve(serve_totals, sources, targets=None, *, record_series=False):
    """The generic ``serve_trace`` body: loop a scalar serving core.

    ``serve_totals(u, v)`` must return ``(routing, rotations, links)``
    tuples.  The batch is normalized by :func:`as_request_lists`, totals
    accumulate as scalars and per-request series are filled only with
    ``record_series``, so networks whose batch path is "loop the scalar
    core" share one implementation.  Returns a
    :class:`~repro.network.protocols.BatchServeResult`.
    """
    from repro.network.protocols import BatchServeResult

    src, dst = as_request_lists(sources, targets)
    m = len(src)
    routing_series = rotation_series = None
    total_r = total_rot = total_l = 0
    if record_series:
        routing_series = np.empty(m, dtype=np.int64)
        rotation_series = np.empty(m, dtype=np.int64)
        for i, (u, v) in enumerate(zip(src, dst)):
            r, ro, l = serve_totals(u, v)
            total_r += r
            total_rot += ro
            total_l += l
            routing_series[i] = r
            rotation_series[i] = ro
    else:
        for u, v in zip(src, dst):
            r, ro, l = serve_totals(u, v)
            total_r += r
            total_rot += ro
            total_l += l
    return BatchServeResult(
        m, total_r, total_rot, total_l, routing_series, rotation_series
    )
