"""Tree-engine selection for the self-adjusting networks.

The library ships three interchangeable backends for the k-ary search tree
hot loop:

* ``"object"`` — the original pointer-linked :class:`~repro.core.node.KAryNode`
  graph.  Every node is a Python object; rotations rewire attributes.  This
  backend is the reference implementation: it carries the paranoid
  per-rotation invariant checks used by the test suite and is the natural
  representation for structural inspection, rendering and export.
* ``"flat"`` — the structure-of-arrays engine in :mod:`repro.core.flat`.
  All node state lives in preallocated flat arrays indexed by node
  identifier (``parent``, ``pslot``, ``children[nid*k + slot]``,
  ``routing[nid*(k-1) + j]``, ``smin``, ``smax``) and the k-splay /
  k-semi-splay rotations are reimplemented as index arithmetic, which
  removes per-request attribute lookups, helper-call overhead and
  intermediate object allocation from the serve loop.
* ``"native"`` — the compiled C kernel behind :mod:`repro.core.native`:
  the same flat layout, with the batched serve loop executed by
  ``src/repro/core/_native/kernel.c`` (built on demand with the local C
  toolchain).  When no toolchain is available the engine degrades to
  ``"flat"`` with a one-time warning, so ``engine="native"`` is always
  safe to request.

All backends are kept *structurally equivalent*: on the same request
sequence they produce identical topologies and identical cost totals
(enforced by ``tests/test_flat_engine.py`` and
``tests/test_native_engine.py``).

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
    "default_engine",
    "engine_tree_class",
    "native_available",
    "set_default_engine",
    "resolve_engine",
    "as_request_lists",
    "as_request_arrays",
    "accumulate_serve_totals",
    "batch_serve",
]

#: The available tree-engine backends.
ENGINES = ("object", "flat", "native")

_default_engine = os.environ.get("REPRO_ENGINE", "object")

_native_fallback_warned = False


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

    ``"native"`` when the compiled kernel is available, else ``"flat"``.
    The examples and benchmarks route their default engine choice through
    here so they automatically pick up the kernel where it exists.
    """
    return "native" if native_available() else "flat"


def _warn_native_unavailable() -> None:
    global _native_fallback_warned
    if _native_fallback_warned:
        return
    _native_fallback_warned = True
    from repro.core import _native

    warnings.warn(
        "engine='native' requested but the compiled serve kernel is"
        f" unavailable ({_native.build_error()}); falling back to the"
        " pure-Python 'flat' engine",
        RuntimeWarning,
        stacklevel=3,
    )


def default_engine() -> str:
    """The process-wide default engine (``REPRO_ENGINE`` or ``"object"``).

    Validated lazily (not at import time) so a misconfigured environment
    variable surfaces as a catchable :class:`EngineError` at the call site
    instead of breaking ``import repro``.
    """
    if _default_engine not in ENGINES:
        raise EngineError(
            f"REPRO_ENGINE={_default_engine!r} is not one of {ENGINES}"
        )
    return _default_engine


def set_default_engine(name: str) -> None:
    """Set the process-wide default engine for networks built afterwards."""
    global _default_engine
    if name not in ENGINES:
        raise EngineError(f"unknown engine {name!r}; choose from {ENGINES}")
    _default_engine = name


def resolve_engine(name: Optional[str]) -> str:
    """Validate an ``engine=`` argument; ``None`` means the default.

    ``"native"`` degrades gracefully: when the compiled kernel cannot be
    built or loaded in this process the resolution is ``"flat"`` (the
    structurally-identical pure-Python engine) and a ``RuntimeWarning``
    is emitted once per process.
    """
    if name is None:
        name = default_engine()
    elif name not in ENGINES:
        raise EngineError(f"unknown engine {name!r}; choose from {ENGINES}")
    if name == "native" and not native_available():
        _warn_native_unavailable()
        return "flat"
    return name


def engine_tree_class(name: str):
    """The :class:`~repro.core.flat.FlatTree` subclass behind an engine.

    Valid for the array-backed engines only (``"flat"`` / ``"native"``);
    the object engine has no flat backing class.  Imported lazily — the
    flat modules import helpers from here at load time.
    """
    if name == "flat":
        from repro.core.flat import FlatTree

        return FlatTree
    if name == "native":
        from repro.core.native import NativeTree

        return NativeTree
    raise EngineError(
        f"engine {name!r} has no flat tree class (choose 'flat' or 'native')"
    )


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
    if us.ndim != 1 or us.shape != vs.shape:
        raise EngineError(
            f"sources/targets must be equal-length 1-D arrays;"
            f" got shapes {us.shape} and {vs.shape}"
        )
    return us, vs


def accumulate_serve_totals(
    serve_totals,
    sources,
    targets,
    routing_series=None,
    rotation_series=None,
) -> tuple[int, int, int]:
    """Accumulate a scalar serving callable over a request batch.

    ``serve_totals(u, v)`` must return ``(routing, rotations, links)``
    tuples; the optional series buffers are filled per request, and the
    batch ends with the shorter of ``sources`` / ``targets`` (``zip``
    semantics).  This is the batch loop behind every ``serve_trace``
    that has no vectorized or compiled batch path of its own.
    """
    total_r = total_rot = total_l = 0
    if routing_series is not None:
        for i, (u, v) in enumerate(zip(sources, targets)):
            r, ro, l = serve_totals(u, v)
            total_r += r
            total_rot += ro
            total_l += l
            routing_series[i] = r
            rotation_series[i] = ro
    else:
        for u, v in zip(sources, targets):
            r, ro, l = serve_totals(u, v)
            total_r += r
            total_rot += ro
            total_l += l
    return total_r, total_rot, total_l


def batch_serve(serve_totals, sources, targets=None, *, record_series=False):
    """The generic ``serve_trace`` body: accumulate a scalar serving core.

    Wraps :func:`as_request_lists` + :func:`accumulate_serve_totals` +
    result packing, so networks whose batch path is "loop the scalar core"
    share one implementation.  Returns a
    :class:`~repro.network.protocols.BatchServeResult`.
    """
    from repro.network.protocols import BatchServeResult

    src, dst = as_request_lists(sources, targets)
    m = len(src)
    routing_series = rotation_series = None
    if record_series:
        routing_series = np.empty(m, dtype=np.int64)
        rotation_series = np.empty(m, dtype=np.int64)
    totals = accumulate_serve_totals(
        serve_totals, src, dst, routing_series, rotation_series
    )
    return BatchServeResult(
        m, totals[0], totals[1], totals[2], routing_series, rotation_series
    )
