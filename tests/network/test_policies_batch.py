"""Policy wrappers' batched ``serve_trace``: equivalence with per-request.

The historical bug: wrapped networks exposed no ``serve_trace``, so
``Simulator.run`` silently fell back to the slow per-request loop.  The
wrappers now expose a policy-correct batched path (decisions taken request
by request, in order; :class:`FrozenNetwork` collapses to one vectorized
static stretch); these tests pin its equivalence with the per-request path
on both tree engines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import ENGINES, best_available_engine
from repro.core.flat import tree_signature
from repro.net import build_network
from repro.network.policies import (
    FrozenNetwork,
    ProbabilisticNetwork,
    ThresholdedNetwork,
)
from repro.network.simulator import Simulator
from repro.workloads.synthetic import zipf_trace

N, M, K = 96, 2_000, 3


def _trace():
    return zipf_trace(N, M, alpha=1.2, seed=5)


def _inner(engine):
    return build_network("kary-splaynet", n=N, k=K, engine=engine)


def _signature(network):
    inner = network.inner
    flat = getattr(inner, "flat", None)
    return flat.signature() if flat is not None else tree_signature(inner.tree)


WRAPPERS = [
    pytest.param(lambda inner: ThresholdedNetwork(inner, 2), id="thresholded"),
    pytest.param(
        lambda inner: ProbabilisticNetwork(inner, 0.5, seed=9), id="probabilistic"
    ),
    pytest.param(lambda inner: FrozenNetwork(inner), id="frozen"),
]


@pytest.mark.parametrize("make_wrapper", WRAPPERS)
@pytest.mark.parametrize("engine", ENGINES)
def test_batched_equals_per_request(make_wrapper, engine):
    trace = _trace()
    scalar_net = make_wrapper(_inner(engine))
    batched_net = make_wrapper(_inner(engine))

    results = [scalar_net.serve(int(u), int(v)) for u, v in trace.pairs()]
    batch = batched_net.serve_trace(
        trace.sources, trace.targets, record_series=True
    )

    assert batch.m == M
    assert batch.total_routing == sum(r.routing_cost for r in results)
    assert batch.total_rotations == sum(r.rotations for r in results)
    assert batch.total_links_changed == sum(r.links_changed for r in results)
    assert batch.routing_series.tolist() == [r.routing_cost for r in results]
    assert batch.rotation_series.tolist() == [r.rotations for r in results]
    assert _signature(scalar_net) == _signature(batched_net)


@pytest.mark.parametrize("make_wrapper", WRAPPERS)
def test_simulator_takes_fast_path(make_wrapper):
    """Simulator.run consumes the wrapper's serve_trace when validation is
    off — the wrapped-network fast path the bugfix adds."""
    trace = _trace()
    network = make_wrapper(_inner(best_available_engine()))
    calls = []
    original = network.serve_trace

    def spy(sources, targets=None, **kwargs):
        calls.append(True)
        return original(sources, targets, **kwargs)

    network.serve_trace = spy
    result = Simulator().run(network, trace)
    assert calls, "Simulator.run bypassed the wrapper's serve_trace"
    assert result.total_routing > 0


def test_frozen_vectorized_matches_scalar_loop():
    """FrozenNetwork's one-stretch vectorized path equals the generic
    scalar accumulation (and never mutates the inner topology)."""
    trace = _trace()
    frozen = FrozenNetwork(_inner(best_available_engine()))
    before = _signature(frozen)
    batch = frozen.serve_trace(trace.sources, trace.targets, record_series=True)
    scalar = [frozen.serve(int(u), int(v)) for u, v in trace.pairs()]
    assert batch.total_routing == sum(r.routing_cost for r in scalar)
    assert batch.total_rotations == 0
    assert batch.total_links_changed == 0
    assert (batch.rotation_series == 0).all()
    assert _signature(frozen) == before


def test_frozen_falls_back_without_tree():
    """Inner networks that cannot export a tree still batch correctly."""
    frozen = FrozenNetwork(build_network("centroid-splaynet", n=N, k=K))
    trace = _trace()
    batch = frozen.serve_trace(trace.sources, trace.targets)
    scalar = sum(
        frozen.serve(int(u), int(v)).routing_cost for u, v in trace.pairs()
    )
    assert batch.total_routing == scalar


def test_thresholded_counters_advance_in_batch():
    trace = _trace()
    wrapped = ThresholdedNetwork(_inner(best_available_engine()), 2)
    wrapped.serve_trace(trace.sources, trace.targets)
    assert wrapped.served == M
    assert 0 < wrapped.adjusted < M


def test_probabilistic_seeded_batch_reproducible():
    trace = _trace()
    totals = []
    for _ in range(2):
        wrapped = ProbabilisticNetwork(_inner(best_available_engine()), 0.3, seed=21)
        batch = wrapped.serve_trace(trace.sources, trace.targets)
        totals.append((batch.total_routing, batch.total_rotations, wrapped.adjusted))
    assert totals[0] == totals[1]


def test_wrapper_chain_batches():
    """A stacked chain (probabilistic over thresholded) batch-serves and
    matches its per-request twin."""
    trace = _trace()

    def chain():
        return ProbabilisticNetwork(
            ThresholdedNetwork(_inner(best_available_engine()), 1), 0.7, seed=3
        )

    batched = chain().serve_trace(trace.sources, trace.targets)
    scalar_net = chain()
    scalar = [scalar_net.serve(int(u), int(v)) for u, v in trace.pairs()]
    assert batched.total_routing == sum(r.routing_cost for r in scalar)
    assert batched.total_rotations == sum(r.rotations for r in scalar)


def test_batch_accepts_trace_object():
    trace = _trace()
    wrapped = ThresholdedNetwork(_inner(best_available_engine()), 2)
    batch = wrapped.serve_trace(trace)
    assert batch.m == trace.m


def test_record_series_dtype():
    trace = _trace()
    wrapped = FrozenNetwork(_inner(best_available_engine()))
    batch = wrapped.serve_trace(trace.sources, trace.targets, record_series=True)
    assert batch.routing_series.dtype == np.int64
    assert len(batch.routing_series) == trace.m
