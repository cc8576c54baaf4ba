"""The ingress benchmark record: exact totals and per-leg dispatch counts."""

from __future__ import annotations

from repro.experiments.ingressbench import ingress_benchmark


def test_socket_legs_record_their_dispatches():
    m = 120
    record = ingress_benchmark(
        n=16, k=2, m=m, keys=2, shards=1, concurrency=16
    )
    assert record["totals_match"]
    # batch_max=1: one farm round trip per request.
    assert record["socket_unbatched"]["dispatches"] == m
    assert 1 <= record["socket_batched"]["dispatches"] <= m
