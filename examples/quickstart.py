#!/usr/bin/env python
"""Quickstart: open an online session on a self-adjusting k-ary search
tree network, serve traffic, and watch it adapt.

Everything goes through the unified network API: ``build_network`` /
``open_session`` construct any registered algorithm from a declarative
spec, and the session serves requests online — one at a time or as a
chunked stream through the batched engine hot path.

Run:  python examples/quickstart.py
"""

from repro import (
    NetworkSpec,
    best_available_engine,
    open_session,
    summarize_trace,
    uniform_trace,
)


def main() -> None:
    n, k = 64, 4

    # A self-adjusting network of 64 nodes as a 4-ary search tree on the
    # fastest tree engine this process can use (the compiled "native"
    # kernel where a C toolchain exists, the pure-Python "object" engine
    # otherwise), starting from the complete (balanced) topology.  The
    # spec is data: it round-trips through JSON.
    spec = NetworkSpec("kary-splaynet", n=n, k=k, engine=best_available_engine())
    print(f"spec: {spec.to_json()}")
    session = open_session(spec)
    print(f"network: {session.network}")
    print(f"initial height: {session.network.tree.height()}  (complete {k}-ary tree)")

    # One online request: routed over the current tree, then the endpoints
    # are splayed together, so repeating it becomes cheap.
    first = session.serve(3, 60)
    print(f"\nserve(3, 60): routed over {first.routing_cost} hops, "
          f"{first.rotations} rotations, {first.links_changed} links changed")
    print(f"serve(3, 60) again: {session.serve(3, 60).routing_cost} hop(s)")

    # A full request stream, fed chunkwise through the batched fast path.
    trace = uniform_trace(n, 5_000, seed=7)
    print(f"\ntrace: {summarize_trace(trace)}")
    batch = session.serve_stream(trace, chunk=1024)
    print(f"streamed {batch.m} requests: routing={batch.total_routing}"
          f" rotations={batch.total_rotations}")
    metrics = session.metrics
    print(f"session totals: {metrics.requests} requests,"
          f" average request cost {metrics.average_routing:.2f} hops")

    # Checkpoint, perturb, rewind: the snapshot captures the exact
    # topology (and metrics), on either engine.
    checkpoint = session.snapshot()
    session.serve(1, 64)
    session.restore(checkpoint)
    print(f"\nsnapshot/restore: rewound to {session.metrics.requests} requests")

    # The tree is still a valid k-ary search tree network after 5000+
    # reconfigurations — identifiers never moved, only routing arrays did.
    session.validate()
    print("topology re-validated: search property intact, "
          "all identifiers in place")


if __name__ == "__main__":
    main()
