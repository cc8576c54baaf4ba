#!/usr/bin/env python
"""When should a self-adjusting network adjust?

The paper's cost model charges routing *and* reconfiguration (Section 2),
and notes that physically rewiring a high-degree optical port plausibly
costs more than a binary one (Section 5.1).  This example sweeps the
reactive spectrum — always splay, splay only long routes, splay a coin-flip
fraction, never splay — on a high-locality trace, and shows how the winner
flips as the price of one rotation rises.

Each policy is one declarative ``NetworkSpec``: the wrapper chain lives in
the spec's ``policies`` field, so a wrapped network is built, served (on
the batched fast path) and serialized exactly like a bare one.

Run:  python examples/adjustment_policies.py
"""

from repro import (
    CostModel,
    NetworkSpec,
    bar_chart,
    best_available_engine,
    open_session,
    temporal_trace,
)

N, M, SEED = 128, 15_000, 7


def main() -> None:
    trace = temporal_trace(N, M, 0.9, SEED)
    base = NetworkSpec("kary-splaynet", n=N, k=3, engine=best_available_engine())
    specs = {
        "reactive (always)": base,
        "threshold > 2 hops": base.replace(
            policies=[{"policy": "thresholded", "params": {"threshold": 2}}]
        ),
        "threshold > 4 hops": base.replace(
            policies=[{"policy": "thresholded", "params": {"threshold": 4}}]
        ),
        "probabilistic 50%": base.replace(
            policies=[{"policy": "probabilistic", "params": {"q": 0.5, "seed": SEED}}]
        ),
        "frozen (never)": base.replace(policies=["frozen"]),
    }

    results = {}
    for name, spec in specs.items():
        session = open_session(spec)
        session.serve_stream(trace)
        results[name] = session.metrics

    print(f"workload: temporal-0.9, n={N}, m={M}\n")
    print(f"{'policy':20} {'routing':>10} {'rotations':>10}")
    for name, metrics in results.items():
        print(f"{name:20} {metrics.total_routing:>10d} {metrics.total_rotations:>10d}")

    for price in (0.0, 1.0, 5.0, 20.0):
        model = CostModel(rotation_cost=price)
        rows = [
            (name, round(metrics.total_cost(model)))
            for name, metrics in results.items()
        ]
        winner = min(rows, key=lambda r: r[1])[0]
        print(f"\ntotal cost at rotation price {price:g} (winner: {winner})")
        print(bar_chart(rows))


if __name__ == "__main__":
    main()
