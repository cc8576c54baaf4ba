"""Serve-farm benchmark: resident scalar serving + shard scaling.

Run as a script to emit a machine-readable JSON record (the acceptance
gate is the 2-shard farm's aggregate capacity scaling over 1 shard > 1;
the scalar part records resident native vs. flat serving):

    PYTHONPATH=src python benchmarks/bench_servefarm.py \
        --output benchmarks/results/BENCH_servefarm.json

Scalar modes are interleaved across --repeats rounds with best wall and
CPU time kept (speedups are CPU-based); the farm part records observed
wall req/s next to capacity req/s (requests over the busiest shard's
worker CPU time — the shard-parallel metric that wall clock matches when
the host has a core per shard; the host cpu_count is recorded in the
config).  Cost totals must agree exactly across every serving mode and
shard count.  The same measurement is exposed as
``python -m repro bench-servefarm`` and smoke-tested at toy scale in the
tier-1 suite; this script is the full-scale record keeper for the perf
trajectory under ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments.servebench import (
    SCALAR_MODES,
    servefarm_benchmark,
    write_servefarm_record,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", "--nodes", type=int, default=1024)
    parser.add_argument("-k", type=int, default=4)
    parser.add_argument("--scalar-requests", type=int, default=2_000)
    parser.add_argument("--farm-requests", type=int, default=100_000)
    parser.add_argument("--zipf-alpha", type=float, default=1.2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--modes", nargs="+", choices=SCALAR_MODES, default=None,
        help="scalar mode subset (default: every mode measurable here)",
    )
    parser.add_argument("--shards", type=int, nargs="+", default=(1, 2))
    parser.add_argument("--keys", type=int, default=8)
    parser.add_argument("--window", type=int, default=8_192)
    parser.add_argument("--output", default=None, help="also write JSON here")
    args = parser.parse_args(argv)

    record = servefarm_benchmark(
        n=args.nodes,
        k=args.k,
        scalar_m=args.scalar_requests,
        farm_m=args.farm_requests,
        zipf_alpha=args.zipf_alpha,
        seed=args.seed,
        repeats=args.repeats,
        scalar_modes=args.modes,
        shard_counts=tuple(args.shards),
        keys=args.keys,
        window=args.window,
    )
    print(json.dumps(record, indent=2, sort_keys=True))
    if args.output:
        write_servefarm_record(record, args.output)
        print(f"wrote {args.output}", file=sys.stderr)
    failed = (
        record["scalar"].get("totals_match") is False
        or record["farm"].get("totals_match") is False
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
