"""ksan — self-adjusting k-ary search tree networks.

A from-scratch reproduction of Feder, Paramonov, Mavrin, Salem, Aksenov and
Schmid, *Toward Self-Adjusting k-ary Search Tree Networks* (arXiv
2302.13113): the k-ary SplayNet and (k+1)-SplayNet online self-adjusting
networks, the offline optimal/centroid static constructions, the SplayNet
baseline, and the full trace-driven evaluation harness.

Quickstart
----------
>>> from repro import open_session, uniform_trace
>>> session = open_session("kary-splaynet", n=64, k=4, engine="object")
>>> session.serve(3, 60)  # doctest: +SKIP
ServeResult(routing_cost=6, rotations=4, links_changed=10)
>>> session.serve_stream(uniform_trace(64, 1000, seed=1))  # doctest: +SKIP
BatchServeResult(m=1000, ...)
>>> session.metrics.average_routing  # doctest: +SKIP
3.4

See README.md for the architecture tour and DESIGN.md for the paper mapping.
"""

from repro.analysis.bounds import (
    compare_with_bound,
    static_finger_bound,
    working_set_bound,
    working_set_sizes,
)
from repro.analysis.complexity import (
    ComplexityReport,
    classify_trace,
    complexity_report,
    spatial_complexity,
    temporal_complexity,
)
from repro.analysis.distance import (
    TreeDistanceOracle,
    all_pairs_total_distance,
    total_demand_distance,
    total_distance_via_potentials,
)
from repro.analysis.entropy import entropy_bound, entropy_bound_report
from repro.analysis.potential import (
    AccessAudit,
    audit_splaynet_accesses,
    audit_splaytree_accesses,
)
from repro.core.builders import (
    build_balanced_tree,
    build_complete_tree,
    build_path_tree,
    build_random_tree,
)
from repro.core.centroid import build_centroid_tree
from repro.core.centroid_splaynet import CentroidSplayNet
from repro.core.engine import best_available_engine, native_available
from repro.core.rotations import k_semi_splay, k_splay
from repro.core.splaynet import KArySplayNet
from repro.core.tree import KAryTreeNetwork
from repro.datastructures import (
    MoveToRootTree,
    SherkKarySplayTree,
    SplayTree,
)
from repro.errors import (
    FaultInjected,
    IngressConnectionError,
    IngressError,
    IngressOverload,
    IngressProtocolError,
    RejectedRequestError,
    ReliabilityError,
    ReproError,
)
from repro.ingress import (
    AsyncIngressClient,
    BreakerConfig,
    CircuitBreaker,
    IngressClient,
    IngressServer,
)
from repro.net import (
    LatencyStats,
    NetworkSpec,
    PolicySpec,
    Session,
    SessionMetrics,
    SessionSnapshot,
    build_network,
    network_algorithms,
    open_session,
    register_network,
    register_policy,
)
from repro.serving import (
    FarmMetrics,
    HealthConfig,
    HealthMonitor,
    ServeFarm,
    ShardRouter,
    shard_for_key,
)
from repro.parallel import (
    ParallelConfig,
    SweepSpec,
    parallel_map,
    run_sweep,
)
from repro.reliability import (
    ChaosConfig,
    FaultPlan,
    RetryPolicy,
    backoff_delays,
    inject_faults,
    run_chaos,
)
from repro.results import (
    JsonlStore,
    ResultStore,
    SqliteStore,
    copy_results,
    default_store_path,
    iter_results_jsonl,
    open_store,
    read_results_jsonl,
    spec_store_hash,
)
from repro.network.cost import CostModel, LINK_CHURN, ROUTING_ONLY, UNIT_ROTATIONS
from repro.network.lazy import LazyRebuildNetwork
from repro.network.metrics import cumulative_advantage, summarize_series
from repro.network.policies import (
    FrozenNetwork,
    ProbabilisticNetwork,
    ThresholdedNetwork,
)
from repro.network.protocols import SelfAdjustingNetwork, ServeResult
from repro.network.simulator import SimulationResult, Simulator, simulate
from repro.network.static import StaticTreeNetwork
from repro.optimal.general import optimal_static_tree
from repro.optimal.uniform import optimal_uniform_cost, optimal_uniform_tree
from repro.splaynet.optimal import optimal_static_bst
from repro.splaynet.splaynet import SplayNet
from repro.splaynet.tree import BSTNetwork
from repro.workloads.datacenter import facebook_trace, hpc_trace, projector_trace
from repro.workloads.demand import DemandMatrix
from repro.workloads.io import (
    load_trace_csv,
    load_trace_npz,
    save_trace_csv,
    save_trace_npz,
)
from repro.workloads.stats import summarize_trace
from repro.workloads.mixtures import (
    elephant_mice_trace,
    interleave_traces,
    markov_modulated_trace,
    phased_trace,
    shuffle_phase_trace,
)
from repro.workloads.synthetic import (
    bursty_trace,
    hotspot_trace,
    permutation_trace,
    sequential_trace,
    temporal_trace,
    uniform_trace,
    zipf_trace,
)
from repro.workloads.trace import Trace
from repro.viz.ascii import bar_chart, render_kary_network, sparkline

__version__ = "1.1.0"

__all__ = [
    # unified network API (spec-driven construction + online sessions)
    "NetworkSpec",
    "PolicySpec",
    "build_network",
    "register_network",
    "register_policy",
    "network_algorithms",
    "open_session",
    "Session",
    "SessionMetrics",
    "SessionSnapshot",
    "LatencyStats",
    "best_available_engine",
    "native_available",
    # sharded serving (the serve farm)
    "ServeFarm",
    "FarmMetrics",
    "ShardRouter",
    "shard_for_key",
    "HealthConfig",
    "HealthMonitor",
    # socket ingress gateway (serving over the network)
    "IngressServer",
    "IngressClient",
    "AsyncIngressClient",
    "BreakerConfig",
    "CircuitBreaker",
    # core self-adjusting networks
    "KArySplayNet",
    "CentroidSplayNet",
    "SplayNet",
    "KAryTreeNetwork",
    "BSTNetwork",
    "k_semi_splay",
    "k_splay",
    # static constructions
    "build_complete_tree",
    "build_balanced_tree",
    "build_centroid_tree",
    "build_path_tree",
    "build_random_tree",
    "optimal_static_tree",
    "optimal_static_bst",
    "optimal_uniform_cost",
    "optimal_uniform_tree",
    "StaticTreeNetwork",
    # simulation substrate
    "Simulator",
    "SimulationResult",
    "simulate",
    "LazyRebuildNetwork",
    "ThresholdedNetwork",
    "ProbabilisticNetwork",
    "FrozenNetwork",
    "cumulative_advantage",
    "summarize_series",
    "ServeResult",
    "SelfAdjustingNetwork",
    "CostModel",
    "ROUTING_ONLY",
    "UNIT_ROTATIONS",
    "LINK_CHURN",
    # workloads
    "Trace",
    "DemandMatrix",
    "uniform_trace",
    "temporal_trace",
    "zipf_trace",
    "hotspot_trace",
    "bursty_trace",
    "permutation_trace",
    "sequential_trace",
    "hpc_trace",
    "projector_trace",
    "facebook_trace",
    "summarize_trace",
    "save_trace_csv",
    "load_trace_csv",
    "save_trace_npz",
    "load_trace_npz",
    # mixture workloads
    "elephant_mice_trace",
    "markov_modulated_trace",
    "phased_trace",
    "shuffle_phase_trace",
    "interleave_traces",
    # analysis
    "TreeDistanceOracle",
    "total_demand_distance",
    "all_pairs_total_distance",
    "total_distance_via_potentials",
    "entropy_bound",
    "entropy_bound_report",
    "ComplexityReport",
    "complexity_report",
    "classify_trace",
    "spatial_complexity",
    "temporal_complexity",
    "AccessAudit",
    "audit_splaynet_accesses",
    "audit_splaytree_accesses",
    "working_set_sizes",
    "working_set_bound",
    "static_finger_bound",
    "compare_with_bound",
    # classic self-adjusting data structures (baselines)
    "SplayTree",
    "MoveToRootTree",
    "SherkKarySplayTree",
    # parallel execution
    "ParallelConfig",
    "parallel_map",
    "SweepSpec",
    "run_sweep",
    # reliability (fault injection, retry, chaos soak)
    "FaultPlan",
    "inject_faults",
    "RetryPolicy",
    "backoff_delays",
    "ChaosConfig",
    "run_chaos",
    # results storage (pluggable campaign record backends)
    "ResultStore",
    "JsonlStore",
    "SqliteStore",
    "open_store",
    "copy_results",
    "iter_results_jsonl",
    "read_results_jsonl",
    "default_store_path",
    "spec_store_hash",
    # visualization
    "render_kary_network",
    "bar_chart",
    "sparkline",
    # errors
    "ReproError",
    "ReliabilityError",
    "RejectedRequestError",
    "FaultInjected",
    "IngressError",
    "IngressProtocolError",
    "IngressConnectionError",
    "IngressOverload",
    "__version__",
]
