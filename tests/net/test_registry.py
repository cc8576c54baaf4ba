"""The construction registry: built-ins, user registration, policy chains."""

from __future__ import annotations

import pytest

from repro.core.centroid_splaynet import CentroidSplayNet
from repro.core.splaynet import KArySplayNet
from repro.errors import ExperimentError
from repro.net import (
    NetworkSpec,
    PolicySpec,
    build_network,
    network_algorithm,
    network_algorithms,
    online_algorithms,
    register_network,
    register_policy,
    static_algorithms,
    unregister_network,
)
from repro.net.registry import POLICY_WRAPPERS, engine_capable_algorithms
from repro.network.lazy import LazyRebuildNetwork
from repro.network.policies import (
    FrozenNetwork,
    ProbabilisticNetwork,
    ThresholdedNetwork,
)
from repro.network.simulator import simulate
from repro.network.static import StaticTreeNetwork
from repro.splaynet.splaynet import SplayNet
from repro.workloads.synthetic import uniform_trace

BUILTINS = {
    "kary-splaynet",
    "centroid-splaynet",
    "splaynet",
    "lazy",
    "full-tree",
    "centroid-tree",
    "optimal-tree",
    "optimal-bst",
}


class TestBuiltinCoverage:
    def test_all_builtins_registered(self):
        assert BUILTINS <= set(network_algorithms())

    def test_kinds_partition(self):
        assert online_algorithms() & static_algorithms() == frozenset()
        assert {"kary-splaynet", "centroid-splaynet", "splaynet", "lazy"} <= (
            online_algorithms()
        )
        assert {"full-tree", "centroid-tree", "optimal-tree", "optimal-bst"} <= (
            static_algorithms()
        )

    def test_engine_capable(self):
        assert engine_capable_algorithms() == frozenset(
            {"kary-splaynet", "centroid-splaynet"}
        )

    @pytest.mark.parametrize(
        "algorithm,cls",
        [
            ("kary-splaynet", KArySplayNet),
            ("centroid-splaynet", CentroidSplayNet),
            ("splaynet", SplayNet),
            ("lazy", LazyRebuildNetwork),
        ],
    )
    def test_online_builds(self, algorithm, cls):
        net = build_network(algorithm, n=16, k=3)
        assert isinstance(net, cls)
        assert net.n == 16

    @pytest.mark.parametrize(
        "algorithm", ["full-tree", "centroid-tree", "optimal-tree", "optimal-bst"]
    )
    def test_static_builds_are_serving_networks(self, algorithm):
        trace = uniform_trace(12, 80, seed=3)
        net = build_network(algorithm, n=12, k=3, trace=trace)
        assert isinstance(net, StaticTreeNetwork)
        result = simulate(net, trace)
        assert result.total_routing > 0
        assert result.total_rotations == 0

    def test_demand_aware_requires_demand(self):
        with pytest.raises(ExperimentError, match="demand-aware"):
            build_network("optimal-tree", n=8, k=2)

    def test_full_tree_ignores_missing_trace(self):
        net = build_network("full-tree", n=9, k=3)
        assert net.n == 9


class TestBuildNetworkInputs:
    def test_spec_object(self):
        net = build_network(NetworkSpec("kary-splaynet", n=8, k=4))
        assert net.k == 4

    def test_mapping(self):
        net = build_network({"algorithm": "kary-splaynet", "n": 8, "k": 3})
        assert net.k == 3

    def test_name_plus_kwargs(self):
        net = build_network("kary-splaynet", n=8, k=3, engine="object")
        assert net.engine == "object"

    def test_kwargs_only(self):
        net = build_network(algorithm="splaynet", n=8)
        assert net.n == 8

    def test_spec_with_override(self):
        spec = NetworkSpec("kary-splaynet", n=8, k=2)
        net = build_network(spec, k=5)
        assert net.k == 5

    def test_params_threaded(self):
        net = build_network("lazy", n=8, k=2, params={"alpha": 123.0})
        assert net.alpha == 123.0

    def test_no_algorithm_rejected(self):
        with pytest.raises(ExperimentError):
            build_network(n=8)

    def test_bad_spec_type_rejected(self):
        with pytest.raises(ExperimentError):
            build_network(42)


class TestPolicyChain:
    def test_single_policy(self):
        net = build_network(
            "kary-splaynet", n=16, k=3,
            policies=[PolicySpec("thresholded", {"threshold": 2})],
        )
        assert isinstance(net, ThresholdedNetwork)
        assert net.threshold == 2
        assert isinstance(net.inner, KArySplayNet)

    def test_chain_order_innermost_first(self):
        net = build_network(
            "kary-splaynet", n=16, k=3,
            policies=[
                PolicySpec("probabilistic", {"q": 0.5, "seed": 1}),
                PolicySpec("frozen"),
            ],
        )
        assert isinstance(net, FrozenNetwork)
        assert isinstance(net.inner, ProbabilisticNetwork)
        assert isinstance(net.inner.inner, KArySplayNet)

    def test_wrapped_network_serves(self):
        trace = uniform_trace(16, 100, seed=5)
        net = build_network(
            "kary-splaynet", n=16, k=3, policies=["frozen"],
        )
        result = simulate(net, trace)
        assert result.total_routing > 0
        assert result.total_rotations == 0

    def test_unknown_policy(self):
        spec = NetworkSpec("kary-splaynet", n=8, policies=["teleport"])
        with pytest.raises(ExperimentError, match="unknown policy"):
            build_network(spec)

    def test_builtin_wrappers_registered(self):
        assert {"thresholded", "probabilistic", "frozen"} <= set(POLICY_WRAPPERS)


class _ToyNetwork:
    """Minimal SelfAdjustingNetwork for registration tests."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.requests = 0

    def serve(self, u, v):
        from repro.network.protocols import ServeResult

        self.requests += 1
        return ServeResult(1 if u != v else 0, 0, 0)

    def distance(self, u, v):
        return 1 if u != v else 0


class TestUserRegistration:
    def test_register_build_unregister(self):
        register_network(
            "toy", lambda spec, context: _ToyNetwork(spec.n),
            description="toy", replace=True,
        )
        try:
            assert "toy" in online_algorithms()
            net = build_network("toy", n=5)
            assert isinstance(net, _ToyNetwork)
            spec = NetworkSpec("toy", n=5)
            assert NetworkSpec.from_json(spec.to_json()) == spec
        finally:
            unregister_network("toy")
        with pytest.raises(ExperimentError):
            build_network("toy", n=5)

    def test_duplicate_registration_rejected(self):
        register_network("toy2", lambda spec, context: _ToyNetwork(spec.n))
        try:
            with pytest.raises(ExperimentError, match="already registered"):
                register_network("toy2", lambda spec, context: _ToyNetwork(spec.n))
        finally:
            unregister_network("toy2")

    def test_bad_kind_rejected(self):
        with pytest.raises(ExperimentError):
            register_network(
                "toy3", lambda spec, context: _ToyNetwork(spec.n), kind="offline"
            )

    def test_registered_policy_applies(self):
        register_policy("identity", lambda inner: inner, replace=True)
        try:
            net = build_network("kary-splaynet", n=8, policies=["identity"])
            assert isinstance(net, KArySplayNet)
        finally:
            POLICY_WRAPPERS.pop("identity", None)

    def test_network_algorithm_lookup(self):
        entry = network_algorithm("lazy")
        assert entry.kind == "online"
        assert not entry.engine_capable

    def test_registered_algorithm_schedulable_as_scenario(self):
        """A registered algorithm is immediately valid in ScenarioSpec."""
        from repro.scenarios.spec import ScenarioSpec

        register_network(
            "toy-scenario", lambda spec, context: _ToyNetwork(spec.n),
            replace=True,
        )
        try:
            spec = ScenarioSpec("uniform", 8, 50, 1, "toy-scenario")
            assert spec.kind == "online"
            from repro.scenarios.core import run_scenario

            result = run_scenario(spec)
            assert result.total_routing > 0
        finally:
            unregister_network("toy-scenario")
