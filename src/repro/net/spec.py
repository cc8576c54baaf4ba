"""Declarative network construction: the frozen :class:`NetworkSpec`.

The paper studies one object — a self-adjusting network serving an online
request stream — yet historically this repository needed four constructors,
two engines and three policy wrappers composed by hand to produce one.  A
:class:`NetworkSpec` names any such composition as *data*: the algorithm
(a key of the :mod:`repro.net.registry`), the size and arity, the tree
engine, the initial topology, free-form algorithm parameters, and an
optional chain of adjustment-policy wrappers.  Like
:class:`~repro.scenarios.spec.ScenarioSpec` it is frozen, hashable and
round-trips losslessly through JSON, so network configurations can be
exported, diffed and rebuilt anywhere (including inside worker processes).

``NetworkSpec`` describes *construction only* — traffic coordinates live in
:class:`~repro.scenarios.spec.ScenarioSpec`, which bridges to this layer.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Union

from repro.core.engine import check_engine_name
from repro.errors import ExperimentError

__all__ = ["NetworkSpec", "PolicySpec", "freeze_params"]

#: Parameter values a spec may carry: JSON scalars only, so every spec
#: stays hashable and survives the JSON round-trip unchanged.
_SCALAR_TYPES = (bool, int, float, str, type(None))

ParamsLike = Union[Mapping[str, Any], "tuple[tuple[str, Any], ...]", None]


def freeze_params(params: ParamsLike) -> tuple[tuple[str, Any], ...]:
    """Normalize a parameter mapping to a sorted, hashable tuple of pairs.

    Accepts a mapping, an already-frozen pair tuple, or ``None``; rejects
    non-scalar values (they would break hashing and JSON round-tripping).
    """
    if params is None:
        return ()
    items = list(params.items()) if isinstance(params, Mapping) else list(params)
    frozen = []
    for pair in items:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            raise ExperimentError(
                f"params entries must be (name, value) pairs, got {pair!r}"
            )
        name, value = pair
        if not isinstance(name, str):
            raise ExperimentError(f"param names must be strings, got {name!r}")
        if not isinstance(value, _SCALAR_TYPES):
            raise ExperimentError(
                f"param {name!r} must be a JSON scalar, got {type(value).__name__}"
            )
        frozen.append((name, value))
    frozen.sort()
    names = [name for name, _ in frozen]
    if len(set(names)) != len(names):
        raise ExperimentError(f"duplicate param names in {names}")
    return tuple(frozen)


@dataclass(frozen=True)
class PolicySpec:
    """One adjustment-policy wrapper in a spec's chain.

    Attributes
    ----------
    policy:
        A key of :data:`repro.net.registry.POLICY_WRAPPERS`
        (``"thresholded"``, ``"probabilistic"``, ``"frozen"``, or a
        user-registered name).
    params:
        Keyword arguments for the wrapper (e.g. ``threshold`` or ``q``),
        frozen to sorted pairs.
    """

    policy: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.policy:
            raise ExperimentError("policy name must be non-empty")
        object.__setattr__(self, "params", freeze_params(self.params))

    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)

    # -- JSON round-trip -----------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {"policy": self.policy, "params": self.params_dict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PolicySpec":
        unknown = set(data) - {"policy", "params"}
        if unknown:
            raise ExperimentError(f"unknown PolicySpec fields {sorted(unknown)}")
        return cls(policy=data["policy"], params=freeze_params(data.get("params")))


def _coerce_policies(policies: Any) -> tuple[PolicySpec, ...]:
    """Normalize the ``policies`` field: specs, dicts or bare names."""
    if policies is None:
        return ()
    if isinstance(policies, (str, PolicySpec, Mapping)):
        policies = (policies,)
    coerced = []
    for item in policies:
        if isinstance(item, PolicySpec):
            coerced.append(item)
        elif isinstance(item, str):
            coerced.append(PolicySpec(item))
        elif isinstance(item, Mapping):
            coerced.append(PolicySpec.from_dict(item))
        else:
            raise ExperimentError(
                f"policies entries must be PolicySpec / name / mapping, got {item!r}"
            )
    return tuple(coerced)


@dataclass(frozen=True)
class NetworkSpec:
    """One network construction, fully described by data.

    Attributes
    ----------
    algorithm:
        A name registered in :mod:`repro.net.registry` (built-ins:
        ``kary-splaynet``, ``centroid-splaynet``, ``splaynet``, ``lazy``,
        ``full-tree``, ``centroid-tree``, ``optimal-tree``,
        ``optimal-bst``).
    n:
        Number of network nodes (identifiers ``1..n``).
    k:
        Tree arity (``>= 2``; the binary baselines ignore it).
    engine:
        Tree-engine backend for engine-capable algorithms (``"object"`` /
        ``"native"``; ``None`` = the process default).  Ignored by the
        rest.  ``"native"`` is always a valid spec value — construction
        degrades to ``"object"`` (with a one-time warning) when the
        compiled kernel is unavailable, so specs round-trip between
        machines with and without a C toolchain.
    initial:
        Initial topology name for the self-adjusting k-ary networks.
    params:
        Algorithm-specific keyword arguments (e.g. ``alpha``/``window``
        for ``lazy``, ``policy``/``splay_depth``/``seed`` for
        ``kary-splaynet``), frozen to sorted ``(name, value)`` pairs.
        Mappings are accepted and normalized.
    policies:
        Adjustment-policy wrapper chain, applied innermost-first: the
        first entry wraps the bare network, the second wraps that, and so
        on.  Entries may be given as :class:`PolicySpec`, plain names or
        mappings.
    """

    algorithm: str
    n: int
    k: int = 2
    engine: Optional[str] = None
    initial: str = "complete"
    params: tuple[tuple[str, Any], ...] = ()
    policies: tuple[PolicySpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", freeze_params(self.params))
        object.__setattr__(self, "policies", _coerce_policies(self.policies))
        if self.n < 1:
            raise ExperimentError(f"n must be >= 1, got {self.n}")
        if self.k < 2:
            raise ExperimentError(f"k must be >= 2, got {self.k}")
        check_engine_name(self.engine, ExperimentError)
        # Validated against the live registry (lazy import: the registry
        # imports this module at load time).
        from repro.net.registry import require_algorithm

        require_algorithm(self.algorithm)

    # -- helpers -------------------------------------------------------
    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def replace(self, **changes: Any) -> "NetworkSpec":
        """A copy with the given fields changed (frozen-safe)."""
        return dataclasses.replace(self, **changes)

    def bare(self) -> "NetworkSpec":
        """The same spec without its policy chain (the inner network)."""
        return self.replace(policies=())

    # -- JSON round-trip -----------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON mapping; inverse of :meth:`from_dict`."""
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "k": self.k,
            "engine": self.engine,
            "initial": self.initial,
            "params": self.params_dict(),
            "policies": [policy.to_dict() for policy in self.policies],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NetworkSpec":
        """Rebuild a spec from :meth:`to_dict` output (strict on keys)."""
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise ExperimentError(f"unknown NetworkSpec fields {sorted(unknown)}")
        payload = dict(data)
        payload["params"] = freeze_params(payload.get("params"))
        payload["policies"] = _coerce_policies(payload.get("policies"))
        return cls(**payload)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "NetworkSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ExperimentError("NetworkSpec JSON must be an object")
        return cls.from_dict(data)
