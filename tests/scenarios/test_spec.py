"""ScenarioSpec: validation, classification, JSON round-trip."""

from __future__ import annotations

import json

import pytest

from repro.core import engine as engine_module
from repro.core.engine import best_available_engine
from repro.errors import ExperimentError
from repro.net.registry import build_network
from repro.scenarios import (
    ScenarioSpec,
    specs_from_json,
    specs_to_json,
)


def spec(**overrides):
    fields = dict(
        workload="temporal-0.5", n=32, m=200, seed=7, algorithm="kary-splaynet", k=3
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ExperimentError):
            spec(algorithm="teleport")

    def test_bad_k(self):
        with pytest.raises(ExperimentError):
            spec(k=1)

    def test_bad_engine(self):
        with pytest.raises(ExperimentError):
            spec(engine="quantum")

    def test_bad_cost_model(self):
        with pytest.raises(ExperimentError):
            spec(cost_model="gold-pressed-latinum")

    def test_trace_cells_need_requests(self):
        with pytest.raises(ExperimentError):
            spec(m=0)

    def test_analytic_cells_allow_m_zero(self):
        s = spec(algorithm="centroid-tree-distance", m=0)
        assert s.kind == "analytic"


class TestClassification:
    @pytest.mark.parametrize(
        "algorithm,kind",
        [
            ("kary-splaynet", "online"),
            ("centroid-splaynet", "online"),
            ("splaynet", "online"),
            ("full-tree", "static"),
            ("optimal-tree", "static"),
            ("optimal-uniform-distance", "analytic"),
        ],
    )
    def test_kind(self, algorithm, kind):
        m = 0 if kind == "analytic" else 200
        assert spec(algorithm=algorithm, m=m).kind == kind

    def test_engine_defaults_to_best_available_for_capable_cells(self):
        assert spec().resolved_engine() == best_available_engine()
        assert spec(engine="object").resolved_engine() == "object"

    def test_native_without_kernel_resolves_to_its_fallback(self, monkeypatch):
        monkeypatch.setattr(engine_module, "native_available", lambda: False)
        monkeypatch.setattr(engine_module, "_native_fallback_warned", True)
        cell = spec(engine="native")
        assert cell.resolved_engine() == "object"
        assert cell.network_spec().engine == "object"
        assert build_network(cell.network_spec()).engine == "object"
        assert spec().resolved_engine() == "object"

    def test_no_engine_for_engine_free_cells(self):
        assert spec(algorithm="splaynet").resolved_engine() is None
        assert spec(algorithm="full-tree", engine="object").resolved_engine() is None

    def test_network_spec_threads_the_cell(self):
        cell = spec(params={"splay_depth": 2})
        built = cell.network_spec()
        assert built.engine == best_available_engine()
        assert (built.algorithm, built.n, built.k, built.initial, built.params) == (
            cell.algorithm,
            cell.n,
            cell.k,
            cell.initial,
            cell.params,
        )

    def test_task_alias_is_the_spec(self):
        cell = spec()
        assert cell.task() is cell
        assert cell.task().network_spec() == cell.network_spec()

    def test_analytic_cells_build_no_network(self):
        with pytest.raises(ExperimentError):
            spec(algorithm="complete-tree-distance", m=0).network_spec()


class TestJsonRoundTrip:
    def test_single_spec(self):
        original = spec(engine="native", cost_model="unit_rotations", group="t5")
        assert ScenarioSpec.from_json(original.to_json()) == original

    def test_dict_round_trip_is_lossless(self):
        original = spec()
        data = json.loads(original.to_json())
        assert ScenarioSpec.from_dict(data) == original

    def test_unknown_field_rejected(self):
        data = spec().to_dict()
        data["frobnication"] = 3
        with pytest.raises(ExperimentError):
            ScenarioSpec.from_dict(data)

    def test_non_object_rejected(self):
        with pytest.raises(ExperimentError):
            ScenarioSpec.from_json("[1, 2]")

    def test_spec_list_round_trip(self):
        originals = [spec(k=k) for k in (2, 3, 5)]
        assert specs_from_json(specs_to_json(originals)) == originals

    def test_replace(self):
        assert spec().replace(k=5).k == 5
        assert spec().replace(k=5) != spec()
