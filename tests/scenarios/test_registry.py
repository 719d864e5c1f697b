"""Tests for the scenario registry and the built-in catalog."""

import pytest

from repro.scenarios import (
    REGISTRY,
    ScenarioError,
    ScenarioRegistry,
    SweepScenario,
    get_scenario,
    scenario_names,
)


def make_scenario(name="reg-test") -> SweepScenario:
    return SweepScenario(
        name=name, title="t", workload="resnet101", grid={"delta": (0.0,)},
        tags=("custom-tag",),
    )


class TestScenarioRegistry:
    def test_register_get_roundtrip(self):
        registry = ScenarioRegistry()
        scenario = registry.register(make_scenario())
        assert registry.get("reg-test") is scenario
        assert "reg-test" in registry
        assert len(registry) == 1

    def test_duplicate_name_rejected(self):
        registry = ScenarioRegistry()
        registry.register(make_scenario())
        with pytest.raises(ScenarioError, match="already registered"):
            registry.register(make_scenario())

    def test_non_scenario_rejected(self):
        with pytest.raises(ScenarioError, match="dataclass"):
            ScenarioRegistry().register({"name": "dict-not-scenario"})

    def test_unknown_name_lists_available(self):
        registry = ScenarioRegistry()
        registry.register(make_scenario())
        with pytest.raises(ScenarioError, match="reg-test"):
            registry.get("nope")

    def test_names_and_tag_filtering(self):
        registry = ScenarioRegistry()
        registry.register(make_scenario("b-second"))
        registry.register(make_scenario("a-first"))
        assert registry.names() == ["a-first", "b-second"]
        assert registry.names(tag="custom-tag") == ["a-first", "b-second"]
        assert registry.names(tag="missing") == []

    def test_iteration_in_name_order(self):
        registry = ScenarioRegistry()
        registry.register(make_scenario("z"))
        registry.register(make_scenario("a"))
        assert [s.name for s in registry] == ["a", "z"]


class TestCatalog:
    def test_figure_scenarios_registered(self):
        names = scenario_names(tag="figure")
        assert "fig6-delta-sweep" in names
        assert "fig1a-throughput" in names
        assert "table1-comparison" in names
        assert "table1-comparison-full" in names

    def test_paper_scale_suite_covers_all_cluster_sizes(self):
        names = scenario_names(tag="paper-scale")
        for n in (64, 128, 256):
            assert f"deep-mlp-delta-n{n}" in names
            assert f"transformer-delta-n{n}" in names

    def test_paper_scale_sweeps_verify_endpoints(self):
        for name in scenario_names(tag="paper-scale"):
            scenario = get_scenario(name)
            assert scenario.verify_endpoints, name
            assert scenario.params["aggregation"] == "grad"
            assert scenario.params["sync_on_first_step"] is False

    def test_example_delta_sweeps_cover_every_workload(self):
        from repro.harness.experiment import WORKLOAD_PRESETS

        names = scenario_names(tag="example")
        for workload in WORKLOAD_PRESETS:
            assert f"delta-sweep-{workload}" in names

    def test_global_registry_is_catalog_backed(self):
        assert "fig6-delta-sweep" in scenario_names()
        assert "fig6-delta-sweep" in REGISTRY

    def test_registry_populated_on_package_import(self):
        # Direct REGISTRY access (no get_scenario/scenario_names first) sees
        # the built-ins: the catalog loads with the package.
        import importlib
        import subprocess
        import sys

        importlib.import_module("repro.scenarios")
        code = (
            "from repro.scenarios import REGISTRY; "
            "assert len(REGISTRY) > 0, 'catalog not loaded with the package'"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_builtin_name_collision_fails_at_register_time(self):
        from repro.scenarios import register_scenario

        with pytest.raises(ScenarioError, match="already registered"):
            register_scenario(make_scenario("quickstart"))
