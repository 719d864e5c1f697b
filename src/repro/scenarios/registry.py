"""The scenario registry: named, tagged, immutable experiment definitions.

One process-wide :class:`ScenarioRegistry` instance (:data:`REGISTRY`) holds
every built-in scenario from :mod:`repro.scenarios.catalog`; benchmarks,
examples and the CLI resolve scenarios by name through
:func:`get_scenario` instead of duplicating grids and cluster settings.
Custom registries can be created for tests or downstream suites — the
runner accepts scenario objects directly, so registration is a convenience,
not a requirement.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Union

from repro.scenarios.spec import (
    ComparisonScenario,
    FaultScenario,
    ScenarioError,
    SweepScenario,
    ThroughputScenario,
)

Scenario = Union[SweepScenario, ComparisonScenario, ThroughputScenario, FaultScenario]

__all__ = [
    "Scenario",
    "ScenarioRegistry",
    "REGISTRY",
    "register_scenario",
    "get_scenario",
    "scenario_names",
]


class ScenarioRegistry:
    """A name → scenario mapping with duplicate protection and tag queries."""

    def __init__(self) -> None:
        self._scenarios: Dict[str, Scenario] = {}

    def register(self, scenario: Scenario) -> Scenario:
        """Add ``scenario``; a duplicate name raises :class:`ScenarioError`."""
        if not isinstance(
            scenario,
            (SweepScenario, ComparisonScenario, ThroughputScenario, FaultScenario),
        ):
            raise ScenarioError(
                f"expected a scenario dataclass, got {type(scenario).__name__}"
            )
        if scenario.name in self._scenarios:
            raise ScenarioError(f"scenario {scenario.name!r} is already registered")
        self._scenarios[scenario.name] = scenario
        return scenario

    def get(self, name: str) -> Scenario:
        """Look a scenario up by name, with the available names on failure."""
        try:
            return self._scenarios[name]
        except KeyError:
            raise ScenarioError(
                f"unknown scenario {name!r}; available: {self.names()}"
            ) from None

    def names(self, tag: Optional[str] = None) -> List[str]:
        """Sorted scenario names, optionally restricted to one tag."""
        if tag is None:
            return sorted(self._scenarios)
        return sorted(
            name for name, scenario in self._scenarios.items() if tag in scenario.tags
        )

    def __contains__(self, name: object) -> bool:
        return name in self._scenarios

    def __iter__(self) -> Iterator[Scenario]:
        for name in self.names():
            yield self._scenarios[name]

    def __len__(self) -> int:
        return len(self._scenarios)


#: The process-wide registry the catalog populates at import time.
REGISTRY = ScenarioRegistry()


def register_scenario(scenario: Scenario) -> Scenario:
    """Register ``scenario`` in the global :data:`REGISTRY`."""
    return REGISTRY.register(scenario)


def get_scenario(name: str) -> Scenario:
    """Resolve ``name`` in the global :data:`REGISTRY` (catalog included)."""
    _ensure_catalog()
    return REGISTRY.get(name)


def scenario_names(tag: Optional[str] = None) -> List[str]:
    """Names in the global :data:`REGISTRY`, optionally filtered by tag."""
    _ensure_catalog()
    return REGISTRY.names(tag)


def _ensure_catalog() -> None:
    """Import the built-in catalog exactly once (idempotent)."""
    from repro.scenarios import catalog  # noqa: F401  (import registers)
