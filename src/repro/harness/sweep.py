"""Parameter sweeps over experiment configurations.

:func:`grid_sweep` is the generic Cartesian-product driver used by the
scenario runner (:mod:`repro.scenarios.runner`) and directly by ad-hoc
experiments: it calls an arbitrary function for every combination of the
grid values and collects the outputs in a :class:`SweepResult`, keyed by
the parameter assignment that produced them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


@dataclass
class SweepResult:
    """All runs of a grid sweep, keyed by their parameter assignments.

    Each entry of :attr:`runs` is ``{"params": {...}, "output": ...}`` in
    grid order (the rightmost grid key varies fastest, like nested loops).
    """

    runs: List[Dict[str, Any]] = field(default_factory=list)

    def append(self, params: Mapping[str, Any], output: Any) -> None:
        """Record one run: its parameter assignment and the function output."""
        self.runs.append({"params": dict(params), "output": output})

    def __len__(self) -> int:
        return len(self.runs)

    def best(self, key: Callable[[Any], float], maximize: bool = True) -> Dict[str, Any]:
        """Run whose output maximizes (or minimizes) ``key``.

        ``key`` maps one run's output to a comparable score;
        ``maximize=False`` selects the minimum instead (e.g. perplexity or
        final loss).  Raises :class:`ValueError` on an empty result, which
        can only happen when runs were never appended — :func:`grid_sweep`
        rejects empty grids up front through :func:`validate_grid`.
        """
        if not self.runs:
            raise ValueError("sweep produced no runs")
        chooser = max if maximize else min
        return chooser(self.runs, key=lambda run: key(run["output"]))

    def outputs(self) -> List[Any]:
        """The bare outputs in run order (parameter assignments dropped)."""
        return [run["output"] for run in self.runs]


def validate_grid(
    grid: Mapping[str, Sequence[Any]],
    fixed: Mapping[str, Any] | None = None,
) -> Tuple[Dict[str, List[Any]], Dict[str, Any]]:
    """Normalize and validate a sweep grid; returns ``(grid, fixed)`` dicts.

    An empty grid, a grid entry with no values (either would silently
    produce zero runs, breaking the :meth:`SweepResult.best` non-emptiness
    guarantee) and a key appearing in both ``grid`` and ``fixed`` (which
    would otherwise surface as a confusing ``TypeError: multiple values``
    mid-sweep) are all rejected with :class:`ValueError` up front.  Grid values are materialized into
    lists so iterator-valued entries are not consumed by the checks.
    """
    if not grid:
        raise ValueError("grid must contain at least one parameter")
    fixed = dict(fixed or {})
    collisions = set(grid) & set(fixed)
    if collisions:
        raise ValueError(
            f"parameters {sorted(collisions)} appear in both grid and fixed"
        )
    grid = {name: list(values) for name, values in grid.items()}
    for name, values in grid.items():
        if not values:
            raise ValueError(f"grid entry {name!r} has no values")
    return grid, fixed


def grid_sweep(
    fn: Callable[..., Any],
    grid: Mapping[str, Sequence[Any]],
    fixed: Mapping[str, Any] | None = None,
) -> SweepResult:
    """Run ``fn`` for every combination of the values in ``grid``.

    ``fixed`` keyword arguments are passed to every call unchanged; see
    :func:`validate_grid` for the up-front rejections (empty grids, empty
    entries, grid/fixed collisions).
    """
    grid, fixed = validate_grid(grid, fixed)
    names = list(grid)
    result = SweepResult()
    for combo in itertools.product(*(grid[name] for name in names)):
        params = dict(zip(names, combo))
        result.append(params, fn(**fixed, **params))
    return result
