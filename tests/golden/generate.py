"""Write ``tests/golden/trainers.json``: the trainer slice's pins.

Run from the repository root::

    PYTHONPATH=src python -m tests.golden.generate

Every pinned case of :mod:`tests.golden.trainer_slice` is run on this build
and written with the build's id.  Before anything is written, each SelSync
case's δ is checked against every Δ(g) its run observed: a δ within 1e-3
relative of one is refused, since a last-ulp difference on another build
could flip that step's decision.  Fields that differ from the previous pins
are printed one line each, so a re-pin can be stated field by field.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List

import numpy as np

from repro.core.gradient_tracker import TrackerBank
from tests.golden import trainer_slice as ts

#: Closest a δ may sit to an observed Δ(g), relative to δ.
DELTA_MARGIN = 1e-3


class DeltaTooClose(ValueError):
    """A SelSync δ sits within :data:`DELTA_MARGIN` of an observed Δ(g)."""


def check_delta_margin(delta: float, observed: List[float]) -> None:
    """Raise :class:`DeltaTooClose` if any observed Δ(g) is within the margin of δ."""
    close = [d for d in observed if abs(d - delta) <= DELTA_MARGIN * delta]
    if close:
        raise DeltaTooClose(
            f"delta={delta!r} sits within {DELTA_MARGIN:g} relative of the observed "
            f"Δ(g)={close[0]!r}: pick another delta"
        )


@contextmanager
def observed_deltas() -> Iterator[List[float]]:
    """Collect every active row's Δ(g) that a tracker bank reports."""
    seen: List[float] = []
    update = TrackerBank.update

    def recording_update(self, raw, active):
        deltas = update(self, raw, active)
        seen.extend(deltas[np.asarray(active, dtype=bool)].tolist())
        return deltas

    TrackerBank.update = recording_update
    try:
        yield seen
    finally:
        TrackerBank.update = update


def pin_case(case: ts.Case) -> Dict[str, Any]:
    """Run one case; SelSync cases must keep their δ clear of every Δ(g)."""
    with observed_deltas() as seen:
        record = ts.run_case(case)
    if ts.CONFIGS[case.config][0] == "selsync":
        check_delta_margin(ts.DELTAS[case.workload], seen)
    return record


def changed_fields(old: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """Dotted names of the fields (counters one level down) that differ."""
    names = []
    for name in sorted(set(old) | set(new)):
        if name == "counters":
            names += [f"counters.{k}" for k in sorted(set(old[name]) | set(new[name]))
                      if old[name].get(k) != new[name].get(k)]
        elif old.get(name) != new.get(name):
            names.append(name)
    return names


def main() -> int:
    try:
        previous = ts.load_pins()
    except FileNotFoundError:
        previous = {}
    cases = {case.key: pin_case(case) for case in ts.PINNED_CASES}
    for key, record in cases.items():
        if key not in previous:
            print(f"{key}: new")
        elif changed_fields(previous[key], record):
            print(f"{key}: {', '.join(changed_fields(previous[key], record))}")
    with open(ts.PINS, "w", encoding="utf-8") as handle:
        json.dump({"cases": cases}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(cases)} cases to {ts.PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
