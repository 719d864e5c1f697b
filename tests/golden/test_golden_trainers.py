"""The trainer slice of the golden corpus (see :mod:`tests.golden.trainer_slice`).

Every lockstep trainer config is run and held to its pin in
``trainers.json``; a restore case is held to the plain pin it replays.
"""

from __future__ import annotations

import copy

import pytest

from tests.golden import trainer_slice as ts
from tests.golden.generate import DeltaTooClose, check_delta_margin, observed_deltas

PINS = ts.load_pins()


def test_pins_cover_exactly_the_pinned_cases():
    assert sorted(PINS) == sorted(case.key for case in ts.PINNED_CASES)


@pytest.mark.parametrize("case", ts.CASES, ids=lambda case: case.key)
def test_case_matches_its_pin(case):
    pin = PINS[case.pin_key]
    assert ts.mismatches(ts.run_case(case), pin, case.dtype) == []


@pytest.fixture(scope="module")
def other_build_run():
    """A run compared as if the pins came from another NumPy / BLAS build."""
    case = ts.Case("selsync_pa", "deep_mlp", "float32", "plain")
    got = ts.run_case(case)
    got["build"] = "another build"
    return case, got


def test_another_build_compares_at_tolerance(other_build_run):
    case, got = other_build_run
    pin = PINS[case.key]
    assert got["build"] != pin["build"]
    assert ts.mismatches(got, pin, case.dtype) == []
    nudged = copy.deepcopy(got)
    nudged["params_sha256"] = "0" * 64
    nudged["loss"][-1] *= 1.0 + 1e-7
    nudged["eval"][-1][3] *= 1.0 + 1e-7
    assert ts.mismatches(nudged, pin, case.dtype) == []


def test_another_build_still_holds_decisions_counters_and_floats(other_build_run):
    case, got = other_build_run
    pin = PINS[case.key]
    for field, edit in (
        ("synced", lambda r: r["synced"].__setitem__(3, not r["synced"][3])),
        ("counters", lambda r: r["counters"].__setitem__("ps_pushed_bytes", 1.0)),
        ("loss", lambda r: r["loss"].__setitem__(-1, r["loss"][-1] * (1.0 + 1e-3))),
        ("eval", lambda r: r["eval"][-1].__setitem__(1, r["eval"][-1][1] + 1e-9)),
    ):
        broken = copy.deepcopy(got)
        edit(broken)
        assert ts.mismatches(broken, pin, case.dtype) == [field]


def test_generator_refuses_a_delta_next_to_an_observed_change():
    case = ts.Case("selsync_ga", "deep_mlp", "float64", "plain")
    with observed_deltas() as seen:
        ts.run_case(case)
    check_delta_margin(ts.DELTAS[case.workload], seen)
    observed = max(seen)
    with pytest.raises(DeltaTooClose, match="pick another delta"):
        check_delta_margin(observed * (1.0 + 5e-4), seen)
