"""Bookkeeping of the reachability audit (``tools/reachability.py``).

The audit itself drives every entry point and runs as its own CI job; these
tests check what it decides from a call log, without installing its trace
hook (that would switch off a coverage tracer for the rest of the session).
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def audit():
    spec = importlib.util.spec_from_file_location(
        "reachability", ROOT / "tools" / "reachability.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _log_calls(audit, *functions):
    log = audit.CallLog()
    for fn in functions:
        log.codes[id(fn.__code__)] = fn.__code__
    return log


def test_every_keep_entry_names_a_public_function_or_method(audit):
    judged, _ = audit.public_names(audit.CallLog())
    assert sorted(set(audit.KEEP) - set(judged)) == []


def test_every_keep_entry_gives_a_reason(audit):
    assert all(reason.strip() for reason in audit.KEEP.values())


def test_a_def_owns_its_lines_without_its_nested_defs(audit):
    source = (
        "def outer():\n"
        "    x = 1\n"
        "    if x:\n"
        "        def inner():\n"
        "            return x\n"
        "    return inner\n"
    )
    defs = []
    audit._walk(ast.parse(source), "m", "m.py", "", defs)
    assert [(d.qualname, d.lines) for d in defs] == [
        ("outer", 4),
        ("outer.<locals>.inner", 2),
    ]


def test_a_decorated_def_is_keyed_by_its_first_decorator(audit):
    source = "class A:\n    @staticmethod\n    @other\n    def f():\n        pass\n"
    defs = []
    audit._walk(ast.parse(source), "m", "m.py", "", defs)
    assert [(d.qualname, d.key) for d in defs] == [("A.f", ("m.py", 2, "f"))]


def test_an_override_that_ran_reaches_the_base_method(audit):
    class Base:
        def run(self):
            raise NotImplementedError

    class Sub(Base):
        def run(self):
            return 1

    log = _log_calls(audit, Sub.run)
    assert audit._method_reached(log, Base, "run")
    assert not log.called(Base.run)
    assert not audit._method_reached(_log_calls(audit), Base, "run")
