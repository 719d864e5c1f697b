"""Per-action request schemas, derived from the frozen scenario dataclasses.

The service accepts submission bodies with exactly one top-level action key
(the Trove convention)::

    {"sweep": {"workload": "deep_mlp", "algorithm": "selsync",
               "grid": {"delta": [0.1, 0.3]}}}

Instead of hand-maintaining a schema per action (which would drift the
moment a scenario dataclass gains a field), :data:`SCHEMAS` is built at
import time by reflecting over :class:`~repro.scenarios.spec.SweepScenario`,
:class:`~repro.scenarios.spec.ComparisonScenario` and
:class:`~repro.scenarios.spec.ThroughputScenario` with
:func:`typing.get_type_hints` — each dataclass field becomes a JSON-schema
property with its Python type mapped to a JSON type (``fixed`` is renamed to
the façade's canonical ``params`` spelling, ``name`` is service-assigned and
dropped).  Structural validation (:func:`validate_payload`) runs before the
deep :meth:`repro.api.RunRequest.validate` pass, so unknown keys and
type mismatches fail fast with a field-level message.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.api import KINDS, RunRequest
from repro.scenarios.spec import ComparisonScenario, SweepScenario, ThroughputScenario
from repro.service.exceptions import BadRequest

__all__ = ["SCHEMAS", "get_action", "validate_payload"]

#: JSON type name → Python types accepted for it.  ``bool`` is checked
#: before ``integer`` (a Python bool is an int) in :func:`_type_ok`.
_JSON_TYPES: Dict[str, Tuple[type, ...]] = {
    "string": (str,),
    "integer": (int,),
    "number": (int, float),
    "boolean": (bool,),
    "object": (dict,),
    "array": (list, tuple),
}


def _json_type(py_type: Any) -> Tuple[str, bool]:
    """Map a (possibly Optional/generic) annotation to (json type, nullable)."""
    origin = typing.get_origin(py_type)
    if origin is typing.Union:
        args = [a for a in typing.get_args(py_type) if a is not type(None)]
        nullable = len(args) < len(typing.get_args(py_type))
        json_type, _ = _json_type(args[0]) if args else ("object", True)
        return json_type, nullable
    if origin is not None:
        py_type = origin
    if py_type is bool:
        return "boolean", False
    if py_type is int:
        return "integer", False
    if py_type is float:
        return "number", False
    if py_type is str:
        return "string", False
    if isinstance(py_type, type) and issubclass(py_type, (list, tuple)):
        return "array", False
    if py_type is Any:
        return "any", True
    return "object", False


#: Dataclass fields never accepted from a payload: the service names ad-hoc
#: scenarios itself.
_DROPPED_FIELDS = frozenset({"name"})

#: scenario-dataclass spelling → façade spelling.
_RENAMES = {"fixed": "params"}


def _properties_from(dataclass_type: type) -> Dict[str, Dict[str, Any]]:
    hints = typing.get_type_hints(dataclass_type)
    props: Dict[str, Dict[str, Any]] = {}
    for field in dataclasses.fields(dataclass_type):
        if field.name in _DROPPED_FIELDS:
            continue
        json_type, nullable = _json_type(hints[field.name])
        required = (
            field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING
        )
        props[_RENAMES.get(field.name, field.name)] = {
            "type": json_type,
            "nullable": nullable or not required,
            "required": required,
        }
    return props


def _build_schemas() -> Dict[str, Dict[str, Any]]:
    schemas: Dict[str, Dict[str, Any]] = {}
    for action, source in (
        ("sweep", SweepScenario),
        ("comparison", ComparisonScenario),
        ("throughput", ThroughputScenario),
    ):
        props = _properties_from(source)
        # ``title`` has no default on the dataclasses but the façade titles
        # ad-hoc scenarios itself.
        props["title"].update(required=False, nullable=True)
        schemas[action] = {
            "type": "object",
            "properties": props,
            "required": sorted(k for k, v in props.items() if v["required"]),
            "additionalProperties": False,
        }
    # The experiment action is the RunRequest's own shape (one training run,
    # no scenario dataclass behind it).
    request_props = _properties_from(RunRequest)
    experiment_props = {
        key: dict(value)
        for key, value in request_props.items()
        if key not in ("kind", "scenario", "grid", "options")
    }
    for key in ("workload", "algorithm"):
        experiment_props[key].update(required=True, nullable=False)
    schemas["experiment"] = {
        "type": "object",
        "properties": experiment_props,
        "required": ["algorithm", "workload"],
        "additionalProperties": False,
    }
    # The scenario action runs a *registered* scenario with run-time
    # overrides only.
    schemas["scenario"] = {
        "type": "object",
        "properties": {
            "name": {"type": "string", "nullable": False, "required": True},
            "iterations": {"type": "integer", "nullable": True, "required": False},
            "num_workers": {"type": "integer", "nullable": True, "required": False},
            "seed": {"type": "integer", "nullable": True, "required": False},
            "fault_seed": {"type": "integer", "nullable": True, "required": False},
        },
        "required": ["name"],
        "additionalProperties": False,
    }
    assert set(schemas) == set(KINDS)
    return schemas


#: action name → JSON-schema-style description of its payload.
SCHEMAS: Dict[str, Dict[str, Any]] = _build_schemas()


def get_action(body: Mapping[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """Extract the single ``{action: payload}`` pair from a submission body."""
    if not isinstance(body, Mapping):
        raise BadRequest(f"submission body must be an object, got {type(body).__name__}")
    keys = list(body.keys())
    if len(keys) != 1:
        raise BadRequest(
            f"submission body must have exactly one action key, got {keys or 'none'}; "
            f"actions: {sorted(SCHEMAS)}"
        )
    action = keys[0]
    if action not in SCHEMAS:
        raise BadRequest(f"unknown action {action!r}; one of {sorted(SCHEMAS)}")
    payload = body[action]
    if not isinstance(payload, Mapping):
        raise BadRequest(f"{action} payload must be an object, got {type(payload).__name__}")
    return action, dict(payload)


def _type_ok(value: Any, json_type: str) -> bool:
    if json_type == "any":
        return True
    accepted = _JSON_TYPES[json_type]
    if json_type in ("integer", "number") and isinstance(value, bool):
        return False
    return isinstance(value, accepted)


def validate_payload(action: str, payload: Mapping[str, Any]) -> None:
    """Structurally validate ``payload`` against :data:`SCHEMAS[action]`.

    Checks unknown keys, required keys, and JSON types; deep semantic
    validation (grids, workload names) is
    :meth:`repro.api.RunRequest.validate`'s job.  Raises
    :class:`BadRequest` with a field-level message.
    """
    schema = SCHEMAS[action]
    props = schema["properties"]
    unknown = sorted(set(payload) - set(props))
    if unknown:
        raise BadRequest(
            f"{action} payload has unknown fields {unknown}; "
            f"allowed: {sorted(props)}",
            details={"unknown": unknown},
        )
    missing = sorted(k for k in schema["required"] if payload.get(k) is None)
    if missing:
        raise BadRequest(
            f"{action} payload is missing required fields {missing}",
            details={"missing": missing},
        )
    for key, value in payload.items():
        spec = props[key]
        if value is None:
            if spec["nullable"]:
                continue
            raise BadRequest(f"{action}.{key} must not be null")
        if not _type_ok(value, spec["type"]):
            raise BadRequest(
                f"{action}.{key} must be of type {spec['type']}, "
                f"got {type(value).__name__}"
            )
