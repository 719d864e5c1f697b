"""Per-action request schemas, derived from the dataclass each action builds.

The service accepts submission bodies with exactly one top-level action key
(the Trove convention)::

    {"sweep": {"workload": "deep_mlp", "algorithm": "selsync",
               "grid": {"delta": [0.1, 0.3]}}}

:data:`SCHEMAS` is built at import time from :func:`repro.api.request_fields`
— the fields of :class:`~repro.harness.experiment.RunConfig` and of the
scenario dataclasses — with each annotation mapped to a JSON type by
:func:`typing.get_origin` / :func:`typing.get_args`.  The ``scenario``
action names its registered scenario with ``name``.  Structural validation
(:func:`validate_payload`) runs before :class:`repro.api.RunRequest` builds
the dataclass, so unknown keys and type mismatches fail fast with a
field-level message.
"""

from __future__ import annotations

import typing
from typing import Any, Dict, Mapping, Tuple

from repro.api import KINDS, request_fields
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


def _schema(action: str) -> Dict[str, Any]:
    props: Dict[str, Dict[str, Any]] = {}
    for name, (annotation, required) in request_fields(action).items():
        json_type, nullable = _json_type(annotation)
        key = "name" if action == "scenario" and name == "scenario" else name
        props[key] = {"type": json_type, "nullable": nullable or not required,
                      "required": required}
    return {
        "type": "object",
        "properties": props,
        "required": sorted(k for k, v in props.items() if v["required"]),
        "additionalProperties": False,
    }


#: action name → JSON-schema-style description of its payload.
SCHEMAS: Dict[str, Dict[str, Any]] = {action: _schema(action) for action in KINDS}


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

    Checks unknown keys, required keys, and JSON types; semantic
    validation (grids, workload names, params) happens when
    :class:`repro.api.RunRequest` builds the dataclass.  Raises
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
