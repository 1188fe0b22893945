"""Scenario configuration: JSON schema, strict validation, object building.

Validation is whole-field: every key is either consumed by the schema or
rejected with its JSON path, so typos cannot silently change a run.  All
scenario files carry a `schema` version for forward compatibility.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ConfigError, DomainError
from .quantum import Superposition, superposition_from_dict
from .systems import system_from_dict

__all__ = ["Scenario", "load_scenario", "build_system", "build_state", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

KINDS = ("classical", "bohmian", "ensemble", "recurrence", "trace", "compare")
QUANTUM_KINDS = ("bohmian", "ensemble", "recurrence")

# field name -> (type or nested schema, required, default)
_LYAPUNOV = {"horizon": (float, True, None)}
_RUN_SCHEMAS = {
    "classical": {
        "launch_angle": (float, True, None),
        "duration": (float, True, None),
        "tol": (float, False, 1e-10),
        "lyapunov": (_LYAPUNOV, False, None),
        "section": ({"index": (int, True, None), "value": (float, False, 0.0),
                     "direction": (int, False, 1)}, False, None),
    },
    "bohmian": {
        "x0": (list, True, None),
        "t0": (float, False, 0.0),
        "t1": (float, True, None),
        "tol": (float, False, 1e-9),
        "lyapunov": (_LYAPUNOV, False, None),
    },
    "ensemble": {
        "n": (int, True, None),
        "seed": (int, True, None),
        "t0": (float, False, 0.0),
        "t1": (float, True, None),
        "tol": (float, False, 1e-6),
        "bins": (int, False, 50),
    },
    "recurrence": {
        "t_max": (float, True, None),
        "samples": (int, True, None),
        "match_tol": (float, False, None),
        "orbit_energy": (float, False, None),
    },
    "trace": {
        "e_min": (float, True, None),
        "e_max": (float, True, None),
        "n_grid": (int, True, None),
        "repetitions": (int, True, None),
        "gamma": (float, True, None),
    },
    "compare": {
        "inputs": (list, True, None),
        "classical_chaos_threshold": (float, False, 0.05),
        "bohmian_chaos_threshold": (float, False, 0.02),
    },
}


@dataclass
class Scenario:
    """A validated scenario: what to run, on which system/state, with what knobs."""

    name: str
    kind: str
    system: dict | None
    state: dict | None
    run: dict
    output_dir: str | None
    raw: dict


def _check_type(path, value, expected):
    if expected is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(path, f"expected a number, got {value!r}")
        return float(value)
    if expected is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(path, f"expected an integer, got {value!r}")
        return value
    if expected is list:
        if not isinstance(value, list):
            raise ConfigError(path, f"expected a list, got {value!r}")
        return value
    if expected is str:
        if not isinstance(value, str):
            raise ConfigError(path, f"expected a string, got {value!r}")
        return value
    raise ConfigError(path, f"unsupported schema type {expected!r}")


def _validate_block(path, block, schema):
    if not isinstance(block, dict):
        raise ConfigError(path, f"expected an object, got {block!r}")
    out = {}
    for key in block:
        if key not in schema:
            raise ConfigError(f"{path}.{key}", "unknown field")
    for key, (expected, required, default) in schema.items():
        if key in block:
            if isinstance(expected, dict):
                out[key] = _validate_block(f"{path}.{key}", block[key], expected)
            else:
                out[key] = _check_type(f"{path}.{key}", block[key], expected)
        elif required:
            raise ConfigError(f"{path}.{key}", "required field missing")
        else:
            out[key] = default
    return out


def validate_scenario(doc: dict, source: str = "config") -> Scenario:
    if not isinstance(doc, dict):
        raise ConfigError(source, "scenario must be a JSON object")
    allowed = {"schema", "name", "kind", "system", "state", "run", "output_dir"}
    for key in doc:
        if key not in allowed:
            raise ConfigError(key, "unknown field")
    for key in ("schema", "name", "kind", "run"):
        if key not in doc:
            raise ConfigError(key, "required field missing")
    if doc["schema"] != SCHEMA_VERSION:
        raise ConfigError("schema", f"unsupported schema version {doc['schema']!r}")
    name = _check_type("name", doc["name"], str)
    kind = _check_type("kind", doc["kind"], str)
    if kind not in KINDS:
        raise ConfigError("kind", f"must be one of {KINDS}")
    if kind in QUANTUM_KINDS and "state" not in doc:
        raise ConfigError("state", f"required for kind {kind!r}")
    if kind in ("classical", "trace") and "system" not in doc:
        raise ConfigError("system", f"required for kind {kind!r}")
    run = _validate_block("run", doc["run"], _RUN_SCHEMAS[kind])
    if kind == "bohmian":
        run["x0"] = [_check_type(f"run.x0[{i}]", v, float) for i, v in enumerate(run["x0"])]
    if kind == "ensemble" and run["n"] < 1:
        raise ConfigError("run.n", "an ensemble needs at least one member")
    tolerances = [v for k, v in run.items() if k in ("tol", "gamma", "match_tol") and v is not None]
    if any(t <= 0 for t in tolerances):
        raise ConfigError("run", "tolerances must be positive")
    return Scenario(
        name=name,
        kind=kind,
        system=doc.get("system"),
        state=doc.get("state"),
        run=run,
        output_dir=doc.get("output_dir"),
        raw=doc,
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(str(path), str(exc)) from exc
    return validate_scenario(doc, source=str(path))


def build_system(spec: dict, path: str = "system"):
    """Instantiate a system description block."""
    try:
        return system_from_dict(spec)
    except DomainError as exc:
        raise ConfigError(path, str(exc)) from exc


def build_state(spec: dict) -> Superposition:
    """Instantiate the superposition referenced by a quantum scenario."""
    if not isinstance(spec, dict) or "system" not in spec or "terms" not in spec:
        raise ConfigError("state", "state needs 'system' and 'terms'")
    try:
        return superposition_from_dict(spec)
    except (KeyError, TypeError, ValueError, DomainError) as exc:
        raise ConfigError("state", f"malformed state spec: {exc}") from exc
