"""Scenario configuration: one schema table per block, one walk that checks them.

A table maps each field of a block to (type, default, bound).  A type is
float (any finite number), int, str, [type] (a list of that type), a nested table,
or (key, tables): the table that the block names at `key`, a dotted path
inside it.  A default of `...` marks a required field; a bound is
(operator, limit), for each item of a list, except ("items", n): at least
n items.  `_walk` rejects unknown and missing fields, wrong types and values
out of bounds with a ConfigError naming the JSON path
(`state.terms[1].n[0]: expected an integer`), and `validate_scenario` builds
the system or state last, all before any output is made.  Scenario files
carry a `schema` version for forward compatibility.
"""

from __future__ import annotations

import json
import operator
import sys
from dataclasses import dataclass

from .errors import ConfigError, DomainError
from .quantum import Superposition, superposition_from_dict
from .systems import system_from_dict

__all__ = ["Scenario", "load_scenario", "validate_scenario", "build_system", "build_state",
           "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

_TYPES = {float: ("a finite number", (int, float)), int: ("an integer", int),
          str: ("a string", str)}
_BOUNDS = {">": operator.gt, ">=": operator.ge, "in": lambda value, allowed: value in allowed}
POSITIVE = (">", 0)

_CONSTANTS = {"kind": (str, ..., None), "hbar": (float, 1.0, POSITIVE),
              "mass": (float, 1.0, POSITIVE), "dimension": (int, 1, ("in", (1, 2)))}
_SYSTEMS = {
    "diamagnetic": {"kind": (str, ..., None), "epsilon": (float, None, None),
                    "energy": (float, None, None), "field_strength": (float, None, POSITIVE)},
    "free": _CONSTANTS,
    "box": {**_CONSTANTS, "lengths": ([float], ..., POSITIVE)},
    "harmonic": {**_CONSTANTS, "omegas": ([float], ..., POSITIVE)},
}


def _systems(*kinds) -> tuple:
    return "kind", {kind: _SYSTEMS[kind] for kind in kinds}


# free states are labelled by wavenumbers, box modes from 1 and oscillator modes from 0
_QUANTUM_NUMBERS = {"free": (float, None), "box": (int, (">=", 1)), "harmonic": (int, (">=", 0))}
_STATE = "system.kind", {kind: {
    "system": (_SYSTEMS[kind], ..., None),
    "terms": ([{"c_re": (float, ..., None), "c_im": (float, ..., None),
                "n": ([number], ..., bound)}], ..., None),
} for kind, (number, bound) in _QUANTUM_NUMBERS.items()}

_LYAPUNOV = {"horizon": (float, ..., POSITIVE)}
# scenario kind -> (run table, the block it needs, that block's tables)
KINDS = {
    "classical": ({
        "launch_angle": (float, ..., None),
        "duration": (float, ..., None),
        "tol": (float, 1e-10, POSITIVE),
        "lyapunov": (_LYAPUNOV, None, None),
        "section": ({"index": (int, ..., ("in", (0, 1))), "value": (float, 0.0, None),
                     "direction": (int, 1, ("in", (-1, 1)))}, None, None),
    }, "system", _systems("diamagnetic")),
    "bohmian": ({
        "x0": ([float], ..., None),  # one coordinate per dimension of the state
        "t0": (float, 0.0, None),
        "t1": (float, ..., None),
        "tol": (float, 1e-9, POSITIVE),
        "lyapunov": (_LYAPUNOV, None, None),
    }, "state", _STATE),
    "ensemble": ({
        "n": (int, ..., (">=", 1)),
        "seed": (int, ..., (">=", 0)),
        "t0": (float, 0.0, None),
        "t1": (float, ..., None),
        "tol": (float, 1e-6, POSITIVE),
        "bins": (int, 50, (">=", 1)),
    }, "state", _STATE),
    "recurrence": ({
        "t_max": (float, ..., POSITIVE),
        "samples": (int, ..., (">=", 2)),
    }, "state", _STATE),
    "trace": ({
        "e_min": (float, ..., None),
        "e_max": (float, ..., None),
        "n_grid": (int, ..., (">=", 1)),
        "repetitions": (int, ..., (">=", 0)),
        "gamma": (float, ..., POSITIVE),
    }, "system", _systems("box", "harmonic")),
    "compare": ({"inputs": ([str], ..., ("items", 1))}, None, None),
}
_SCENARIO = "kind", {kind: {
    "schema": (int, ..., ("in", (SCHEMA_VERSION,))),
    "name": (str, ..., None),
    "kind": (str, ..., None),
    **({block: (tables, ..., None)} if block else {}),
    "run": (run, ..., None),
    "output_dir": (str, None, None),
} for kind, (run, block, tables) in KINDS.items()}
_BUILDERS = {"system": system_from_dict, "state": superposition_from_dict}


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _walk(path: str, value, expected, bound=None):
    """`value` checked against a type and a bound, numbers as floats and tables
    with their defaults filled in; ConfigError names the offending JSON path."""
    if isinstance(expected, list):
        if not isinstance(value, list):
            raise ConfigError(path, f"expected a list, got {value!r}")
        if bound and bound[0] == "items":
            if len(value) < bound[1]:
                raise ConfigError(path, f"expected at least {bound[1]} item(s), got {value!r}")
            bound = None
        return [_walk(f"{path}[{i}]", v, expected[0], bound) for i, v in enumerate(value)]
    if isinstance(expected, type):
        name, accepted = _TYPES[expected]
        # abs(value) <= max is False for inf, nan and an integer too large for a float
        if isinstance(value, bool) or not isinstance(value, accepted) or (
                expected is float and not abs(value) <= sys.float_info.max):
            raise ConfigError(path, f"expected {name}, got {value!r}")
        if bound is not None and not _BOUNDS[bound[0]](value, bound[1]):
            raise ConfigError(path, f"must be {bound[0]} {bound[1]}, got {value!r}")
        return expected(value)
    if not isinstance(value, dict):
        raise ConfigError(path or "scenario", f"expected an object, got {value!r}")
    if isinstance(expected, tuple):
        at, tables = expected
        name = value
        for field in at.split("."):
            name = name.get(field) if isinstance(name, dict) else None
        if not isinstance(name, str) or name not in tables:
            raise ConfigError(_at(path, at), f"must be one of {', '.join(tables)}, got {name!r}")
        expected = tables[name]
    for key in value:
        if key not in expected:
            raise ConfigError(_at(path, key), "unknown field")
    out = {}
    for key, (field_type, default, limit) in expected.items():
        if key in value:
            out[key] = _walk(_at(path, key), value[key], field_type, limit)
        elif default is ...:
            raise ConfigError(_at(path, key), "required field missing")
        else:
            out[key] = default
    return out


def _built(path: str, builder, block):
    """builder(block), its DomainError (a rule across fields) a ConfigError at path."""
    try:
        return builder(block)
    except DomainError as exc:
        raise ConfigError(path, str(exc)) from exc


@dataclass
class Scenario:
    """A validated scenario: what to run, on which system or state, with what knobs."""

    name: str
    kind: str
    system: object | None
    state: Superposition | None
    run: dict
    output_dir: str | None
    raw: dict


def validate_scenario(doc: dict) -> Scenario:
    """Check every field of a scenario document and build its system or state."""
    checked = _walk("", doc, _SCENARIO)
    run = checked["run"]
    if "x0" in run and len(run["x0"]) != (d := checked["state"]["system"]["dimension"]):
        raise ConfigError("run.x0", f"expected {d} coordinate(s), got {len(run['x0'])}")
    # built last, so that no warning of a builder comes before a config error
    built = {block: _built(block, builder, checked[block])
             for block, builder in _BUILDERS.items() if block in checked}
    state = built.get("state")
    return Scenario(name=checked["name"], kind=checked["kind"], system=built.get("system"),
                    state=state, run=run, output_dir=checked["output_dir"], raw=doc)


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(str(path), str(exc)) from exc
    return validate_scenario(doc)


def build_system(spec: dict):
    """A system block checked field by field, then built."""
    return _built("system", system_from_dict, _walk("system", spec, _systems(*_SYSTEMS)))


def build_state(spec: dict) -> Superposition:
    """A state block (a system and its terms) checked field by field, then built."""
    return _built("state", superposition_from_dict, _walk("state", spec, _STATE))
