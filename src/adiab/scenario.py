"""Scenario configuration: a single JSON document per run.

Schema (version 1), all keys lower-case, unknown keys rejected:

    model       "schwinger" | "marzlin_sanders"          required
    omega0      positive number                          required
    omega       nonnegative number                       required
    theta       number in [0, pi]                        required
    t_end       number > t_start                         required
    steps       integer >= 10                            required
    n           tracked level, 1-based, 1..2             required
    t_start     number, default 0
    name        plain file name (no '/' or NUL, not '.' or '..'), default from the file stem
    gauge       "auto" | "analytic-reference", default "auto"
    outputs     subset of ["csv", "report"], default both
    thresholds  {"margin", "adiabatic_max_c", "qac_violation"}, finite, all > 0
    schema_version   1 when present

Levels are labeled 1-based in configs, CSV headers and reports, matching
the ascending-energy convention (level 1 is the ground level); library
internals use zero-based indices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from adiab.models import SchwingerParams

__all__ = [
    "SCHEMA_VERSION",
    "MODEL_KINDS",
    "GAUGE_MODES",
    "OUTPUT_KINDS",
    "ScenarioError",
    "Thresholds",
    "Scenario",
    "parse_scenario",
    "load_scenario",
]

SCHEMA_VERSION = 1
MODEL_KINDS = ("schwinger", "marzlin_sanders")
GAUGE_MODES = ("auto", "analytic-reference")
OUTPUT_KINDS = ("csv", "report")

_MIN_STEPS = 10
_MODEL_DIM = 2  # both model kinds are two-level systems
_KNOWN_KEYS = {
    "schema_version",
    "name",
    "model",
    "omega0",
    "omega",
    "theta",
    "t_start",
    "t_end",
    "steps",
    "n",
    "gauge",
    "outputs",
    "thresholds",
}
_THRESHOLD_KEYS = {"margin", "adiabatic_max_c", "qac_violation"}


class ScenarioError(ValueError):
    """Configuration document rejected; message names the offending key."""


@dataclass(frozen=True)
class Thresholds:
    """Report thresholds: margin operationalizes "much less than"."""

    margin: float = 0.1
    adiabatic_max_c: float = 0.15
    qac_violation: float = 0.4


@dataclass(frozen=True)
class Scenario:
    name: str
    model_kind: str
    params: SchwingerParams
    t_start: float
    t_end: float
    steps: int
    level: int  # 1-based tracked level label
    gauge: str = "auto"
    thresholds: Thresholds = field(default_factory=Thresholds)
    outputs: tuple[str, ...] = OUTPUT_KINDS

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ScenarioError(f"model: expected one of {list(MODEL_KINDS)}, got {self.model_kind!r}")
        if self.gauge not in GAUGE_MODES:
            raise ScenarioError(f"gauge: expected one of {list(GAUGE_MODES)}, got {self.gauge!r}")
        if self.steps < _MIN_STEPS:
            raise ScenarioError(f"steps: must be at least {_MIN_STEPS}, got {self.steps}")
        if not self.t_end > self.t_start:
            raise ScenarioError(
                f"t_end: must exceed t_start ({self.t_start}), got {self.t_end}"
            )
        if not 1 <= self.level <= _MODEL_DIM:
            raise ScenarioError(f"n: tracked level must lie in 1..{_MODEL_DIM}, got {self.level}")


def _require(doc: dict, key: str):
    if key not in doc:
        raise ScenarioError(f"{key}: required key is missing")
    return doc[key]


def _number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{key}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ScenarioError(f"{key}: must be finite, got an integer too large for a float") from None
    if not math.isfinite(value):
        raise ScenarioError(f"{key}: must be finite, got {value!r}")
    return value


def _integer(doc: dict, key: str) -> int:
    value = _require(doc, key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{key}: expected an integer, got {value!r}")
    return value


def parse_scenario(text: str, default_name: str = "scenario") -> Scenario:
    """Parse and validate a JSON scenario document.

    Types, the name and the thresholds are checked here; the model, grid,
    level and gauge ranges are checked once, by ``Scenario`` and
    ``SchwingerParams``.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer literal past Python's digit limit
        raise ScenarioError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("document: top level must be a JSON object")

    unknown = sorted(set(doc) - _KNOWN_KEYS)
    if unknown:
        raise ScenarioError(f"{unknown[0]}: unknown key")

    if "schema_version" in doc and doc["schema_version"] != SCHEMA_VERSION:
        raise ScenarioError(
            f"schema_version: expected {SCHEMA_VERSION}, got {doc['schema_version']!r}"
        )

    model_kind = _require(doc, "model")
    omega0 = _number("omega0", _require(doc, "omega0"))
    omega = _number("omega", _require(doc, "omega"))
    theta = _number("theta", _require(doc, "theta"))
    t_start = _number("t_start", doc.get("t_start", 0.0))
    t_end = _number("t_end", _require(doc, "t_end"))
    steps = _integer(doc, "steps")
    level = _integer(doc, "n")

    name = doc.get("name", default_name)
    if not isinstance(name, str) or not name:
        raise ScenarioError(f"name: expected a nonempty string, got {name!r}")
    if "/" in name or "\0" in name or name in (".", ".."):
        raise ScenarioError(f"name: expected a plain file name, got {name!r}")

    outputs = doc.get("outputs", list(OUTPUT_KINDS))
    if not isinstance(outputs, list) or not outputs:
        raise ScenarioError(f"outputs: expected a nonempty list, got {outputs!r}")
    for item in outputs:
        if item not in OUTPUT_KINDS:
            raise ScenarioError(f"outputs: expected entries from {list(OUTPUT_KINDS)}, got {item!r}")

    thresholds_doc = doc.get("thresholds", {})
    if not isinstance(thresholds_doc, dict):
        raise ScenarioError(f"thresholds: expected an object, got {thresholds_doc!r}")
    bad = sorted(set(thresholds_doc) - _THRESHOLD_KEYS)
    if bad:
        raise ScenarioError(f"thresholds.{bad[0]}: unknown key")
    values = {}
    for key in sorted(thresholds_doc):
        value = _number(f"thresholds.{key}", thresholds_doc[key])
        if not value > 0:
            raise ScenarioError(f"thresholds.{key}: expected a positive number, got {value!r}")
        values[key] = value
    thresholds = Thresholds(**values)

    try:
        params = SchwingerParams(omega0=omega0, omega=omega, theta=theta)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    return Scenario(
        name=name,
        model_kind=model_kind,
        params=params,
        t_start=t_start,
        t_end=t_end,
        steps=steps,
        level=level,
        gauge=doc.get("gauge", "auto"),
        thresholds=thresholds,
        outputs=tuple(outputs),
    )


def load_scenario(path) -> Scenario:
    """Read a scenario file; the default name is the file stem."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario(text, default_name=path.stem)
