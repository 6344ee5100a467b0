"""Scenario configuration: a single JSON document per run.

Schema (version 1), all keys lower-case, unknown keys rejected:

    model       "schwinger" | "marzlin_sanders"          required
    omega0      positive number                          required
    omega       nonnegative number                       required
    theta       number in [0, pi]                        required
    t_end       number > t_start, h >= 1e8 ulps, finite  required
    steps       integer in 10..1_000_000                 required
    n           tracked level, 1-based, 1..2             required
    t_start     number, default 0
    name        plain file name (no '/' or NUL, not '.' or '..'), default from the file stem
    gauge       "auto" | "analytic-reference", default "auto"
    outputs     subset of ["csv", "report"], default both
    thresholds  {"margin", "adiabatic_max_c", "qac_violation"}, finite, all > 0
    schema_version   1 when present

Levels are labeled 1-based in configs, CSV headers and reports, matching
the ascending-energy convention (level 1 is the ground level); library
internals use zero-based indices. The step h = (t_end - t_start)/steps
must be finite and at least 1e8 float spacings (ulps) of the larger
endpoint, the rule of ``TimeGrid``. The phases omega0 * t and omega * t
must be finite floats at every t: omega0 and omega times
max(|t_start|, |t_end|) may not overflow.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

from adiab.models import SchwingerParams
from adiab.propagate import TimeGrid

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
_MAX_STEPS = 1_000_000  # whole-grid stacks take about 1-2 KB per step
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

    def __post_init__(self):
        for key in sorted(_THRESHOLD_KEYS):
            value = getattr(self, key)
            if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
                raise ScenarioError(f"thresholds.{key}: expected a positive number, got {value!r}")


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
        # The name names the output files, so it must stay inside the output directory.
        if not isinstance(self.name, str) or not self.name:
            raise ScenarioError(f"name: expected a nonempty string, got {self.name!r}")
        if "/" in self.name or "\0" in self.name or self.name in (".", ".."):
            raise ScenarioError(f"name: expected a plain file name, got {self.name!r}")
        if not isinstance(self.outputs, tuple) or not self.outputs:
            raise ScenarioError(f"outputs: expected a nonempty list, got {self.outputs!r}")
        for item in self.outputs:
            if item not in OUTPUT_KINDS:
                raise ScenarioError(f"outputs: expected entries from {list(OUTPUT_KINDS)}, got {item!r}")
        if self.model_kind not in MODEL_KINDS:
            raise ScenarioError(f"model: expected one of {list(MODEL_KINDS)}, got {self.model_kind!r}")
        if self.gauge not in GAUGE_MODES:
            raise ScenarioError(f"gauge: expected one of {list(GAUGE_MODES)}, got {self.gauge!r}")
        if not isinstance(self.steps, numbers.Integral):
            raise ScenarioError(f"steps: expected an integer, got {self.steps!r}")
        if self.steps < _MIN_STEPS:
            raise ScenarioError(f"steps: must be at least {_MIN_STEPS}, got {self.steps}")
        if self.steps > _MAX_STEPS:
            raise ScenarioError(f"steps: must be at most {_MAX_STEPS}, got {self.steps}")
        for key in ("t_start", "t_end"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ScenarioError(f"{key}: expected a number, got {value!r}")
            if not math.isfinite(value):
                raise ScenarioError(f"{key}: must be finite, got {value!r}")
        try:
            # What is left to reject is the span: its order or its step size.
            TimeGrid(self.t_start, self.t_end, self.steps)
        except ValueError as exc:
            raise ScenarioError(f"t_end: {exc}") from exc
        # The phases omega*t and omega0*t must exist as floats; past that H overflows.
        t_abs = max(abs(self.t_start), abs(self.t_end))
        for key in ("omega0", "omega"):
            if not math.isfinite(getattr(self.params, key) * t_abs):
                raise ScenarioError(
                    f"{key}: {key} * max(|t_start|, |t_end|) overflows a float, "
                    f"got {getattr(self.params, key)!r} * {t_abs!r}"
                )
        if isinstance(self.level, bool) or not isinstance(self.level, numbers.Integral):
            raise ScenarioError(f"n: expected an integer, got {self.level!r}")
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

    Only the document's shape is checked here: an object, no unknown keys,
    numbers where numbers go, a list of outputs and an object of
    thresholds. Every range and rule is checked once, by ``Scenario``,
    ``Thresholds`` and ``SchwingerParams``, so a scenario built directly
    meets the same rules.
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

    if "schema_version" in doc and _integer(doc, "schema_version") != SCHEMA_VERSION:
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

    outputs = doc.get("outputs", list(OUTPUT_KINDS))
    if not isinstance(outputs, list):
        raise ScenarioError(f"outputs: expected a nonempty list, got {outputs!r}")

    thresholds_doc = doc.get("thresholds", {})
    if not isinstance(thresholds_doc, dict):
        raise ScenarioError(f"thresholds: expected an object, got {thresholds_doc!r}")
    bad = sorted(set(thresholds_doc) - _THRESHOLD_KEYS)
    if bad:
        raise ScenarioError(f"thresholds.{bad[0]}: unknown key")
    values = {key: _number(f"thresholds.{key}", thresholds_doc[key]) for key in sorted(thresholds_doc)}
    thresholds = Thresholds(**values)

    try:
        params = SchwingerParams(omega0=omega0, omega=omega, theta=theta)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    return Scenario(
        name=doc.get("name", default_name),
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
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not UTF-8 text: {exc}") from exc
    return parse_scenario(text, default_name=path.stem)
