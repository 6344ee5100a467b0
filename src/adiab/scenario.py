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

Each value rule has one owner, the type that holds the value:
``SchwingerParams`` checks omega0, omega and theta; ``Thresholds`` the
thresholds; ``TimeGrid`` the span's order and step; ``Scenario`` every other
key. Numbers go through ``linalg.require_finite_real``, so a bool, a non-real,
NaN, an infinity and an integer too large for a float are refused alike, by
comparison, never by overflow. ``parse_scenario`` checks only the document's
shape and passes each value on as the JSON gives it, so each rule is checked
once, and a scenario built directly meets the same rules with the same
messages: ``ScenarioError``, or ``ValueError`` from ``SchwingerParams``,
naming the key. Each type stores the plain ``float``, ``int`` or ``tuple`` it
checked, whatever numeric type it was given.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

from adiab.linalg import require_finite_real
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
            try:
                checked = require_finite_real(key, value, ScenarioError)
            except ScenarioError:  # one message for every rejected threshold
                checked = math.nan
            if not checked > 0.0:
                raise ScenarioError(f"thresholds.{key}: expected a positive number, got {value!r}")
            object.__setattr__(self, key, checked)


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
        if not isinstance(self.outputs, (list, tuple)) or not self.outputs:
            raise ScenarioError(f"outputs: expected a nonempty list, got {self.outputs!r}")
        for item in self.outputs:
            if item not in OUTPUT_KINDS:
                raise ScenarioError(f"outputs: expected entries from {list(OUTPUT_KINDS)}, got {item!r}")
        if self.model_kind not in MODEL_KINDS:
            raise ScenarioError(f"model: expected one of {list(MODEL_KINDS)}, got {self.model_kind!r}")
        if self.gauge not in GAUGE_MODES:
            raise ScenarioError(f"gauge: expected one of {list(GAUGE_MODES)}, got {self.gauge!r}")
        for key, value in (("steps", self.steps), ("n", self.level)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ScenarioError(f"{key}: expected an integer, got {value!r}")
        if self.steps < _MIN_STEPS:
            raise ScenarioError(f"steps: must be at least {_MIN_STEPS}, got {self.steps}")
        if self.steps > _MAX_STEPS:
            raise ScenarioError(f"steps: must be at most {_MAX_STEPS}, got {self.steps}")
        if not 1 <= self.level <= _MODEL_DIM:
            raise ScenarioError(f"n: tracked level must lie in 1..{_MODEL_DIM}, got {self.level}")
        for key in ("t_start", "t_end"):
            object.__setattr__(self, key, require_finite_real(key, getattr(self, key), ScenarioError))
        for key, kind in (("steps", int), ("level", int), ("outputs", tuple)):
            object.__setattr__(self, key, kind(getattr(self, key)))
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


def _require(doc: dict, key: str):
    if key not in doc:
        raise ScenarioError(f"{key}: required key is missing")
    return doc[key]


def parse_scenario(text: str, default_name: str = "scenario") -> Scenario:
    """Parse a JSON scenario document into a validated ``Scenario``.

    Only the document's shape is checked here: a JSON object, no unknown
    keys, ``schema_version``, the required keys, and ``thresholds`` as an
    object of known keys. Every value is passed on as the JSON gives it, and
    every value rule is checked once, by the type that holds the value:
    ``SchwingerParams`` (omega0, omega, theta), ``Thresholds``, and
    ``Scenario`` (the rest, with ``TimeGrid`` for the span). So a scenario
    built directly meets the same rules, with the same messages.
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

    version = doc.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ScenarioError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")

    thresholds = doc.get("thresholds", {})
    if not isinstance(thresholds, dict):
        raise ScenarioError(f"thresholds: expected an object, got {thresholds!r}")
    bad = sorted(set(thresholds) - _THRESHOLD_KEYS)
    if bad:
        raise ScenarioError(f"thresholds.{bad[0]}: unknown key")

    omega0, omega, theta = (_require(doc, key) for key in ("omega0", "omega", "theta"))
    try:
        params = SchwingerParams(omega0, omega, theta)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    return Scenario(
        name=doc.get("name", default_name),
        model_kind=_require(doc, "model"),
        params=params,
        t_start=doc.get("t_start", 0.0),
        t_end=_require(doc, "t_end"),
        steps=_require(doc, "steps"),
        level=_require(doc, "n"),
        gauge=doc.get("gauge", "auto"),
        thresholds=Thresholds(**thresholds),
        outputs=doc.get("outputs", OUTPUT_KINDS),
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
