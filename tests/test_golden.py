"""Golden equivalence: the shipped scenarios against recorded reference outputs.

Each ``tests/golden/<scenario>.json`` holds, for one shipped scenario at full
size, the report's ``summary``, ``regime`` flags and ``checks`` (plus the
``marzlin_sanders`` block of the transformed pair) and 101 evenly spaced CSV
rows. A rerun must match every float within ``FLOAT_ATOL``; regime flags,
``criteria_true_fraction`` and check verdicts must match exactly. Summation
order may change between implementations, so byte equality is not required
here (run-to-run byte identity is criterion 8d of the acceptance gate).

Regenerate the references from the repository root with

    PYTHONPATH=src python tests/test_golden.py

only when an output is meant to change, and say why in the change log.
``margins()`` gives the worst |actual - reference| of each file, the room a
change has left under ``FLOAT_ATOL``:

    PYTHONPATH=src python -c "import sys; sys.path[:0] = ['tests']; import test_golden as g; print(g.margins())"
"""

from __future__ import annotations

import functools
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from adiab.runner import emit_csv, run_scenario
from adiab.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))
GOLDEN = Path(__file__).resolve().parent / "golden"
FLOAT_ATOL = 1e-10
CSV_ROWS = 101
EXACT_KEYS = ("criteria_true_fraction", "pass", "tolerance")


def snapshot(scenario_path: Path, out_dir: Path) -> dict:
    """Report values and sampled CSV rows of one scenario run."""
    result = run_scenario(load_scenario(scenario_path))
    report = result.report.to_dict()
    lines = emit_csv(result, out_dir / f"{scenario_path.stem}.csv").read_text().splitlines()
    picks = np.linspace(1, len(lines) - 1, CSV_ROWS).round().astype(int)
    doc = {
        "summary": report["summary"],
        "regime": {k: v for k, v in report["regime"].items() if k != "description"},
        "checks": report["checks"],
        "csv_header": lines[0],
        "csv_rows": {str(i - 1): [float(x) for x in lines[i].split(",")] for i in picks},
    }
    if "marzlin_sanders" in report:
        doc["marzlin_sanders"] = report["marzlin_sanders"]
    return doc


@functools.cache
def current(stem: str) -> dict:
    """The snapshot of one shipped scenario, run once per process."""
    with tempfile.TemporaryDirectory() as tmp:
        return snapshot(ROOT / "scenarios" / f"{stem}.json", Path(tmp))


def reference(stem: str) -> dict:
    return json.loads((GOLDEN / f"{stem}.json").read_text(encoding="utf-8"))


def worst_deviation(expected, actual) -> float:
    """Largest |actual - expected| over the floats of a reference document."""
    if isinstance(expected, dict):
        return max((worst_deviation(v, actual[k]) for k, v in expected.items()), default=0.0)
    if isinstance(expected, list):
        return max((worst_deviation(e, a) for e, a in zip(expected, actual)), default=0.0)
    if isinstance(expected, float) and not isinstance(actual, bool):
        return abs(actual - expected)
    return 0.0


def margins() -> dict:
    """Worst |actual - reference| for each reference file, by scenario name."""
    return {p.stem: worst_deviation(reference(p.stem), current(p.stem)) for p in SCENARIOS}


def mismatches(expected, actual, where: str = "", exact: bool = False) -> list:
    """Every place where ``actual`` departs from ``expected`` beyond the bound."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{where}: keys differ"]
        out = []
        for key in expected:
            out += mismatches(expected[key], actual[key], f"{where}.{key}", exact or key in EXACT_KEYS)
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{where}: lengths differ"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += mismatches(e, a, f"{where}[{i}]", exact)
        return out
    if isinstance(expected, float) and not isinstance(actual, bool) and not exact:
        if isinstance(actual, (int, float)) and math.isfinite(expected) and abs(actual - expected) <= FLOAT_ATOL:
            return []
        return [f"{where}: {actual!r} vs reference {expected!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{where}: {actual!r} vs reference {expected!r}"]
    return []


@pytest.mark.parametrize("scenario_path", SCENARIOS, ids=lambda p: p.stem)
def test_matches_golden(scenario_path):
    stem = scenario_path.stem
    problems = mismatches(reference(stem), current(stem), stem)
    assert not problems, "\n".join(problems[:20])


def test_worst_deviation_within_bound():
    worst = margins()
    assert max(worst.values()) <= FLOAT_ATOL, worst


def test_every_shipped_scenario_has_a_reference():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == [p.stem for p in SCENARIOS]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for path in SCENARIOS:
            doc = snapshot(path, Path(tmp))
            (GOLDEN / f"{path.stem}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
            print(f"wrote {GOLDEN / path.stem}.json", file=sys.stderr)
