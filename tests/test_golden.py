"""Golden equivalence: the shipped scenarios against recorded reference outputs.

Each ``tests/golden/<scenario>.json`` holds, for one shipped scenario at full
size, the report's ``summary``, ``regime`` flags and ``checks`` (plus the
``marzlin_sanders`` block of the transformed pair) and 101 evenly spaced CSV
rows. A rerun must match every float within ``FLOAT_ATOL``; regime flags,
``criteria_true_fraction`` and check verdicts must match exactly. Summation
order may change between implementations, so byte equality is not required
here (run-to-run byte identity is criterion 8d of the acceptance gate).

From the repository root,

    PYTHONPATH=src python tests/test_golden.py [STEM ...]

runs every shipped scenario and prints, for each reference file, how many of
its floats would move and the worst |new - old| with its key. It then
rewrites only the references named on the command line (``marzlin_sanders``
for ``tests/golden/marzlin_sanders.json``); with no name it writes nothing.
Re-record only when an output is meant to change, and say why in the change
log.
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


def float_pairs(expected, actual, where: str = ""):
    """``(key, reference, current)`` for each float of a reference document.

    Walks ``expected``; a key or list entry missing from ``actual`` is skipped.
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key, value in expected.items():
            if key in actual:
                yield from float_pairs(value, actual[key], f"{where}.{key}" if where else key)
    elif isinstance(expected, list) and isinstance(actual, list):
        for i, (e, a) in enumerate(zip(expected, actual)):
            yield from float_pairs(e, a, f"{where}[{i}]")
    elif isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        yield where, expected, actual


def worst_deviation(expected, actual) -> float:
    """Largest |actual - expected| over the floats of a reference document."""
    return max((abs(a - e) for _, e, a in float_pairs(expected, actual)), default=0.0)


def movement(expected, actual) -> str:
    """How many floats of a reference would move, and the worst move with its key."""
    pairs = list(float_pairs(expected, actual))
    moved = [(abs(a - e), key) for key, e, a in pairs if a != e]
    if not moved:
        return f"0 of {len(pairs)} floats move"
    worst, key = max(moved)
    return f"{len(moved)} of {len(pairs)} floats move, worst {worst:.3g} at {key}"


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


def test_movement_counts_moved_floats_and_names_the_worst():
    old = {"summary": {"a": 1.0, "b": 2.0, "flag": True}, "rows": {"0": [0.5, 0.25]}}
    new = {"summary": {"a": 1.0, "b": 2.0 + 3e-12, "flag": True}, "rows": {"0": [0.5 - 1e-11, 0.25]}}
    assert movement(old, old) == "0 of 4 floats move"
    assert movement(old, new) == "2 of 4 floats move, worst 1e-11 at rows.0[0]"


def test_every_shipped_scenario_has_a_reference():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == [p.stem for p in SCENARIOS]


def main(stems: list) -> int:
    """Report what a re-record would move in every reference; write ``stems``."""
    known = [p.stem for p in SCENARIOS]
    unknown = sorted(set(stems) - set(known))
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}; expected some of {', '.join(known)}", file=sys.stderr)
        return 2
    GOLDEN.mkdir(exist_ok=True)
    for stem in known:
        doc = current(stem)
        path = GOLDEN / f"{stem}.json"
        print(f"{stem}: {movement(reference(stem), doc) if path.exists() else 'no reference yet'}")
        if stem in stems:
            path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
            print(f"  wrote {path}")
    if not stems:
        print("nothing written; name the scenarios to re-record")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
