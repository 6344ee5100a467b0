#!/usr/bin/env python3
"""Compare what two checkouts emit for the shipped scenarios.

    python3 scripts/compare_outputs.py PARENT CHANGE [--atol 1e-12] [--work DIR] [--scenarios DIR]

PARENT and CHANGE are two checkouts. The script runs ``adiab batch
scenarios`` in each, from its own ``src/``, into a directory of its own
under a scratch directory (``--work``, or a temporary one that is removed
afterwards). ``--scenarios`` runs another directory of scenario documents
instead, the same one for both sides.

For every file either side wrote it prints one row: the worst |Δ| over the
report's floats, or over the CSV columns both sides emit, matched by
name; whether every flag is equal (in a report: verdicts and the other
strings, pass and regime flags, integers, and the whole
``criteria_true_fraction``; in a CSV: the header and the row count); and
whether the bytes are identical. Below the table it names each CSV column
that only one side emits, so a change that drops or adds columns still
shows whether the columns it kept moved. NaN against NaN counts as equal,
as does a float against an equal float.

No shipped scenario is above two levels, so the script also runs, in each
checkout, ``run_pipeline(random_smooth_model(d, seed=3), TimeGrid(0, 0.004·K,
K), 1)`` at d = 3, 8 and 16 (K = 400), and prints one row per d: the worst
|Δ| over the arrays ``eigenvalues``, ``states``, ``c``, ``q``, ``r``,
``residual``, ``probability_defect`` and ``criteria_ratios``, whether their
names and shapes agree, whether every array is bit for bit the same, and
which arrays are not.

It exits 1 when a worst |Δ| passes ``--atol`` (default 1e-12), when any flag
differs or when a file or a run is missing on one side, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

EXACT_KEYS = ("criteria_true_fraction",)
DENSE_DIMS = (3, 8, 16)
DENSE_STEPS = 400
DENSE_ARRAYS = ("eigenvalues", "states", "c", "q", "r", "residual", "probability_defect", "criteria_ratios")
# run in a checkout's own interpreter: argv is dim, steps, the .npz to write
_DENSE_RUN = """
import sys
import numpy as np
from adiab.models import random_smooth_model
from adiab.propagate import TimeGrid
from adiab.runner import run_pipeline
dim, steps = int(sys.argv[1]), int(sys.argv[2])
run = run_pipeline(random_smooth_model(dim, seed=3), TimeGrid(0.0, 0.004 * steps, steps), 1)
d = run.diagnostics
np.savez(sys.argv[3], eigenvalues=run.path.eigenvalues, states=run.trajectory.states, c=d.c, q=d.q,
         r=d.r, residual=d.residual, probability_defect=d.probability_defect,
         criteria_ratios=d.criteria_ratios)
"""


def _delta(a: float, b: float) -> float:
    if math.isnan(a) and math.isnan(b):
        return 0.0
    if a == b:  # equal infinities too
        return 0.0
    return abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf


def compare_csv(parent: str, change: str) -> tuple:
    """(worst |Δ|, flags equal, columns only one side has) of two CSV texts.

    Columns are matched by header name, and the worst |Δ| runs over the
    columns both sides emit. The flags are equal when the headers and the
    row counts are; the third item is ``{"parent": [...], "change": [...]}``.
    """
    rows_p = list(csv.reader(io.StringIO(parent)))
    rows_c = list(csv.reader(io.StringIO(change)))
    header_p, header_c = (rows[0] if rows else [] for rows in (rows_p, rows_c))
    only = {
        "parent": [name for name in header_p if name not in header_c],
        "change": [name for name in header_c if name not in header_p],
    }
    if not (rows_p and rows_c) or len(rows_p) != len(rows_c):
        return math.inf, False, only
    pairs = [(header_p.index(name), header_c.index(name)) for name in header_p if name in header_c]
    worst = 0.0
    for row_p, row_c in zip(rows_p[1:], rows_c[1:]):
        if len(row_p) != len(header_p) or len(row_c) != len(header_c):
            return math.inf, False, only
        for i, j in pairs:
            worst = max(worst, _delta(float(row_p[i]), float(row_c[j])))
    return worst, header_p == header_c, only


def _walk(parent, change, exact: bool) -> tuple:
    """(worst |Δ| over the floats, whether everything else is equal)."""
    if isinstance(parent, dict):
        if not isinstance(change, dict) or list(parent) != list(change):
            return math.inf, False
        worst, flags = 0.0, True
        for key in parent:
            w, f = _walk(parent[key], change[key], exact or key in EXACT_KEYS)
            worst, flags = max(worst, w), flags and f
        return worst, flags
    if isinstance(parent, list):
        if not isinstance(change, list) or len(parent) != len(change):
            return math.inf, False
        worst, flags = 0.0, True
        for p, c in zip(parent, change):
            w, f = _walk(p, c, exact)
            worst, flags = max(worst, w), flags and f
        return worst, flags
    if type(parent) is float and type(change) is float and not exact:
        return _delta(parent, change), True
    if type(parent) is float and type(change) is float:
        return 0.0, _delta(parent, change) == 0.0
    return 0.0, type(parent) is type(change) and parent == change


def compare_report(parent: str, change: str) -> tuple:
    """(worst |Δ| over the floats, whether every flag is equal) of two report texts."""
    return _walk(json.loads(parent), json.loads(change), False)


def compare_file(name: str, parent: str, change: str) -> dict:
    """One file's row: worst |Δ|, flags equal, bytes identical; a CSV's also its ``only`` columns."""
    if not name.endswith(".csv"):
        worst, flags = compare_report(parent, change)
        return {"file": name, "worst": worst, "flags_equal": flags, "identical": parent == change}
    worst, flags, only = compare_csv(parent, change)
    return {"file": name, "worst": worst, "flags_equal": flags, "identical": parent == change, "only": only}


def compare_arrays(name: str, parent: dict, change: dict) -> dict:
    """One run's row: worst |Δ| over its arrays, names and shapes equal, bits identical.

    ``parent`` and ``change`` map array names to numpy arrays, and an empty
    mapping stands for a run that failed; ``moved`` lists the arrays that
    are not bit for bit the same. NaN against NaN counts as equal, as in
    the files.
    """
    if not (parent and change) or list(parent) != list(change) or any(
        parent[k].shape != change[k].shape for k in parent
    ):
        return {"file": name, "worst": math.inf, "flags_equal": False, "identical": False,
                "moved": list(parent or change)}
    worst, moved = 0.0, []
    for key, a in parent.items():
        b = change[key]
        if np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes():
            continue
        moved.append(key)
        with np.errstate(invalid="ignore"):
            delta = np.abs(a - b)
            delta[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
        delta[np.isnan(delta)] = math.inf
        worst = max(worst, float(delta.max(initial=0.0)))
    return {"file": name, "worst": worst, "flags_equal": True, "identical": not moved, "moved": moved}


def verdict(rows: list, atol: float) -> bool:
    """Whether every row is within ``atol`` and has equal flags."""
    return all(row["worst"] <= atol and row["flags_equal"] for row in rows)


def _batch(checkout: Path, scenarios: str, out: Path) -> int:
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "adiab", "batch", scenarios, "--out", str(out.resolve())],
        cwd=checkout,
        env=env,
        capture_output=True,
        text=True,
    )
    return proc.returncode


def _dense_run(checkout: Path, dim: int, out: Path) -> dict:
    # the arrays of one dense run in ``checkout``, or {} when the run fails
    out.parent.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    cmd = [sys.executable, "-c", _DENSE_RUN, str(dim), str(DENSE_STEPS), str(out.resolve())]
    if subprocess.run(cmd, cwd=checkout, env=env, capture_output=True).returncode != 0:
        return {}
    with np.load(out) as arrays:
        return {key: arrays[key] for key in DENSE_ARRAYS}


def _compare_dense(parent: Path, change: Path, work: Path) -> list:
    return [
        compare_arrays(
            f"random_smooth_model d={dim}",
            _dense_run(parent, dim, work / "parent_dense" / f"d{dim}.npz"),
            _dense_run(change, dim, work / "change_dense" / f"d{dim}.npz"),
        )
        for dim in DENSE_DIMS
    ]


def _compare_dirs(parent: Path, change: Path) -> list:
    names = sorted({p.name for p in parent.iterdir()} | {p.name for p in change.iterdir()})
    rows = []
    for name in names:
        p, c = parent / name, change / name
        if not (p.exists() and c.exists()):
            rows.append({"file": name, "worst": math.inf, "flags_equal": False, "identical": False})
            continue
        # read as bytes so that line endings are compared too
        rows.append(compare_file(name, p.read_bytes().decode("utf-8"), c.read_bytes().decode("utf-8")))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--atol", type=float, default=1e-12, help="largest |Δ| allowed (default 1e-12)")
    parser.add_argument("--work", type=Path, help="scratch directory for the outputs (default: temporary)")
    parser.add_argument(
        "--scenarios", default="scenarios", help="scenario directory (default: each checkout's scenarios)"
    )
    args = parser.parse_args(argv)
    scenarios = args.scenarios if args.scenarios == "scenarios" else str(Path(args.scenarios).resolve())

    with tempfile.TemporaryDirectory() as tmp:
        work = args.work if args.work is not None else Path(tmp)
        codes = {side: _batch(getattr(args, side), scenarios, work / side) for side in ("parent", "change")}
        rows = _compare_dirs(work / "parent", work / "change")
        dense = _compare_dense(args.parent, args.change, work)

    print(f"{'file':<32}{'worst |Δ|':>12}  flags equal  identical")
    for row in rows:
        print(f"{row['file']:<32}{row['worst']:>12.3e}  {str(row['flags_equal']):<11}  {row['identical']}")
    for row in rows:
        for side, names in row.get("only", {}).items():
            if names:
                print(f"{row['file']}: only {side} has {', '.join(names)}")
    identical = sum(row["identical"] for row in rows)
    worst = max((row["worst"] for row in rows), default=0.0)
    print(f"\n{identical} of {len(rows)} files byte-identical; worst |Δ| {worst:.3e} (atol {args.atol:.1e})")
    print(f"batch exit codes: parent {codes['parent']}, change {codes['change']}")
    print(f"\n{'run (K = ' + str(DENSE_STEPS) + ', level 1)':<32}{'worst |Δ|':>12}  flags equal  identical  moved")
    for row in dense:
        print(
            f"{row['file']:<32}{row['worst']:>12.3e}  {str(row['flags_equal']):<11}  "
            f"{str(row['identical']):<9}  {', '.join(row['moved']) or '-'}"
        )
    ok = verdict(rows + dense, args.atol) and codes["parent"] == codes["change"]
    print("outputs agree" if ok else "outputs DIFFER")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
