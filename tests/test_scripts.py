import importlib.util
import json
import math
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_convergence_study_reports_second_order(capsys):
    study = _load("convergence_study")
    assert study.main(["--base-steps", "200", "--doublings", "1", "--t-end", "4"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == ["steps", "200", "400"]
    ratio = float(rows[-1].split()[-1])
    assert 3.5 <= ratio <= 4.5  # h^2 scaling, as C2 bounds it


def test_bench_pairs_gain_rule():
    # the decision only; no benchmark runs here
    rule = _load("bench_pairs").gain_holds
    parent = [100.0, 101.0, 99.0, 100.5, 100.0, 99.5, 100.0, 101.0, 99.0, 100.0]
    faster = [p + 5.0 for p in parent]
    assert rule(parent, faster, higher_is_better=True)["holds"]
    assert rule(faster, parent, higher_is_better=False)["holds"]  # lower is better, e.g. seconds
    assert not rule(parent, faster, higher_is_better=False)["holds"]
    # 8 of 10 wins is below nine tenths, however large the gap
    eight = faster[:8] + [p - 1.0 for p in parent[8:]]
    assert rule(parent, eight, higher_is_better=True)["wins"] == 8
    assert not rule(parent, eight, higher_is_better=True)["holds"]
    # ties count for neither side
    nine = faster[:9] + parent[9:]
    assert rule(parent, nine, higher_is_better=True)["wins"] == 9
    assert rule(parent, nine, higher_is_better=True)["holds"]
    # 10 of 10 wins, but the median gap (0.5) is inside the parent's IQR (0.75)
    result = rule(parent, [p + 0.5 for p in parent], higher_is_better=True)
    assert result["wins"] == 10 and result["parent_iqr"] == 0.75 and result["gap"] == 0.5
    assert not result["holds"]
    assert rule(parent, [p + 1.0 for p in parent], higher_is_better=True)["holds"]


def test_compare_outputs_on_small_pairs():
    # the comparison only, on in-memory texts; no batch runs here
    compare = _load("compare_outputs")
    csv_a = "t,abs_c_1\n0.0,1.0\n0.5,0.25\n"
    row = compare.compare_file("x.csv", csv_a, csv_a)
    only_none = {"parent": [], "change": []}
    assert row == {"file": "x.csv", "worst": 0.0, "flags_equal": True, "identical": True, "only": only_none}
    moved = compare.compare_file("x.csv", csv_a, "t,abs_c_1\n0.0,1.0\n0.5,0.25000000000001\n")
    assert 0.0 < moved["worst"] < 2e-14 and moved["flags_equal"] and not moved["identical"]
    assert compare.verdict([moved], atol=1e-12) and not compare.verdict([moved], atol=1e-15)
    # a different header or row count is a flag difference
    assert not compare.compare_file("x.csv", csv_a, "t,abs_c_2\n0.0,1.0\n0.5,0.25\n")["flags_equal"]
    assert not compare.compare_file("x.csv", csv_a, "t,abs_c_1\n0.0,1.0\n")["flags_equal"]
    # a CSV without abs_c_1: the shared column t is compared, abs_c_1 named
    row = compare.compare_file("x.csv", csv_a, "t\n0.0\n0.5\n")
    assert row["worst"] == 0.0 and not row["flags_equal"]
    assert row["only"] == {"parent": ["abs_c_1"], "change": []}
    assert not compare.verdict([row], atol=1.0)
    # NaN against NaN is equal; NaN against a number is not
    assert compare.compare_file("x.csv", "a\nnan\n", "a\nnan\n")["worst"] == 0.0
    assert compare.compare_file("x.csv", "a\nnan\n", "a\n1.0\n")["worst"] == math.inf

    report = {
        "summary": {"max_lambda_residual": 1e-9, "criteria_true_fraction": {"a": 0.5, "b": 1.0, "c": None}},
        "regime": {"qac_violated": True, "description": "adiabatic approximation holds"},
        "checks": {"lambda": {"value": 1e-9, "tolerance": 1e-7, "pass": True}},
        "pass": True,
    }

    def changed(path, value):
        doc = json.loads(json.dumps(report))
        *keys, last = path
        node = doc
        for key in keys:
            node = node[key]
        node[last] = value
        return compare.compare_file("x.report.json", json.dumps(report), json.dumps(doc))

    moved = changed(("summary", "max_lambda_residual"), 1e-9 + 3e-13)
    assert 2e-13 < moved["worst"] < 4e-13 and moved["flags_equal"]
    assert not compare.verdict([moved], atol=1e-13)
    # verdicts, pass and regime flags and criteria fractions must be equal, however close
    for path, value in [
        (("pass",), False),
        (("checks", "lambda", "pass"), False),
        (("regime", "qac_violated"), False),
        (("regime", "description"), "adiabatic approximation fails"),
        (("summary", "criteria_true_fraction", "a"), 0.5 + 1e-16),
        (("summary", "criteria_true_fraction", "c"), 0.0),
    ]:
        row = changed(path, value)
        assert not row["flags_equal"], path
        assert not compare.verdict([row], atol=1.0), path


def test_compare_outputs_matches_csv_columns_by_name():
    # the columns both sides emit are compared by name, wherever each side puts
    # them; a column only one side has is named and flags the file
    compare = _load("compare_outputs")
    parent = "t,abs_c_1,re_c_1,qac_2\n0.0,1.0,0.5,nan\n0.5,0.25,0.125,0.75\n"
    change = "t,qac_2,re_c_1,extra\n0.0,nan,0.5,9.0\n0.5,0.7500000000001,0.125,9.0\n"
    worst, flags, only = compare.compare_csv(parent, change)
    assert 0.0 < worst < 2e-13 and not flags
    assert only == {"parent": ["abs_c_1"], "change": ["extra"]}
    # a shared column that moved past the bound shows, though the headers differ
    moved = change.replace("0.125,9.0", "0.25,9.0")
    assert compare.compare_csv(parent, moved)[0] == 0.125
    # the same columns in another order: equal floats, but a flag difference
    reordered = "t,re_c_1,abs_c_1,qac_2\n0.0,0.5,1.0,nan\n0.5,0.125,0.25,0.75\n"
    assert compare.compare_csv(parent, reordered) == (0.0, False, {"parent": [], "change": []})
    # a different row count, or a short row, cannot be compared
    assert compare.compare_csv(parent, "t,abs_c_1,re_c_1,qac_2\n0.0,1.0,0.5,nan\n")[:2] == (math.inf, False)
    assert compare.compare_csv(parent, parent.replace("0.125,0.75", "0.125"))[:2] == (math.inf, False)


def test_compare_outputs_on_arrays():
    # the array comparison of the dense runs only; no runs here
    compare = _load("compare_outputs")
    q = np.array([[math.nan, 0.5 + 0.25j], [math.nan, complex(-0.0, 1.0)]])
    arrays = {"c": np.array([[1.0 + 0j, 0.0]]), "q": q, "probability_defect": np.array([0.0, 2e-16])}
    same = {key: value.copy() for key, value in arrays.items()}
    row = compare.compare_arrays("d=3", arrays, same)
    assert row == {"file": "d=3", "worst": 0.0, "flags_equal": True, "identical": True, "moved": []}
    # one array moved by an ulp: only it is named, and the worst |Δ| is its move
    moved = dict(same, probability_defect=np.array([0.0, 2e-16 + 2**-105]))
    row = compare.compare_arrays("d=3", arrays, moved)
    assert row["moved"] == ["probability_defect"] and not row["identical"] and row["flags_equal"]
    assert 0.0 < row["worst"] <= 2**-104
    assert compare.verdict([row], atol=1e-15) and not compare.verdict([row], atol=1e-40)
    # a flipped zero sign is not bit-identical, though no float moved
    flipped = dict(same, q=np.array([[math.nan, 0.5 + 0.25j], [math.nan, 0.0 + 1j]]))
    row = compare.compare_arrays("d=3", arrays, flipped)
    assert row["moved"] == ["q"] and row["worst"] == 0.0
    # NaN against a number, a differing shape or name, and a failed run fail at any bound
    lost = dict(same, q=np.array([[0.0, 0.5 + 0.25j], [math.nan, 1j]]))
    assert compare.compare_arrays("d=3", arrays, lost)["worst"] == math.inf
    for other in (dict(same, c=np.zeros((2, 2))), {"c": same["c"], "q": q}, {}):
        row = compare.compare_arrays("d=3", arrays, other)
        assert not row["flags_equal"] and not compare.verdict([row], atol=1.0)
    assert not compare.compare_arrays("d=3", {}, {})["flags_equal"]  # both runs failed
