import importlib.util
from pathlib import Path

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
