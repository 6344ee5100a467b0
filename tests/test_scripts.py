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
