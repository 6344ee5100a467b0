import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adiab.diagnostics
from adiab import cli
from adiab.runner import csv_header, emit_csv, run_scenario
from adiab.scenario import ScenarioError, Thresholds, load_scenario, parse_scenario
from adiab.tracking import DegeneracyError, berry_phase, rotate_gauge

MINIMAL = {
    "model": "schwinger",
    "omega0": 1,
    "omega": 0.1,
    "theta": 1.5707963,
    "t_end": 40,
    "steps": 40000,
    "n": 1,
}


def small_doc(**overrides):
    doc = dict(MINIMAL, t_end=2.0, steps=50)
    doc.update(overrides)
    return doc


class TestParseScenario:
    def test_minimal_document(self):
        sc = parse_scenario(json.dumps(MINIMAL))
        assert sc.model_kind == "schwinger"
        assert sc.params.omega0 == 1.0
        assert sc.steps == 40000
        assert sc.level == 1
        assert sc.gauge == "auto"
        assert sc.outputs == ("csv", "report")
        assert sc.thresholds == Thresholds()

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"steps": 5}, "steps"),
            ({"theta": 4.0}, "theta"),
            ({"omega0": 0}, "omega0"),
            ({"omega": -1}, "omega"),
            ({"n": 3}, "n"),
            ({"n": 0}, "n"),
            ({"t_end": -1.0}, "t_end"),
            ({"gauge": "fancy"}, "gauge"),
            ({"steps": 10.5}, "steps"),
            ({"schema_version": 2}, "schema_version"),
            ({"outputs": ["png"]}, "outputs"),
            ({"thresholds": {"margin": -1}}, "thresholds.margin"),
            ({"thresholds": {"weird": 1}}, "thresholds.weird"),
            ({"surprise": 1}, "surprise"),
        ],
    )
    def test_rejections_name_the_key(self, overrides, key):
        doc = dict(MINIMAL)
        doc.update(overrides)
        with pytest.raises(ScenarioError, match=key.replace(".", r"\.")):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("missing", ["model", "omega0", "omega", "theta", "t_end", "steps", "n"])
    def test_missing_required_key(self, missing):
        doc = dict(MINIMAL)
        del doc[missing]
        with pytest.raises(ScenarioError, match=missing):
            parse_scenario(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(ScenarioError, match="malformed"):
            parse_scenario("{not json")

    def test_load_uses_file_stem_as_default_name(self, tmp_path):
        path = tmp_path / "my_panel.json"
        path.write_text(json.dumps(small_doc()))
        assert load_scenario(path).name == "my_panel"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "absent.json")


class TestCsvSchema:
    def test_header_matches_documented_layout(self):
        assert csv_header(2, 1) == (
            "t,re_c_1,im_c_1,abs_c_1,re_c_2,im_c_2,abs_c_2,"
            "abs_Q_2,abs_R_2,qac_2,residual_2,beta_1,D_norm,Ddot_norm,lambda_residual,norm_error"
        )

    def test_header_for_other_tracked_level(self):
        assert csv_header(2, 2).startswith("t,re_c_1")
        assert "abs_Q_1" in csv_header(2, 2)
        assert "beta_2" in csv_header(2, 2)

    def test_row_count_and_width(self, tmp_path):
        sc = parse_scenario(json.dumps(small_doc(name="tiny")))
        result = run_scenario(sc)
        out = emit_csv(result, tmp_path / "tiny.csv")
        lines = out.read_text().splitlines()
        assert len(lines) == sc.steps + 2  # header plus endpoints-inclusive samples
        width = len(lines[0].split(","))
        assert width == 1 + 3 * 2 + 4 * 1 + 5
        assert all(len(line.split(",")) == width for line in lines[1:])
        assert "nan" not in out.read_text()

    def test_rerun_is_byte_identical(self, tmp_path):
        sc = parse_scenario(json.dumps(small_doc(name="det")))
        first = emit_csv(run_scenario(sc), tmp_path / "a.csv").read_bytes()
        second = emit_csv(run_scenario(sc), tmp_path / "b.csv").read_bytes()
        assert first == second


class TestCliCommands:
    def _write(self, tmp_path, name="sample", **overrides):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(small_doc(name=name, **overrides)))
        return path

    def test_run_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        scenario_path = self._write(tmp_path)
        out_dir = tmp_path / "out"
        code = cli.main(["run", str(scenario_path), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "sample.csv").exists()
        report = json.loads((out_dir / "sample.report.json").read_text())
        assert report["pass"] is True
        assert report["scenario"]["n"] == 1
        captured = capsys.readouterr().out
        assert "check decomposition" in captured
        assert "PASS" in captured

    def test_outputs_key_limits_files(self, tmp_path):
        scenario_path = self._write(tmp_path, name="only_report", outputs=["report"])
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(scenario_path), "--out", str(out_dir)]) == 0
        assert not (out_dir / "only_report.csv").exists()
        assert (out_dir / "only_report.report.json").exists()

    def test_verify_writes_nothing(self, tmp_path, capsys, monkeypatch):
        scenario_path = self._write(tmp_path, name="v")
        monkeypatch.chdir(tmp_path)
        code = cli.main(["verify", str(scenario_path)])
        assert code == 0
        assert not list(tmp_path.glob("*.csv"))
        assert "check lambda" in capsys.readouterr().out

    def test_batch_runs_all(self, tmp_path):
        batch_dir = tmp_path / "batch"
        batch_dir.mkdir()
        self._write(batch_dir, name="one")
        self._write(batch_dir, name="two", theta=0.3)
        out_dir = tmp_path / "out"
        assert cli.main(["batch", str(batch_dir), "--out", str(out_dir)]) == 0
        assert (out_dir / "one.csv").exists()
        assert (out_dir / "two.csv").exists()

    @staticmethod
    def _summary_rows(out):
        lines = out.splitlines()
        start = max(i for i, line in enumerate(lines) if line.startswith("scenario "))
        return [line.split() for line in lines[start + 1 :]]

    def test_batch_isolates_a_bad_file(self, tmp_path, capsys):
        batch_dir = tmp_path / "batch"
        batch_dir.mkdir()
        self._write(batch_dir, name="a_good")
        self._write(batch_dir, name="b_bad", steps=5)
        self._write(batch_dir, name="c_good", theta=0.3)
        out_dir = tmp_path / "out"
        assert cli.main(["batch", str(batch_dir), "--out", str(out_dir)]) == cli.EXIT_CONFIG
        for name in ("a_good", "c_good"):
            assert (out_dir / f"{name}.csv").exists()
            assert (out_dir / f"{name}.report.json").exists()
        captured = capsys.readouterr()
        assert "steps" in captured.err
        rows = self._summary_rows(captured.out)
        assert [row[:2] for row in rows] == [
            ["a_good", "ok"], ["b_bad", "config"], ["c_good", "ok"]
        ]
        assert rows[1][2:] == ["-"] * 6
        assert rows[0][-2:] == ["yes", "no"]

    def test_batch_exits_with_highest_code(self, tmp_path, capsys, monkeypatch):
        batch_dir = tmp_path / "batch"
        batch_dir.mkdir()
        self._write(batch_dir, name="identity")
        self._write(batch_dir, name="numerical")
        real_run = cli.run_scenario

        def run(scenario):
            if scenario.name == "numerical":
                raise DegeneracyError("near-degenerate spectrum at sample 3 (t=0.12)")
            result = real_run(scenario)
            result.report.checks["decomposition"] = {"value": 1.0, "tolerance": 1e-7, "pass": False}
            return result

        monkeypatch.setattr(cli, "run_scenario", run)
        code = cli.main(["batch", str(batch_dir), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert "decomposition" in captured.err
        assert "sample 3" in captured.err
        rows = self._summary_rows(captured.out)
        assert [row[:2] for row in rows] == [["identity", "identity"], ["numerical", "numerical"]]

    def test_configuration_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(small_doc(steps=5)))
        assert cli.main(["run", str(bad), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert "steps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, key",
        [
            ("omega0", 10**400, "omega0"),
            ("t_end", 10**400, "t_end"),
            ("thresholds", {"margin": 10**400}, "thresholds.margin"),
            ("thresholds", {"qac_violation": float("inf")}, "thresholds.qac_violation"),
        ],
        ids=["omega0", "t_end", "margin", "qac_violation"],
    )
    def test_numbers_beyond_a_finite_float_exit_config(self, tmp_path, capsys, field, value, key):
        scenario_path = self._write(tmp_path, **{field: value})
        assert cli.main(["verify", str(scenario_path)]) == cli.EXIT_CONFIG
        assert f"configuration error: {key}:" in capsys.readouterr().err

    def test_integer_past_the_digit_limit_exits_config(self, tmp_path):
        text = json.dumps(small_doc()).replace('"omega0": 1,', '"omega0": 1' + "0" * 5000 + ",")
        scenario_path = tmp_path / "long.json"
        scenario_path.write_text(text)
        assert cli.main(["verify", str(scenario_path)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("name", ["../escaped", "sub/x", ".", "..", "nul\x00byte"])
    def test_name_must_be_a_plain_file_name(self, tmp_path, capsys, name):
        scenario_path = tmp_path / "doc.json"
        scenario_path.write_text(json.dumps(small_doc(name=name)))
        out_dir = tmp_path / "nest" / "out"
        assert cli.main(["run", str(scenario_path), "--out", str(out_dir)]) == cli.EXIT_CONFIG
        assert "configuration error: name:" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [scenario_path]

    def test_empty_batch_directory_is_config_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli.main(["batch", str(empty)]) == cli.EXIT_CONFIG

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        scenario_path = self._write(tmp_path)

        def boom(scenario):
            raise DegeneracyError("near-degenerate spectrum at sample 3 (t=0.12)")

        monkeypatch.setattr(cli, "run_scenario", boom)
        assert cli.main(["verify", str(scenario_path)]) == cli.EXIT_NUMERICAL
        assert "sample 3" in capsys.readouterr().err

    def test_solver_failure_exits_numerical(self, tmp_path, capsys, monkeypatch):
        scenario_path = self._write(tmp_path)

        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        assert cli.main(["verify", str(scenario_path)]) == cli.EXIT_NUMERICAL
        assert "eigensolver did not converge" in capsys.readouterr().err

    def test_broken_gauge_exits_numerical(self, tmp_path, capsys, monkeypatch):
        scenario_path = self._write(tmp_path)

        def jagged_berry_phase(path, n):
            phases = np.random.default_rng(0).uniform(-1.0, 1.0, size=(path.n_samples, path.dim))
            return berry_phase(rotate_gauge(path, phases), n)

        monkeypatch.setattr(adiab.diagnostics, "berry_phase", jagged_berry_phase)
        assert cli.main(["verify", str(scenario_path)]) == cli.EXIT_NUMERICAL
        assert "gauge broken" in capsys.readouterr().err

    def test_unexpected_error_exits_internal(self, tmp_path, capsys, monkeypatch):
        scenario_path = self._write(tmp_path)

        def boom(scenario):
            raise KeyError("lost\ncolumn")

        monkeypatch.setattr(cli, "run_scenario", boom)
        assert cli.main(["verify", str(scenario_path)]) == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("internal error: KeyError:")

    def test_exit_codes_are_distinct(self):
        codes = (
            cli.EXIT_OK, cli.EXIT_IDENTITY, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL, cli.EXIT_INTERNAL
        )
        assert len(set(codes)) == len(codes)

    def test_identity_failure_exit_code_names_check(self, tmp_path, capsys, monkeypatch):
        scenario_path = self._write(tmp_path)
        real = run_scenario(load_scenario(scenario_path))
        real.report.checks["decomposition"] = {"value": 1.0, "tolerance": 1e-7, "pass": False}
        assert real.report.to_dict()["pass"] is False
        monkeypatch.setattr(cli, "run_scenario", lambda scenario: real)
        assert cli.main(["verify", str(scenario_path)]) == cli.EXIT_IDENTITY
        assert "decomposition" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_python_m_adiab_verify(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "adiab", "verify", "scenarios/static_field.json"],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "PASS" in done.stdout


class TestShippedScenarios:
    def test_session_runs_pass_their_own_gate(self, panel_runs, static_run, ms_run):
        for run in (*panel_runs.values(), static_run, ms_run):
            failing = run.report.first_failure()
            assert run.report.passed, f"{run.scenario.name}: {failing} check failed"

    def test_all_shipped_documents_parse(self):
        shipped = sorted((Path(__file__).parent.parent / "scenarios").glob("*.json"))
        assert len(shipped) == 8
        for path in shipped:
            sc = load_scenario(path)
            assert sc.steps >= 10

    def test_report_follows_the_margin_threshold(self):
        shipped = Path(__file__).parent.parent / "scenarios" / "slow_theta_pi2.json"
        doc = json.loads(shipped.read_text())
        default = run_scenario(parse_scenario(json.dumps(doc)))
        doc["thresholds"] = {"margin": 1e-3}
        strict = run_scenario(parse_scenario(json.dumps(doc)))
        assert default.scenario.thresholds.margin == 0.1
        loose = default.report.summary["criteria_true_fraction"]
        tight = strict.report.summary["criteria_true_fraction"]
        assert loose == {"a": 1.0, "b": 1.0, "c": 1.0}
        assert all(tight[key] < loose[key] for key in "abc")

    def test_report_serialization_round_trip(self, tmp_path):
        sc = parse_scenario(json.dumps(small_doc(name="round")))
        result = run_scenario(sc)
        from adiab.runner import emit_report

        out = emit_report(result, tmp_path / "round.report.json")
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert set(doc["checks"]) >= {"decomposition", "lambda", "unitarity", "norm"}
        assert doc["regime"]["description"]
