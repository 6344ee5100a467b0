import dataclasses
import json
import math
import os
import random
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import one_string_csv, rotate_gauge
import adiab.runner
import adiab.tracking
from adiab import cli
from adiab.linalg import ConvergenceError
from adiab.models import SchwingerParams, random_smooth_model
from adiab.propagate import TimeGrid
from adiab.runner import RunReport, RunResult, emit_csv, emit_report, run_pipeline, run_scenario
from adiab.scenario import _KNOWN_KEYS, Scenario, ScenarioError, Thresholds, load_scenario, parse_scenario
from adiab.tracking import DegeneracyError, track

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

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
            ({"schema_version": True}, "schema_version"),
            ({"schema_version": 1.0}, "schema_version"),
        ],
    )
    def test_rejections_name_the_key(self, overrides, key):
        doc = dict(MINIMAL)
        doc.update(overrides)
        with pytest.raises(ScenarioError, match=key.replace(".", r"\.")):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"steps": 10.5}, "steps: expected an integer, got 10.5"),
            ({"t_start": math.nan}, "t_start: must be finite, got nan"),
            ({"t_end": math.inf}, "t_end: must be finite, got inf"),
            ({"t_start": 3.0, "t_end": 2.0}, "t_end: t_end (2.0) must exceed t_start (3.0)"),
            ({"name": "../evil"}, "name: expected a plain file name, got '../evil'"),
            ({"name": ""}, "name: expected a nonempty string, got ''"),
            ({"outputs": ("pdf",)}, "outputs: expected entries from ['csv', 'report'], got 'pdf'"),
            ({"outputs": ()}, "outputs: expected a nonempty list, got ()"),
            ({"thresholds": {"margin": math.nan}}, "thresholds.margin: expected a positive number, got nan"),
            ({"thresholds": {"qac_violation": -1.0}},
             "thresholds.qac_violation: expected a positive number, got -1.0"),
            ({"level": 1.5}, "n: expected an integer, got 1.5"),
            ({"level": 2.0}, "n: expected an integer, got 2.0"),
            ({"level": True}, "n: expected an integer, got True"),
            ({"t_start": "0"}, "t_start: expected a number, got '0'"),
            ({"t_end": None}, "t_end: expected a number, got None"),
            ({"t_end": True}, "t_end: expected a number, got True"),
            ({"t_end": 10**400}, "t_end: must be finite, got an integer too large for a float"),
            ({"steps": True}, "steps: expected an integer, got True"),
            pytest.param({"thresholds": {"margin": 10**400}},
                         f"thresholds.margin: expected a positive number, got {10**400!r}",
                         id="fields18-thresholds.margin: expected a positive number, got 10**400"),
            ({"thresholds": {"margin": True}}, "thresholds.margin: expected a positive number, got True"),
        ],
    )
    def test_direct_construction_names_the_key(self, fields, message):
        # the parser's rules hold for a Scenario or Thresholds built without it,
        # types included; a "thresholds" entry holds the keyword arguments of a
        # Thresholds
        args = dict(name="direct", model_kind="schwinger", params=SchwingerParams(1.0, 0.1, 0.5),
                    t_start=0.0, t_end=2.0, steps=50, level=1)
        with pytest.raises(ScenarioError) as caught:
            fields = dict(fields, thresholds=Thresholds(**fields.get("thresholds", {})))
            Scenario(**dict(args, **fields))
        assert str(caught.value) == message

    def test_outputs_list_is_stored_as_a_tuple(self):
        sc = Scenario(name="direct", model_kind="schwinger", params=SchwingerParams(1.0, 0.1, 0.5),
                      t_start=0.0, t_end=2.0, steps=50, level=1, outputs=["csv"])
        assert sc.outputs == ("csv",)

    @pytest.mark.parametrize("value", [True, "x", math.nan, math.inf, 10**400],
                             ids=["True", "x", "nan", "inf", "10**400"])
    @pytest.mark.parametrize(
        "key",
        ["omega0", "omega", "theta", "t_start", "t_end", "steps", "n",
         "margin", "adiabatic_max_c", "qac_violation"],
    )
    def test_parse_and_direct_construction_agree(self, key, value):
        # one owner per rule: the document and the constructors give one message
        doc, params, thresholds = small_doc(), {"omega0": 1, "omega": 0.1, "theta": 1.5707963}, {}
        args = dict(name="direct", model_kind="schwinger", t_start=0.0, t_end=2.0, steps=50, level=1)
        if key in params:
            doc[key] = params[key] = value
        elif key in Thresholds.__dataclass_fields__:
            doc["thresholds"] = thresholds = {key: value}
        else:
            doc[key] = args["level" if key == "n" else key] = value
        with pytest.raises(ScenarioError) as parsed:
            parse_scenario(json.dumps(doc))
        with pytest.raises(ValueError) as built:
            Scenario(params=SchwingerParams(**params), thresholds=Thresholds(**thresholds), **args)
        assert str(parsed.value) == str(built.value)
        assert str(built.value).startswith(("thresholds." if thresholds else "") + key + ": ")

    def test_numpy_scalars_emit_the_plain_report(self, tmp_path):
        def scenario(real, integer):  # every value is exact in float32
            return Scenario(
                name="typed", model_kind="schwinger",
                params=SchwingerParams(real(1.0), real(0.125), real(0.5)),
                t_start=real(0.0), t_end=real(2.0), steps=integer(50), level=integer(1),
                thresholds=Thresholds(margin=real(0.5)),
            )

        typed, plain = scenario(np.float32, np.int64), scenario(float, int)
        assert typed == plain
        fields = (typed.t_start, typed.t_end, typed.steps, typed.level, typed.thresholds.margin,
                  typed.params.omega0)
        assert [type(value) for value in fields] == [float, float, int, int, float, float]
        written = [emit_report(run_scenario(sc), tmp_path / f"{i}.report.json").read_bytes()
                   for i, sc in enumerate((typed, plain))]
        assert written[0] == written[1]

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


def _emitted_header(tmp_path, **overrides) -> str:
    sc = parse_scenario(json.dumps(small_doc(name="hdr", **overrides)))
    return emit_csv(run_scenario(sc), tmp_path / "hdr.csv").read_text().split("\n", 1)[0]


class TestCsvSchema:
    def test_header_matches_documented_layout(self, tmp_path):
        assert _emitted_header(tmp_path) == (
            "t,re_c_1,im_c_1,re_c_2,im_c_2,"
            "abs_R_2,qac_2,residual_2,beta_1,D_norm,Ddot_norm,lambda_residual,norm_error"
        )

    def test_header_for_other_tracked_level(self, tmp_path):
        header = _emitted_header(tmp_path, n=2)
        assert header.startswith("t,re_c_1")
        assert "qac_1" in header
        assert "beta_2" in header

    def test_four_level_columns(self, tmp_path):
        lines = emit_csv(_four_level_result(), tmp_path / "dense.csv").read_text().splitlines()
        expected = ["t"]
        expected += [f"{part}_c_{i}" for i in range(1, 5) for part in ("re", "im")]
        for m in (1, 3, 4):
            expected += [f"abs_R_{m}", f"qac_{m}", f"residual_{m}"]
        expected += ["beta_2", "D_norm", "Ddot_norm", "lambda_residual", "norm_error"]
        assert lines[0].split(",") == expected
        assert len(lines) == 1 + 101
        assert all(len(line.split(",")) == len(expected) for line in lines[1:])
        assert "nan" not in "\n".join(lines)

    def test_row_count_and_width(self, tmp_path):
        sc = parse_scenario(json.dumps(small_doc(name="tiny")))
        result = run_scenario(sc)
        out = emit_csv(result, tmp_path / "tiny.csv")
        lines = out.read_text().splitlines()
        assert len(lines) == sc.steps + 2  # header plus endpoints-inclusive samples
        width = len(lines[0].split(","))
        assert width == 1 + 2 * 2 + 3 * 1 + 5
        assert all(len(line.split(",")) == width for line in lines[1:])
        assert "nan" not in out.read_text()

    def test_rerun_is_byte_identical(self, tmp_path):
        sc = parse_scenario(json.dumps(small_doc(name="det")))
        first = emit_csv(run_scenario(sc), tmp_path / "a.csv").read_bytes()
        second = emit_csv(run_scenario(sc), tmp_path / "b.csv").read_bytes()
        assert first == second


def _four_level_result() -> RunResult:
    pipe = run_pipeline(random_smooth_model(4, seed=5), TimeGrid(0.0, 1.0, 100), n=1)
    sc = parse_scenario(json.dumps(small_doc(name="dense")))
    return RunResult(scenario=sc, pipeline=pipe, report=RunReport({}, {}, {}, {}))


# Floats whose repr is special: both zeros, NaNs of three bit patterns (all print
# "nan"), both infinities, subnormals (the largest, both signs of the smallest),
# each side of the two points where repr switches to exponent notation, 1e16 and
# 1e-5, and each layout of the formatter: the smallest and largest normals, three-
# digit exponents of both signs, 1e23 (its double lies below 10^23), and
# an integral value positional to the digit.
SPECIAL_FLOATS = np.array(
    [0.0, -0.0, math.nan, -math.nan, np.int64(0x7FF0000000000001).view(np.float64),
     math.inf, -math.inf, 5e-324, 2.2250738585072e-308, 1e16, 9999999999999998.0,
     -1e16, 1e-5, 9.999999999999999e-06, 1.0000000000000001e-05, 0.0001, 0.1, -2.5,
     2.225073858507201e-308, -5e-324, 2.0**-1022, 1.7976931348623157e308, 1e-300,
     -1.5e300, 1e23, 123456789012345.0]
)


class TestCsvBlockWriter:
    """The block writer's bytes equal the one-string writer's."""

    @pytest.fixture(scope="class")
    def spanning_run(self):
        # 701 rows at 13 floats: a full block of 630 rows and a partial one
        return run_scenario(parse_scenario(json.dumps(small_doc(name="blocks", steps=700))))

    # a block is 630 rows of 13 floats: 630 rows fill one block, 631 spill
    # one row into a second, 1 260 fill two
    @pytest.mark.parametrize("steps", [629, 630, 1259])
    def test_bytes_match_the_one_string_writer(self, tmp_path, steps):
        result = run_scenario(parse_scenario(json.dumps(small_doc(name="blocks", steps=steps))))
        written = emit_csv(result, tmp_path / "blocks.csv").read_bytes()
        assert written == one_string_csv(result)

    def test_four_levels_match_the_one_string_writer(self, tmp_path):
        # 101 rows of 23 floats, one block of 356 rows, partly filled
        result = _four_level_result()
        written = emit_csv(result, tmp_path / "blocks.csv").read_bytes()
        assert written == one_string_csv(result)

    def test_special_floats_match_the_one_string_writer(self, tmp_path, spanning_run):
        diag = spanning_run.pipeline.diagnostics
        rows = len(diag.times)

        def specials(shift: int) -> np.ndarray:
            return np.roll(np.resize(SPECIAL_FLOATS, rows), shift)

        c = np.empty_like(diag.c)
        c.real, c.imag = specials(0)[:, None], specials(1)[:, None]
        columns = {"c": c, "beta": specials(2), "d_norm": specials(3), "ddot_norm": specials(4)}
        columns |= {"lam": specials(5), "norm_error": specials(6), "times": specials(7)}
        pipeline = dataclasses.replace(
            spanning_run.pipeline, diagnostics=dataclasses.replace(diag, **columns)
        )
        result = dataclasses.replace(spanning_run, pipeline=pipeline)
        written = emit_csv(result, tmp_path / "special.csv").read_bytes()
        assert written == one_string_csv(result)
        cells = set(written.decode().replace("\n", ",").split(","))
        assert {"-0.0", "nan", "inf", "-inf", "5e-324", "1e+16", "9999999999999998.0"} <= cells
        assert {"1e-05", "9.999999999999999e-06", "0.0001"} <= cells

    def test_emission_memory_does_not_grow_with_steps(self, tmp_path):
        # The tracemalloc peak of emit_csv alone may grow by at most 12 bytes per
        # float column per row, 156 B/row at dim 2; the one-string writer grew by
        # about 1 000. The whole |R| column takes 8 B/row.
        def peak(steps: int) -> int:
            doc = small_doc(name="mem", t_end=steps / 1000, steps=steps)
            result = run_scenario(parse_scenario(json.dumps(doc)))
            tracemalloc.start()
            try:
                emit_csv(result, tmp_path / "mem.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        width = 13  # floats per row at dim 2
        growth = (peak(8000) - peak(2000)) / 6000
        assert growth <= 12 * width, f"{growth:.0f} B/row"


class TestReportWriter:
    """``emit_report``'s writer gives ``json.dumps(doc, indent=2)``'s bytes."""

    @staticmethod
    def _text(doc) -> str:
        pieces = []
        adiab.runner._json_pieces(doc, pieces)
        return "".join(pieces)

    @pytest.mark.parametrize("stem", sorted(p.stem for p in SCENARIOS.glob("*.json")))
    def test_shipped_reports(self, tmp_path, stem):
        result = run_scenario(load_scenario(SCENARIOS / f"{stem}.json"))
        doc = result.report.to_dict()
        assert self._text(doc) == json.dumps(doc, indent=2)
        written = emit_report(result, tmp_path / f"{stem}.report.json").read_bytes()
        assert written == (json.dumps(doc, indent=2) + "\n").encode("utf-8")

    def test_every_value_kind(self):
        doc = {
            "none": None,
            "flags": {"yes": True, "no": False},
            "nan": math.nan,
            "inf": math.inf,
            "-inf": -math.inf,
            "zeros": {"plus": 0.0, "minus": -0.0, "int": 0},
            "exponent": {"big": 1e16, "small": 1e-05, "max": 1.7976931348623157e308, "sub": 5e-324},
            "ints": {"big": 10**30, "negative": -7},
            "text": "caf\u00e9 \u2264 \U0001d11e \"q\" \\ \t\n\x00\x1f\x7f",
            "empty": {},
            "nested": {"deeper": {"empty": {}, "np": np.float64(0.1), "np_nan": np.float64("nan")}},
            "\u00e9 key\n": 1.5,
        }
        assert self._text(doc) == json.dumps(doc, indent=2)
        assert self._text({}) == "{}"

    @pytest.mark.parametrize("value", [[1.0], (1.0,), np.int64(1), np.bool_(True), b"x"])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            self._text({"a": {"b": value}})

    def test_non_string_keys_raise(self):
        with pytest.raises(TypeError):
            self._text({1: 2.0})


class TestOutputRewrite:
    """A rerun replaces each output with a new file and keeps open()'s failures."""

    @staticmethod
    def _run(steps: int, **overrides) -> RunResult:
        doc = small_doc(name="re", steps=steps, **overrides)
        return run_scenario(parse_scenario(json.dumps(doc)))

    @staticmethod
    def _emit(result: RunResult, out_dir: Path) -> dict:
        out_dir.mkdir(exist_ok=True)
        emit_csv(result, out_dir / "re.csv")
        emit_report(result, out_dir / "re.report.json")
        return {name: (out_dir / name).read_bytes() for name in ("re.csv", "re.report.json")}

    def test_short_run_over_a_long_one_writes_fresh_bytes(self, tmp_path):
        short = self._run(50)
        fresh = self._emit(short, tmp_path / "fresh")
        rerun = tmp_path / "rerun"
        longer = self._emit(self._run(400, model="marzlin_sanders"), rerun)  # a longer report too
        assert all(len(longer[name]) > len(fresh[name]) for name in fresh)
        assert self._emit(short, rerun) == fresh

    def test_a_hard_link_keeps_the_old_bytes(self, tmp_path):
        out_dir = tmp_path / "out"
        old = self._emit(self._run(400), out_dir)
        for name in old:
            os.link(out_dir / name, tmp_path / f"kept.{name}")
        new = self._emit(self._run(50), out_dir)
        for name in old:
            assert (tmp_path / f"kept.{name}").read_bytes() == old[name]
            assert not os.path.samefile(out_dir / name, tmp_path / f"kept.{name}")
            assert new[name] != old[name]

    def test_a_rerun_takes_its_mode_from_the_umask(self, tmp_path):
        out_dir = tmp_path / "out"
        old = self._emit(self._run(50), out_dir)
        for name in old:
            os.chmod(out_dir / name, 0o600)
        previous = os.umask(0o022)
        try:
            self._emit(self._run(50), out_dir)
        finally:
            os.umask(previous)
        for name in old:
            assert stat.S_IMODE(os.stat(out_dir / name).st_mode) == 0o644

    def test_a_refused_unlink_truncates_in_place(self, tmp_path, monkeypatch):
        # as in a sticky directory: the file is rewritten where it stands
        out_dir = tmp_path / "out"
        self._emit(self._run(400), out_dir)
        for name in ("re.csv", "re.report.json"):
            os.link(out_dir / name, tmp_path / f"kept.{name}")

        def refuse(path, *args, **kwargs):
            raise PermissionError(1, "Operation not permitted", str(path))

        monkeypatch.setattr(adiab.runner.os, "unlink", refuse)
        new = self._emit(self._run(50), out_dir)
        monkeypatch.undo()
        assert new == self._emit(self._run(50), tmp_path / "fresh")
        for name in new:
            assert (tmp_path / f"kept.{name}").read_bytes() == new[name]

    def test_a_symlinked_output_is_written_through(self, tmp_path):
        targets = tmp_path / "targets"
        targets.mkdir()
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        for name in ("re.csv", "re.report.json"):
            (targets / name).write_bytes(b"old bytes, longer than nothing\n" * 100)
            (out_dir / name).symlink_to(targets / name)
        written = self._emit(self._run(50), out_dir)
        assert written == self._emit(self._run(50), tmp_path / "fresh")
        for name in written:
            assert (out_dir / name).is_symlink()
            assert (targets / name).read_bytes() == written[name]

    @pytest.mark.parametrize("suffix", ["csv", "report.json"])
    def test_a_directory_at_the_output_path_exits_config(self, tmp_path, capsys, suffix):
        scenario_path = tmp_path / "re.json"
        scenario_path.write_text(json.dumps(small_doc(name="re")))
        out_dir = tmp_path / "out"
        (out_dir / f"re.{suffix}").mkdir(parents=True)
        (out_dir / f"re.{suffix}" / "inside").write_text("keep")
        assert cli.main(["run", str(scenario_path), "--out", str(out_dir)]) == cli.EXIT_CONFIG
        assert "configuration error: --out: cannot write" in capsys.readouterr().err
        assert (out_dir / f"re.{suffix}" / "inside").read_text() == "keep"

    @pytest.mark.parametrize("suffix", ["csv", "report.json"])
    def test_an_output_that_may_not_be_written_exits_config(
        self, tmp_path, capsys, monkeypatch, suffix
    ):
        scenario_path = tmp_path / "re.json"
        scenario_path.write_text(json.dumps(small_doc(name="re")))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        blocked = out_dir / f"re.{suffix}"
        blocked.write_text("keep")
        blocked.chmod(0o444)
        access = os.access

        def no_write(path, mode, **kwargs):  # root may write a 0o444 file; say it may not
            return False if Path(path) == blocked and mode & os.W_OK else access(path, mode, **kwargs)

        monkeypatch.setattr(adiab.runner.os, "access", no_write)
        assert cli.main(["run", str(scenario_path), "--out", str(out_dir)]) == cli.EXIT_CONFIG
        assert "configuration error: --out: cannot write" in capsys.readouterr().err
        assert blocked.read_text() == "keep"


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

    @pytest.mark.parametrize("kind, problem", [("file", "is not a directory"), ("absent", "does not exist")])
    def test_batch_of_no_directory_exits_config(self, tmp_path, capsys, kind, problem):
        path = self._write(tmp_path) if kind == "file" else tmp_path / "absent"
        assert cli.main(["batch", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert f"batch directory {path} {problem}" in capsys.readouterr().err

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
        assert rows[1][2:] == ["-"] * 5
        assert rows[0][-2:] == ["yes", "no"]

    def test_batch_refuses_a_name_written_earlier(self, tmp_path, capsys):
        # b.json names the outputs a.json wrote; it must neither run nor
        # overwrite them, and the batch goes on to c.json
        batch_dir = tmp_path / "batch"
        batch_dir.mkdir()
        (batch_dir / "a.json").write_text(json.dumps(small_doc(name="same")))
        (batch_dir / "b.json").write_text(json.dumps(small_doc(name="same", theta=0.3)))
        self._write(batch_dir, name="c_other", theta=0.2)
        solo = tmp_path / "solo"
        assert cli.main(["run", str(batch_dir / "a.json"), "--out", str(solo)]) == cli.EXIT_OK
        capsys.readouterr()
        out_dir = tmp_path / "out"
        assert cli.main(["batch", str(batch_dir), "--out", str(out_dir)]) == cli.EXIT_CONFIG
        for name in ("same.csv", "same.report.json"):
            assert (out_dir / name).read_bytes() == (solo / name).read_bytes()
        assert (out_dir / "c_other.csv").exists()
        captured = capsys.readouterr()
        assert "configuration error: name: 'same' is already written by a.json" in captured.err
        assert captured.out.count("wrote ") == 4  # a's and c_other's two files each
        rows = self._summary_rows(captured.out)
        assert [row[:2] for row in rows] == [["a", "ok"], ["b", "config"], ["c_other", "ok"]]

    def test_batch_table_cells_read_the_reports(self, tmp_path, capsys):
        # each ok row's value cells are its report's at 5 decimals: the peak
        # off-level |c|, the largest |R|, the largest coupling ratio (|Q|) and
        # the two regime flags, over a slow and a fast drive, the upper level
        # tracked, and the transformed pair
        batch_dir = tmp_path / "batch"
        batch_dir.mkdir()
        self._write(batch_dir, name="a_slow")
        self._write(batch_dir, name="b_fast", omega=10.0, theta=0.1, t_end=1.0, steps=4000)
        self._write(batch_dir, name="c_upper", n=2, theta=0.3)
        self._write(batch_dir, name="d_pair", model="marzlin_sanders", omega=0.5, steps=1000)
        out_dir = tmp_path / "out"
        assert cli.main(["batch", str(batch_dir), "--out", str(out_dir)]) == cli.EXIT_OK
        rows = self._summary_rows(capsys.readouterr().out)
        assert [row[:2] for row in rows] == [[name, "ok"] for name in ("a_slow", "b_fast", "c_upper", "d_pair")]
        flags_seen = set()
        for name, _, *cells in rows:
            report = json.loads((out_dir / f"{name}.report.json").read_text())
            summary, regime = report["summary"], report["regime"]
            off = [label for label in summary["max_abs_c"] if label != str(report["scenario"]["n"])]
            maxima = (
                max(summary["max_abs_c"][label] for label in off),
                max(summary["max_abs_r"][label] for label in off),
                max(summary["max_qac"][label] for label in off),
            )
            flags = (regime["adiabatic_approximation_holds"], regime["qac_violated"])
            assert cells == [f"{x:.5f}" for x in maxima] + [("no", "yes")[f] for f in flags], name
            flags_seen.add(flags)
        assert len(flags_seen) > 1  # the flag cells are not all alike

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

    def test_non_utf8_file_exits_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert cli.main(["verify", str(bad)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: scenario file {bad} is not UTF-8 text")

    def test_batch_lists_a_non_utf8_file_as_config(self, tmp_path, capsys):
        batch_dir = tmp_path / "batch"
        batch_dir.mkdir()
        self._write(batch_dir, name="a_good")
        (batch_dir / "b_binary.json").write_bytes(b"\xff\xfe{}")
        out_dir = tmp_path / "out"
        assert cli.main(["batch", str(batch_dir), "--out", str(out_dir)]) == cli.EXIT_CONFIG
        assert (out_dir / "a_good.report.json").exists()
        captured = capsys.readouterr()
        assert "b_binary.json is not UTF-8 text" in captured.err
        rows = self._summary_rows(captured.out)
        assert [row[:2] for row in rows] == [["a_good", "ok"], ["b_binary", "config"]]

    def test_overflowing_span_exits_config(self, tmp_path, capsys):
        scenario_path = self._write(tmp_path, t_start=-1e308, t_end=1e308)
        assert cli.main(["verify", str(scenario_path)]) == cli.EXIT_CONFIG
        assert "configuration error: t_end:" in capsys.readouterr().err

    @pytest.mark.parametrize("model, key", [("schwinger", "omega"), ("marzlin_sanders", "omega0")])
    def test_overflowing_phase_exits_config(self, tmp_path, capsys, model, key):
        # omega * t_end is past the largest float, so H(t) would not be finite
        scenario_path = self._write(tmp_path, model=model, t_end=1e12, **{key: 1e300})
        assert cli.main(["verify", str(scenario_path)]) == cli.EXIT_CONFIG
        assert f"configuration error: {key}: {key} * max(|t_start|, |t_end|) overflows" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "span",
        [{"t_end": 1e-320}, {"t_start": 1e16, "t_end": 1e16 + 2.0}],
        ids=["subnormal_step", "step_below_float_spacing"],
    )
    def test_unresolved_grid_step_exits_config(self, tmp_path, capsys, span):
        doc = json.loads((SCENARIOS / "slow_theta_pi2.json").read_text())
        scenario_path = tmp_path / "unresolved.json"
        scenario_path.write_text(json.dumps(dict(doc, steps=10, **span)))
        assert cli.main(["verify", str(scenario_path)]) == cli.EXIT_CONFIG
        assert "configuration error: t_end: grid step" in capsys.readouterr().err

    @pytest.mark.parametrize("omega0", [1e155, 1e160])
    def test_huge_static_field_is_not_degenerate(self, tmp_path, capsys, omega0):
        # past ‖H‖ ~ 1.3e154 the degeneracy scale overflowed (exit 3), and then
        # the diagnostics' norms, whose overflow warnings the suite makes errors (exit 4)
        scenario_path = self._write(tmp_path, omega0=omega0, omega=0.0)
        code = cli.main(["verify", str(scenario_path)])
        assert code in (cli.EXIT_OK, cli.EXIT_IDENTITY), capsys.readouterr().err

    @pytest.mark.parametrize("steps", [1_000_001, 10**400], ids=["bound_plus_one", "400_digits"])
    def test_steps_past_the_bound_exit_config(self, tmp_path, capsys, monkeypatch, steps):
        scenario_path = self._write(tmp_path, steps=steps)

        def no_run(scenario):
            raise AssertionError("the scenario was run")

        monkeypatch.setattr(cli, "run_scenario", no_run)
        assert cli.main(["verify", str(scenario_path)]) == cli.EXIT_CONFIG
        assert "configuration error: steps: must be at most 1000000" in capsys.readouterr().err

    def test_out_naming_a_file_exits_config(self, tmp_path, capsys):
        scenario_path = self._write(tmp_path)
        blocker = tmp_path / "afile"
        blocker.write_text("keep")
        assert cli.main(["run", str(scenario_path), "--out", str(blocker)]) == cli.EXIT_CONFIG
        assert "configuration error: --out: cannot write" in capsys.readouterr().err
        assert blocker.read_text() == "keep"

    def test_batch_out_naming_a_file_exits_config(self, tmp_path, capsys):
        batch_dir = tmp_path / "batch"
        batch_dir.mkdir()
        self._write(batch_dir, name="one")
        self._write(batch_dir, name="two", theta=0.3)
        blocker = tmp_path / "afile"
        blocker.write_text("keep")
        assert cli.main(["batch", str(batch_dir), "--out", str(blocker)]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.count("configuration error: --out: cannot write") == 2
        assert [row[:2] for row in self._summary_rows(captured.out)] == [
            ["one", "config"], ["two", "config"]
        ]

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

        def no_convergence(h):
            raise ConvergenceError("Hermitian eigensolver did not converge: Eigenvalues did not converge")

        # a two-level run calls no LAPACK solver, so the failure is raised where track solves
        monkeypatch.setattr(adiab.tracking, "hermitian_eigendecompose", no_convergence)
        assert cli.main(["verify", str(scenario_path)]) == cli.EXIT_NUMERICAL
        assert "eigensolver did not converge" in capsys.readouterr().err

    def test_broken_gauge_exits_numerical(self, tmp_path, capsys, monkeypatch):
        scenario_path = self._write(tmp_path)

        def jagged_track(model, grid, gauge="transport"):
            path = track(model, grid, gauge)
            phases = np.random.default_rng(0).uniform(-1.0, 1.0, size=(path.n_samples, path.dim))
            return rotate_gauge(path, phases)

        monkeypatch.setattr(adiab.runner, "track", jagged_track)
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


# The ranges of the exit-contract fuzz: frequencies across the float range and
# across a resolved one, cone angles, spans up to one whose ω·t overflows, and
# step counts including one below the minimum; a few gauges are not gauges.
FUZZ_THETAS = (0.0, 0.1, math.pi / 4, math.pi / 2, math.pi)
FUZZ_SPANS = ((0.0, 1e-3), (0.0, 1.0), (-5.0, 40.0), (0.0, 1e6), (1e10, 1e10 + 1.0), (0.0, 1e300))


def fuzz_documents(count: int, seed: int) -> list:
    """``count`` verify documents drawn from a seeded generator, the same on every run."""
    rng = random.Random(seed)
    docs = []
    for i in range(count):
        lo, hi = (-300, 300) if i % 2 == 0 else (-6, 7)
        t_start, t_end = rng.choice(FUZZ_SPANS)
        docs.append({
            "model": rng.choice(("schwinger", "marzlin_sanders")),
            "omega0": 10 ** rng.uniform(lo, hi),
            "omega": 10 ** rng.uniform(lo, hi),
            "theta": rng.choice(FUZZ_THETAS),
            "t_start": t_start,
            "t_end": t_end,
            "steps": rng.choice((5, 50, 50, 50, 400)),
            "n": rng.choice((1, 2)),
            "gauge": rng.choice(("auto", "analytic-reference", "auto", "analytic-reference", "fancy")),
        })
    return docs


def test_exit_contract_holds_under_fuzzing(tmp_path, capsys):
    # derandomised, with no example database: every document exits 0, 1, 2 or 3,
    # never 4, and every configuration error names the key it rejects
    codes = []
    for i, doc in enumerate(fuzz_documents(60, seed=1)):
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["verify", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (doc, err)
        if code == cli.EXIT_CONFIG:
            key = err.removeprefix("configuration error: ").split(":", 1)[0]
            assert err.startswith("configuration error: ") and key in _KNOWN_KEYS, (doc, err)
        codes.append(code)
    assert set(codes) == {0, 1, 2, 3}, codes  # the documents reach every contracted code


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
        shipped = sorted(SCENARIOS.glob("*.json"))
        assert len(shipped) == 8
        for path in shipped:
            sc = load_scenario(path)
            assert sc.steps >= 10

    def test_report_follows_the_margin_threshold(self):
        shipped = SCENARIOS / "slow_theta_pi2.json"
        doc = json.loads(shipped.read_text())
        default = run_scenario(parse_scenario(json.dumps(doc)))
        doc["thresholds"] = {"margin": 1e-3}
        strict = run_scenario(parse_scenario(json.dumps(doc)))
        assert default.scenario.thresholds.margin == 0.1
        loose = default.report.summary["criteria_true_fraction"]
        tight = strict.report.summary["criteria_true_fraction"]
        assert loose == {"a": 1.0, "b": 1.0, "c": 1.0}
        assert all(tight[key] < loose[key] for key in "abc")

    @pytest.mark.parametrize("undefined", [0.0, 0.3, 1.0])
    def test_criteria_fractions_equal_the_per_column_means(self, undefined):
        # the reference: one mean per column, (a) over its non-NaN samples only
        rng = np.random.default_rng(7)
        ratios = rng.uniform(0.0, 0.2, size=(1001, 3))
        ratios[rng.random(1001) < undefined, 0] = np.nan
        holds = ratios < 0.1
        defined = ~np.isnan(ratios[:, 0])
        expected = {
            "a": float(np.mean(holds[defined, 0])) if np.any(defined) else None,
            "b": float(np.mean(holds[:, 1])),
            "c": float(np.mean(holds[:, 2])),
        }
        assert adiab.runner._criteria_fractions(ratios, 0.1) == expected

    def test_report_serialization_round_trip(self, tmp_path):
        sc = parse_scenario(json.dumps(small_doc(name="round")))
        result = run_scenario(sc)
        out = emit_report(result, tmp_path / "round.report.json")
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert set(doc["checks"]) >= {"decomposition", "lambda", "unitarity", "norm"}
        assert doc["regime"]["description"]

    @pytest.mark.parametrize("scale", [1e-4, 1e4])
    @pytest.mark.parametrize("stem", sorted(p.stem for p in SCENARIOS.glob("*.json")))
    def test_rescaled_energies_keep_the_exit_contract(self, tmp_path, capsys, stem, scale):
        # hbar = 1: energies times scale and times over it is the same physics, so a
        # run may fail an identity check (exit 1) but never error out (3 or 4)
        doc = json.loads((SCENARIOS / f"{stem}.json").read_text())
        span = doc["t_end"] * 1000 / doc["steps"]  # the first 1000 steps
        doc |= {"omega0": doc["omega0"] * scale, "omega": doc["omega"] * scale}
        doc |= {"t_end": span / scale, "steps": 1000}
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["verify", str(path)])
        assert code in (cli.EXIT_OK, cli.EXIT_IDENTITY), capsys.readouterr().err
