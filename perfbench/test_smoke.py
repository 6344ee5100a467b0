"""Smoke test of the benchmark itself, on shortened inputs.

    python3 -m pytest perfbench/test_smoke.py -q

Not part of the package's test suite: it checks that the benchmark prints
every metric it declares, counts failures instead of raising, repeats its
counts exactly, nests its spans, and refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
from adiab import TimeGrid, custom_model  # noqa: E402
from tracing import Tracer, installed  # noqa: E402
from workloads import DigestStore, Op, Workload, attempt, build  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SHRINK = 40
EXACT = ("_calls_per_", "_bytes", "h_evals_per_step")


def _bench(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--shrink", str(SHRINK)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in WORKLOADS:
        for trace, repeat in ((0, 0), (1, 0), (1, 1)):
            proc = _bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace, repeat] = proc.stdout
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_with_unit(runs, workload, trace):
    stdout = runs[workload, trace, 0]
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.endswith(" " + m["unit"]) for line in lines[:-1])
    assert any(line.startswith("env: nproc ") for line in lines)
    assert any("failed_frac 0 ratio" in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_bytes_repeat_exactly(runs, workload):
    first, second = (json.loads(runs[workload, 1, r].strip().splitlines()[-1])["metrics"] for r in (0, 1))
    exact = [name for name in first if any(tag in name for tag in EXACT)]
    assert len(exact) == 11
    assert {n: first[n]["value"] for n in exact} == {n: second[n]["value"] for n in exact}


def _degenerate_workload():
    # Constant H with a repeated eigenvalue: track raises DegeneracyError at sample 0.
    h = np.diag([0.0, 0.0, 1.0]).astype(np.complex128)
    t0 = time.perf_counter()
    model = custom_model(lambda t: h, dim=3)
    load_s = time.perf_counter() - t0
    op = Op(key="degenerate", steps=20, model=model, grid=TimeGrid(0.0, 0.08, 20))
    return Workload([op], op, [load_s])


def test_degenerate_model_is_counted_not_raised(tmp_path):
    workload = _degenerate_workload()
    digests = DigestStore(tmp_path / "digests.json", "test")
    records = child._loop(workload, 0.0, tmp_path, digests, child.Plain())
    summary = child._summary(records)
    assert summary["attempted"] == 1 and summary["failed"] == 1
    assert "DegeneracyError" in records[0]["error"]

    doc = child._traced_run(workload, 0.0, tmp_path, digests, tmp_path / "spans.json")
    assert doc["metrics"]["tracking.errors"] == 1
    assert child._summary(doc["records"])["failed"] == 1


def test_spans_nest_under_run_scenario(tmp_path):
    for name in ("panels", "pair"):
        op = build(name, seed=1, shrink=SHRINK).profile_op
        with installed(Tracer()) as tracer:
            assert attempt(op, tmp_path, tracer)[2] is None
        assert tracer.check_nesting() == []
        spans = tracer.spans
        kids = lambda parent: sorted({s["name"] for s in spans if s["parent"] == parent["id"]})  # noqa: E731
        top = [s for s in spans if s["name"] == "run_scenario"]
        assert len(top) == 1 and top[0]["parent"] is None
        expected = ["marzlin_sanders_model", "run_pipeline"] if name == "pair" else ["run_pipeline"]
        assert kids(top[0]) == expected
        for pipe in (s for s in spans if s["name"] == "run_pipeline"):
            assert kids(pipe) == ["evolve", "run_diagnostics", "track"]
        report_s = tracer.self_time("run_scenario")
        children = sum(s["end"] - s["start"] for s in spans if s["parent"] == top[0]["id"])
        assert report_s >= 0.0
        assert children + report_s == pytest.approx(top[0]["end"] - top[0]["start"], rel=1e-12)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("pair", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_calibrated_throughput_divides_out_the_reference():
    def rec(op, steps, seconds, reference, ok=True):
        return {"op": op, "steps": steps, "seconds": seconds, "reference_s": reference, "ok": ok}

    # The host at half speed doubles both times; the calibrated figure holds.
    records = [rec("a", 100, 0.2, 0.002), rec("b", 50, 0.05, 0.002), rec("a", 100, 0.4, 0.004)]
    records += [rec("b", 50, 0.1, 0.004), rec("a", 100, 0.2, 0.002)]
    summary = child._summary(records)
    assert summary["calibrated_steps_per_s"] == pytest.approx(150 / (0.2 + 0.05))
    assert summary["steps_per_s"] == pytest.approx(400 / 0.95)
    records.append(rec("b", 50, 0.05, 0.002, ok=False))
    summary = child._summary(records)
    assert summary["calibrated_steps_per_s"] == pytest.approx(100 / (0.2 + 0.05))
    assert summary["failed"] == 1 and summary["attempted"] == 6
