"""The names and workloads the benchmark in ``perfbench/`` relies on still work.

Runs every declared workload once on shortened inputs, in process, through
the benchmark's own ``build``, ``attempt`` and ``verify``, and traces one
``pair`` and one ``panels`` operation to check that the layer spans nest
under ``run_scenario``. The benchmark's files and ``BENCHMARK.json`` are
only read.
"""

import json
import sys
from pathlib import Path

import pytest

import adiab.runner

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", tracing.RUNNER_NAMES)
def test_traced_runner_names_exist(name):
    assert callable(getattr(adiab.runner, name, None))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_ops_run_and_pass_their_checks(tmp_path, workload):
    built = workloads.build(workload, seed=3, shrink=40)
    digests = workloads.DigestStore(tmp_path / "digests.json", "surface")
    assert built.ops
    for op in built.ops:
        result, _, error = workloads.attempt(op, tmp_path)
        assert error is None, f"{op.key}: {error}"
        assert workloads.verify(op, result, tmp_path, digests) == [], op.key


@pytest.mark.parametrize("workload", ["pair", "panels"])
def test_layer_spans_nest_under_run_scenario(tmp_path, workload):
    op = workloads.build(workload, seed=1, shrink=40).profile_op
    with tracing.installed(tracing.Tracer()) as tracer:
        assert workloads.attempt(op, tmp_path, tracer)[2] is None
    assert tracer.check_nesting() == []
    spans = tracer.spans

    def kids(parent):
        return sorted(s["name"] for s in spans if s["parent"] == parent["id"])

    top = [s for s in spans if s["name"] == "run_scenario"]
    assert len(top) == 1 and top[0]["parent"] is None
    # the pair runs only B through the pipeline; A is propagated on B's lattice
    expected = ["marzlin_sanders_model"] * (workload == "pair") + ["run_pipeline"]
    assert kids(top[0]) == expected
    for pipe in (s for s in spans if s["name"] == "run_pipeline"):
        assert kids(pipe) == ["evolve", "run_diagnostics", "track"]
