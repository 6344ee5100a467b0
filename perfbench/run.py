"""The adiab benchmark.

    python3 perfbench/run.py --workload {panels,pair,dense} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Each workload runs in its own
single-process, single-threaded child (``child.py``) with BLAS and OpenMP
pinned to one thread. With ``--trace 0`` the result carries the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` a separate traced run
gives the per-layer metrics. Every operation's outputs are checked; the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Lines before it name the machine (the environment fingerprint) and list the
metrics for a reader. The full record, per-operation times included, goes to
``.bench_build/perfbench/``. Exits 2 without a result when the program is
missing or a child fails. ``--shrink K`` runs every input over 1/K of its
span at the same step size, for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
# Set-up is timed in this many fresh children, half before the measuring one
# and half after it, so that its median spans the whole run; and in the
# measuring child itself.
SETUP_CHILDREN = 10
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _run_child(args: list, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the child could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"child exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _metric_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in _spec()[kind]}


def _fingerprint(child_env: dict, load_start, load_end) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "processor": platform.processor() or None,
        **child_env,
        "loadavg_start": [round(x, 2) for x in load_start],
        "loadavg_end": [round(x, 2) for x in load_end],
    }


def run(workload: str, seed: int, seconds: float, trace: int, shrink: int) -> dict:
    if not (ROOT / "src" / "adiab" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'adiab'} is missing")
    deadline = time.monotonic() + DEADLINE_S
    load_start = os.getloadavg()
    common = ["--workload", workload, "--seed", str(seed), "--shrink", str(shrink)]
    half = 0 if trace else SETUP_CHILDREN // 2

    def setup_children():
        return [_run_child([*common, "--setup-only"], deadline) for _ in range(half)]

    setups = setup_children()
    doc = _run_child([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups += [doc, *setup_children()]
    doc["setup_samples_s"] = [s["setup_s"] for s in setups]
    doc["calibrated_setup_samples_s"] = [s["calibrated_setup_s"] for s in setups]
    doc["env"] = _fingerprint(doc["env"], load_start, os.getloadavg())
    doc["seed"] = seed

    if trace:
        units = _metric_units("per_layer")
        values = doc["metrics"]
    else:
        units = _metric_units("end_to_end")
        values = {
            "setup_s": statistics.median(doc["calibrated_setup_samples_s"]),
            "calibrated_steps_per_s": doc["calibrated_steps_per_s"],
            "peak_rss_mb": doc["peak_rss_mb"],
        }
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": doc["failed"] == 0 and not doc.get("span_problems"),
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = OUT / f"result-{workload}-seed{seed}-trace{trace}-shrink{shrink}.json"
    record.write_text(json.dumps({**doc, "result": result}, indent=1), encoding="utf-8")
    return {"result": result, "doc": doc}


def _print_readable(workload: str, seed: int, doc: dict, result: dict) -> None:
    env = doc["env"]
    blas = env.get("blas") or {}
    print(
        f"env: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
        f"blas {blas.get('name')} {blas.get('version')}, "
        f"loadavg {env['loadavg_start'][0]} -> {env['loadavg_end'][0]}"
    )
    failed_frac = result["failed"] / result["attempted"]
    print(
        f"{workload} seed {seed}: {result['attempted']} operations, {result['failed']} failed, "
        f"failed_frac {failed_frac:.6g} ratio"
    )
    if "reference_median_s" in doc:
        print(
            f"  raw: steps_per_s {doc['steps_per_s']:.6g} steps/s, "
            f"setup_s {statistics.median(doc['setup_samples_s']):.6g} s; "
            f"reference kernel median {doc['reference_median_s'] * 1e3:.4g} ms"
        )
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    for rec in doc["records"]:
        if not rec["ok"]:
            print(f"  FAILED {rec['op']}: {rec['failed_checks']} {rec['error'] or ''}".rstrip())
    for problem in doc.get("span_problems") or []:
        print(f"  SPAN {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in _spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shrink", type=int, default=1, help="inputs over 1/K of their span")
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, args.trace, args.shrink)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    _print_readable(args.workload, args.seed, out["doc"], out["result"])
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
