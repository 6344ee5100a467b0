"""One workload in one single-threaded process; prints one JSON line.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/child.py --workload NAME --seed N --setup-only

``run.py`` starts this with BLAS/OpenMP threads set to 1 and ``src`` on
``PYTHONPATH``. Set-up (importing ``adiab`` and loading or building the
inputs) is timed first; then operations run in a closed loop, one after
another, until ``--seconds`` have passed.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

# Everything imported from here on, adiab and numpy included, counts as set-up.
import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from adiab import hermitian_eigendecompose, unitary_exponential  # noqa: E402
from tracing import CallCounter, Tracer, installed  # noqa: E402
from workloads import (  # noqa: E402
    DigestStore,
    Plain,
    attempt,
    build,
    model_and_grid,
    source_digest,
    verify,
)

OUT = Path(__file__).resolve().parents[1] / ".bench_build" / "perfbench"

# A fixed kernel of small complex matrix products, timed just before every
# operation. On a shared host the speed of the same code can swing by a
# factor of two for minutes at a time. The operations of all three workloads
# slow with this kernel to within 3-9 %, so an operation's time over the
# kernel's time measures the program rather than the host.
_GRID = np.arange(64).reshape(8, 8)
REFERENCE_MATRIX = (_GRID % 7 - 3) + 1j * (_GRID.T % 5 - 2)
REFERENCE_PRODUCTS = 400
REFERENCE_NOMINAL_S = 0.002  # the kernel's time on an uncontended 2.1 GHz Xeon core


def _reference_seconds() -> float:
    t0 = time.perf_counter()
    m = REFERENCE_MATRIX.copy()
    for _ in range(REFERENCE_PRODUCTS):
        m = m @ REFERENCE_MATRIX
        m /= np.abs(m).max()
        m[0, 1] = m[1, 0]
    return time.perf_counter() - t0


def _array_bytes(obj) -> int:
    """Computed bytes: the nbytes of every array the object holds."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def _loop(workload, seconds, out_dir, digests, inst):
    """Closed loop: the next operation starts when the previous one is checked.

    Operations run in whole passes over the inputs, so that every input is
    repeated alike.
    """
    records = []
    n = len(workload.ops)
    start = time.perf_counter()
    i = 0
    while i % n or i == 0 or time.perf_counter() - start < seconds:
        op = workload.ops[i % n]
        if isinstance(inst, Tracer):
            inst.run_id = i
        reference = _reference_seconds()
        result, elapsed, error = attempt(op, out_dir, inst)
        failed_checks = []
        if error is None:
            try:
                failed_checks = verify(op, result, out_dir, digests)
            except Exception:  # an output the checks cannot read fails the operation
                error = traceback.format_exc(limit=3)
        records.append(
            {
                "op": op.key,
                "steps": op.steps,
                "seconds": elapsed,
                "reference_s": reference,
                "error": error,
                "failed_checks": failed_checks,
                "ok": error is None and not failed_checks,
            }
        )
        i += 1
    return records


def _summary(records) -> dict:
    """Throughput of one pass over the inputs, raw and calibrated.

    ``steps_per_s`` is all passed steps over all timed seconds. For
    ``calibrated_steps_per_s`` each operation's time is divided by the
    reference kernel's time just before it; an input costs the median of
    these ratios over its repeats, and the pass costs the sum over inputs,
    in units of the kernel's nominal time. An input with a failed repeat
    adds no steps.
    """
    ratios: dict = {}
    for r in records:
        steps, ok, values = ratios.get(r["op"], (r["steps"], True, []))
        values.append(r["seconds"] / r["reference_s"])
        ratios[r["op"]] = (steps, ok and r["ok"], values)
    passed = sum(steps for steps, ok, _ in ratios.values() if ok)
    cost = sum(statistics.median(values) for _, _, values in ratios.values())
    busy = sum(r["seconds"] for r in records)
    steps = sum(r["steps"] for r in records if r["ok"])
    return {
        "attempted": len(records),
        "failed": sum(1 for r in records if not r["ok"]),
        "steps": steps,
        "busy_s": busy,
        "steps_per_s": steps / busy,
        "reference_median_s": statistics.median(r["reference_s"] for r in records),
        "calibrated_steps_per_s": passed / (cost * REFERENCE_NOMINAL_S),
    }


def _profiled_pass(workload, out_dir) -> dict:
    """Exact counts and computed bytes from one cProfile pass over the profile op."""
    op = workload.profile_op
    with installed(CallCounter()) as counter:
        error = attempt(op, out_dir, counter)[2]
    steps, samples = op.steps, op.steps + 1
    inc, fns = counter.inclusive, counter.functions
    entry = "run_scenario" if op.scenario is not None else "run_pipeline"
    h_evals = sum(
        fns[("models.py", f)]
        for f in ("schwinger_hamiltonian", "schwinger_hamiltonian_derivative", "hamiltonian", "derivative")
    )
    propagators = [t.propagators for t in counter.results["evolve"]]
    propagators += [t.propagators for _, t in counter.results["marzlin_sanders_model"]]
    csv = out_dir / f"{op.key}.csv"
    return {
        "profile.op": op.key,
        "profile.steps": steps,
        "tracking.py_calls_per_sample": inc["track"] / samples,
        "tracking.path_bytes": sum(_array_bytes(p) for p in counter.results["track"]),
        "linalg.eigh_calls_per_step": fns[("linalg.py", "hermitian_eigendecompose")] / steps,
        "linalg.expm_calls_per_step": fns[("linalg.py", "unitary_exponential")] / steps,
        "models.h_evals_per_step": h_evals / steps,
        "propagate.py_calls_per_step": (inc["evolve"] + inc["marzlin_sanders_model"]) / steps,
        "propagate.propagator_bytes": sum(p.nbytes for p in propagators if p is not None),
        "diagnostics.py_calls_per_sample": inc["run_diagnostics"] / samples,
        "diagnostics.result_bytes": sum(_array_bytes(d) for d in counter.results["run_diagnostics"]),
        "runner.py_calls_per_step": inc[entry] / steps,
        "runner.csv_bytes": csv.stat().st_size if op.emit and error is None else 0,
    }


def _tracing_overhead(workload, out_dir, repeats=9) -> dict:
    """Traced over untraced wall time of the profile op, in adjacent pairs so
    that both halves of a pair see the same host speed; medians."""
    op = workload.profile_op
    plain, fracs = [], []
    for _ in range(repeats):
        plain.append(attempt(op, out_dir)[1])
        with installed(Tracer()) as tracer:
            fracs.append(attempt(op, out_dir, tracer)[1] / plain[-1] - 1.0)
    frac = statistics.median(fracs)
    return {"trace.overhead_s": frac * statistics.median(plain), "trace.overhead_frac": frac}


def _linalg_per_call(workload) -> dict:
    """Median µs per eigensolve and per exponential on the workload's own H(t)."""
    mats = []
    for op in workload.ops[:8]:
        model, grid = model_and_grid(op)
        ts = grid.samples[np.linspace(0, grid.steps, 8).astype(int)]
        mats += [(model.hamiltonian(float(t)), grid.h) for t in ts]
    eigh, expm = [], []
    for _ in range(3):
        for h_t, step in mats:
            t0 = time.perf_counter()
            hermitian_eigendecompose(h_t)
            t1 = time.perf_counter()
            unitary_exponential(h_t, step)
            t2 = time.perf_counter()
            eigh.append(t1 - t0)
            expm.append(t2 - t1)
    return {
        "linalg.eigh_us": statistics.median(eigh) * 1e6,
        "linalg.expm_us": statistics.median(expm) * 1e6,
    }


def _traced_run(workload, seconds, out_dir, digests, spans_path) -> dict:
    metrics = _profiled_pass(workload, out_dir)
    metrics.update(_tracing_overhead(workload, out_dir))
    metrics.update(_linalg_per_call(workload))

    with installed(Tracer()) as tracer:
        records = _loop(workload, seconds, out_dir, digests, tracer)
    problems = tracer.check_nesting()
    spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")

    steps = sum(r["steps"] for r in records)
    samples = steps + len(records)
    track_s, evolve_s, diag_s = tracer.total("track"), tracer.total("evolve"), tracer.total("run_diagnostics")
    metrics.update(
        {
            "scenario.load_s": statistics.median(workload.load_seconds),
            "tracking.track_s": track_s,
            "tracking.us_per_sample": track_s / samples * 1e6,
            "tracking.errors": tracer.errors("track"),
            "propagate.evolve_s": evolve_s,
            "propagate.us_per_step": evolve_s / steps * 1e6,
            "propagate.transform_s": tracer.total("marzlin_sanders_model"),
            "diagnostics.run_s": diag_s,
            "diagnostics.us_per_sample": diag_s / samples * 1e6,
            "runner.report_s": tracer.self_time("run_scenario"),
            "runner.checks_failed": sum(len(r["failed_checks"]) for r in records),
            "runner.emit_csv_s": tracer.total("emit_csv"),
            "runner.emit_report_s": tracer.total("emit_report"),
            "trace.ops": len(records),
            "trace.steps": steps,
        }
    )
    return {"records": records, "metrics": metrics, "span_problems": problems}


def _fingerprint() -> dict:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints its configuration
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shrink", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = build(args.workload, args.seed, args.shrink)
    setup_s = time.perf_counter() - _T0
    reference = statistics.median(_reference_seconds() for _ in range(5))
    setup = {"setup_s": setup_s, "calibrated_setup_s": setup_s / reference * REFERENCE_NOMINAL_S}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tag = f"{args.workload}-seed{args.seed}-shrink{args.shrink}"
    out_dir = OUT / f"out-{tag}"
    out_dir.mkdir(parents=True, exist_ok=True)
    digests = DigestStore(OUT / "digests.json", source_digest())
    try:
        if args.trace:
            doc = _traced_run(workload, args.seconds, out_dir, digests, OUT / f"spans-{tag}.json")
        else:
            records = _loop(workload, args.seconds, out_dir, digests, Plain())
            doc = {"records": records}
    finally:
        digests.save()
        shutil.rmtree(out_dir, ignore_errors=True)
    doc.update(_summary(doc["records"]))
    doc.update(
        {
            **setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "model_seeds": workload.model_seeds,
            "env": _fingerprint(),
        }
    )
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
