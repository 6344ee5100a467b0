"""The benchmark's workloads: inputs built from a seed, operations and their checks.

An operation is one scenario run (``panels``, ``pair``) or one dense
pipeline (``dense``). Only the program's own calls are timed
(``execute``); the checks in ``verify`` run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import adiab.runner
from adiab import (
    TimeGrid,
    emit_csv,
    emit_report,
    load_scenario,
    marzlin_sanders_model,
    parse_scenario,
    random_smooth_model,
    run_scenario,
    schwinger_model,
)
from adiab.models import Model
from adiab.scenario import Scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"

# The seven shipped Schwinger documents, the panel sweep users run with `adiab batch`.
PANEL_NAMES = (
    "static_field",
    "slow_theta_0p1",
    "slow_theta_pi4",
    "slow_theta_pi2",
    "fast_theta_0p1",
    "fast_theta_pi4",
    "fast_theta_pi2",
)
PANEL_PROFILE = "fast_theta_pi4"  # the panel the profiled pass counts calls on
PAIR_NAME = "marzlin_sanders"
# Each document runs over 1/SPAN of its span at its own step size, so that a
# run repeats every input many times (see ``child._summary``).
PANEL_SPAN = 40
PAIR_SPAN = 48

# dense: seeded 8x8 drives, transport gauge, ground level, h = 0.004.
DENSE_DIM = 8
DENSE_STEPS = 16
DENSE_H = 0.004
DENSE_LEVEL = 0
DENSE_MODELS = 16

TOLERANCES = {
    "decomposition": adiab.runner.DECOMPOSITION_TOL,
    "lambda": adiab.runner.LAMBDA_TOL,
    "unitarity": adiab.runner.UNITARITY_TOL,
    "norm": adiab.runner.NORM_TOL,
    "probability": adiab.runner.PROBABILITY_TOL,
    "cn_reconstruction": adiab.runner.CN_TOL,
    "perturbation": adiab.runner.PERTURBATION_TOL,
}
PAIR_TOLERANCES = {**TOLERANCES, "propagator_inverse": adiab.runner.INVERSE_TOL}


@dataclass
class Op:
    """One operation: a scenario run, or a dense pipeline on a seeded model."""

    key: str
    steps: int
    scenario: Optional[Scenario] = None
    model: Optional[Model] = None
    grid: Optional[TimeGrid] = None
    emit: bool = False

    @property
    def tolerances(self) -> dict:
        if self.scenario is not None and self.scenario.model_kind == "marzlin_sanders":
            return PAIR_TOLERANCES
        return TOLERANCES


@dataclass
class Workload:
    ops: list  # run order; the measuring loop cycles through it
    profile_op: Op
    load_seconds: list = field(default_factory=list)  # one entry per input loaded or built
    model_seeds: list = field(default_factory=list)


def _shrunk(scenario: Scenario, path: Path, shrink: int) -> Scenario:
    """The same document over 1/shrink of its span with the same step size."""
    if shrink == 1:
        return scenario
    doc = json.loads(path.read_text(encoding="utf-8"))
    steps = max(10, doc["steps"] // shrink)
    t_start = doc.get("t_start", 0.0)
    doc["t_end"] = t_start + (doc["t_end"] - t_start) * steps / doc["steps"]
    doc["steps"] = steps
    return parse_scenario(json.dumps(doc), default_name=path.stem)


def _timed_load(path: Path, loads: list) -> Scenario:
    t0 = time.perf_counter()
    scenario = load_scenario(path)
    loads.append(time.perf_counter() - t0)
    return scenario


def _scenario_op(scenario: Scenario, emit: bool) -> Op:
    return Op(key=f"{scenario.name}-{scenario.steps}", steps=scenario.steps, scenario=scenario, emit=emit)


def build(name: str, seed: int, shrink: int = 1) -> Workload:
    """Load or build every input of a workload; the same seed gives the same inputs."""
    loads: list = []
    if name == "panels":
        order = np.random.default_rng(seed).permutation(len(PANEL_NAMES))
        ops, profile = [], None
        for i in order:
            path = SCENARIOS / f"{PANEL_NAMES[i]}.json"
            op = _scenario_op(_shrunk(_timed_load(path, loads), path, shrink * PANEL_SPAN), emit=True)
            ops.append(op)
            if PANEL_NAMES[i] == PANEL_PROFILE:
                profile = op
        return Workload(ops, profile, loads)
    if name == "pair":
        path = SCENARIOS / f"{PAIR_NAME}.json"
        scenario = _timed_load(path, loads)
        op = _scenario_op(_shrunk(scenario, path, shrink * PAIR_SPAN), emit=False)
        return Workload([op], op, loads)
    if name == "dense":
        steps = max(10, DENSE_STEPS // shrink)
        grid = TimeGrid(0.0, steps * DENSE_H, steps)
        seeds = [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=DENSE_MODELS)]
        ops = []
        for s in seeds:
            t0 = time.perf_counter()
            model = random_smooth_model(dim=DENSE_DIM, seed=s)
            loads.append(time.perf_counter() - t0)
            ops.append(Op(key=f"dense-{s}-{steps}", steps=steps, model=model, grid=grid))
        return Workload(ops, ops[0], loads, seeds)
    raise ValueError(f"unknown workload {name!r}")


def model_and_grid(op: Op):
    """The H(t) an operation evolves, with its grid."""
    if op.model is not None:
        return op.model, op.grid
    sc = op.scenario
    grid = TimeGrid(sc.t_start, sc.t_end, sc.steps)
    model = schwinger_model(sc.params)
    if sc.model_kind == "marzlin_sanders":
        model, _ = marzlin_sanders_model(model, grid)
    return model, grid


class Plain:
    """No instrumentation: calls go straight to the program."""

    def wrap(self, name, fn):
        return fn


def execute(op: Op, out_dir: Path, inst=Plain()):
    """The timed part of an operation: the program's calls and nothing else."""
    if op.model is not None:
        # Looked up at call time so that a traced run's wrapper is used.
        return adiab.runner.run_pipeline(op.model, op.grid, DENSE_LEVEL, "transport")
    result = inst.wrap("run_scenario", run_scenario)(op.scenario)
    if op.emit:
        inst.wrap("emit_csv", emit_csv)(result, out_dir / f"{op.key}.csv")
        inst.wrap("emit_report", emit_report)(result, out_dir / f"{op.key}.report.json")
    return result


def attempt(op: Op, out_dir: Path, inst=Plain()):
    """Run one operation; returns (result or None, seconds, error or None).

    A raising operation is a failed operation, never a crash of the run.
    """
    t0 = time.perf_counter()
    try:
        result = execute(op, out_dir, inst)
        error = None
    except Exception:  # the benchmark keeps running and reports the failure
        result = None
        error = traceback.format_exc(limit=3)
    return result, time.perf_counter() - t0, error


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dense_check_values(model: Model, pipe) -> dict:
    """The runner's identity checks, computed here for a bare pipeline."""
    diag, path, us = pipe.diagnostics, pipe.path, pipe.trajectory.propagators
    grams = np.einsum("kji,kjl->kil", us.conj(), us) - np.eye(us.shape[1])
    v = path.eigenvectors[1:-1]
    w = path.eigenvalues[1:-1]
    hdots = np.stack([model.derivative(float(t)) for t in path.times[1:-1]])
    mats = np.einsum("kjm,kjl,kli->kmi", v.conj(), hdots, v)
    couplings = np.einsum("kjm,kji->kmi", v.conj(), path.derivatives[1:-1])
    gaps = w[:, :, np.newaxis] - w[:, np.newaxis, :]
    off = ~np.eye(path.dim, dtype=bool)
    return {
        "decomposition": float(np.nanmax(diag.residual)),
        "lambda": float(np.max(diag.lam)),
        "unitarity": float(np.max(np.abs(grams))),
        "norm": float(np.max(diag.norm_error)),
        "probability": float(np.max(diag.probability_defect)),
        "cn_reconstruction": float(np.nanmax(diag.cn_residual)),
        "perturbation": float(np.max(np.abs(mats[:, off] / gaps[:, off] + couplings[:, off]))),
    }


def _dense_digest(pipe) -> str:
    diag = pipe.diagnostics
    parts = (pipe.path.eigenvalues, diag.c, diag.q, diag.r, diag.residual, pipe.trajectory.states)
    return _sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in parts))


def verify(op: Op, result, out_dir: Path, digests: "DigestStore") -> list:
    """Names of the failed checks: every identity check at the runner's
    tolerances, plus run-to-run byte identity of the outputs (C8d)."""
    if op.model is not None:
        values = _dense_check_values(op.model, result)
        outputs = {"arrays": _dense_digest(result)}
        failed = []
    else:
        report = result.report
        values = {name: entry["value"] for name, entry in report.checks.items()}
        failed = [name for name, entry in report.checks.items() if not entry["pass"]]
        if op.emit:
            outputs = {
                kind: _sha256((out_dir / f"{op.key}.{suffix}").read_bytes())
                for kind, suffix in (("csv", "csv"), ("report", "report.json"))
            }
        else:
            text = json.dumps(report.to_dict(), indent=2) + "\n"
            outputs = {"report": _sha256(text.encode("utf-8"))}
    for name, tol in op.tolerances.items():
        value = values.get(name)
        if (value is None or not value <= tol) and name not in failed:
            failed.append(name)
    for kind, digest in outputs.items():
        if not digests.matches(f"{op.key}.{kind}", digest):
            failed.append(f"c8d_{kind}")
    return failed


def source_digest() -> str:
    """Digest of the program and its shipped inputs, which keys the C8d record."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(SCENARIOS.glob("*.json")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class DigestStore:
    """Output digests per operation, kept across runs of the same source.

    A rerun of an operation, in this run or an earlier one, must reproduce
    its digests byte for byte.
    """

    def __init__(self, path: Path, source: str):
        self.path = path
        self.source = source
        self.digests: dict = {}
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            doc = {}
        if isinstance(doc, dict) and doc.get("source") == source:
            self.digests = doc.get("digests", {})

    def matches(self, key: str, digest: str) -> bool:
        return self.digests.setdefault(key, digest) == digest

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"source": self.source, "digests": self.digests}
        self.path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
