"""Scenario execution: propagate, track, diagnose, summarize, emit.

Outputs are deterministic: identical scenario documents produce
byte-identical CSV and report files. Floats are rendered with Python's
shortest round-trip repr, '.' radix, LF line endings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from adiab.diagnostics import DiagnosticsResult, run_diagnostics
from adiab.models import Model, schwinger_model
from adiab.propagate import TimeGrid, Trajectory, evolve, marzlin_sanders_model
from adiab.scenario import SCHEMA_VERSION, Scenario
from adiab.tracking import SpectralPath, track

__all__ = [
    "DECOMPOSITION_TOL",
    "LAMBDA_TOL",
    "UNITARITY_TOL",
    "NORM_TOL",
    "PROBABILITY_TOL",
    "CN_TOL",
    "PERTURBATION_TOL",
    "INVERSE_TOL",
    "PipelineResult",
    "RunReport",
    "RunResult",
    "run_pipeline",
    "run_scenario",
    "csv_header",
    "emit_csv",
    "emit_report",
]

DECOMPOSITION_TOL = 1e-7
LAMBDA_TOL = 1e-7
UNITARITY_TOL = 1e-9
NORM_TOL = 1e-10
PROBABILITY_TOL = 1e-8
CN_TOL = 1e-7
PERTURBATION_TOL = 1e-6
INVERSE_TOL = 1e-6


@dataclass
class PipelineResult:
    """Everything one propagate-track-diagnose pass produces."""

    model: Model
    grid: TimeGrid
    path: SpectralPath
    trajectory: Trajectory
    diagnostics: DiagnosticsResult


@dataclass
class RunReport:
    """One run's report document, held as its sections."""

    scenario: dict
    summary: dict
    regime: dict
    checks: dict
    marzlin_sanders: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return all(entry["pass"] for entry in self.checks.values())

    def first_failure(self) -> Optional[str]:
        for name, entry in self.checks.items():
            if not entry["pass"]:
                return name
        return None

    def to_dict(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "summary": self.summary,
            "regime": self.regime,
            "checks": self.checks,
            "pass": self.passed,
        }
        if self.marzlin_sanders is not None:
            doc["marzlin_sanders"] = self.marzlin_sanders
        return doc


@dataclass
class RunResult:
    scenario: Scenario
    pipeline: PipelineResult
    report: RunReport


def run_pipeline(
    model: Model,
    grid: TimeGrid,
    n: int,
    gauge: str = "transport",
) -> PipelineResult:
    """Track the eigensystem, start in level ``n`` (0-based), propagate, diagnose."""
    path = track(model, grid, gauge=gauge)
    psi0 = path.eigenvectors[0, :, n].copy()
    psi0 /= np.linalg.norm(psi0)
    trajectory = evolve(model, psi0, grid)
    diagnostics = run_diagnostics(trajectory, path, n)
    return PipelineResult(
        model=model, grid=grid, path=path, trajectory=trajectory, diagnostics=diagnostics
    )


def _unitarity_drift(trajectory: Trajectory) -> float:
    us = trajectory.propagators
    grams = np.einsum("kji,kjl->kil", us.conj(), us)
    grams -= np.eye(us.shape[1])
    return float(np.max(np.abs(grams)))


def _perturbation_residual(model: Model, path: SpectralPath) -> Optional[float]:
    """Worst interior-sample residual of <E_m|Hdot|E_i>/(E_m - E_i) + <E_m|Ė_i>."""
    if model.derivative is None or path.n_samples < 3:
        return None
    v = path.eigenvectors[1:-1]
    dv = path.derivatives[1:-1]
    w = path.eigenvalues[1:-1]
    hdots = model.derivative(path.times[1:-1])
    mats = np.einsum("kjm,kjl,kli->kmi", v.conj(), hdots, v)
    couplings = np.einsum("kjm,kji->kmi", v.conj(), dv)
    gaps = w[:, :, np.newaxis] - w[:, np.newaxis, :]
    off = ~np.eye(path.dim, dtype=bool)
    residual = mats[:, off] / gaps[:, off] + couplings[:, off]
    return float(np.max(np.abs(residual)))


def _off_levels(dim: int, n: int) -> list[int]:
    return [m for m in range(dim) if m != n]


def _criteria_fractions(diag: DiagnosticsResult, margin: float) -> dict:
    flags = diag.criteria_flags(margin)
    off = _off_levels(diag.dim, diag.level)
    worst = np.all(flags[:, off, :], axis=1)  # (K+1, 3)
    defined = diag.criteria_defined
    return {
        "a": float(np.mean(worst[defined, 0])) if np.any(defined) else None,
        "b": float(np.mean(worst[:, 1])),
        "c": float(np.mean(worst[:, 2])),
    }


# Identity checks in report order: name, the summary entry it gates, tolerance.
# A check whose summary entry is None (nothing to measure) is left out.
_CHECKS = (
    ("decomposition", "max_decomposition_residual", DECOMPOSITION_TOL),
    ("lambda", "max_lambda_residual", LAMBDA_TOL),
    ("unitarity", "max_unitarity_drift", UNITARITY_TOL),
    ("norm", "max_norm_error", NORM_TOL),
    ("probability", "max_probability_defect", PROBABILITY_TOL),
    ("cn_reconstruction", "max_cn_reconstruction_residual", CN_TOL),
    ("perturbation", "max_perturbation_residual", PERTURBATION_TOL),
)


def _build_report(
    scenario: Scenario,
    pipeline: PipelineResult,
    extras: Optional[dict] = None,
) -> RunReport:
    diag = pipeline.diagnostics
    n = diag.level
    off = _off_levels(diag.dim, n)
    th = scenario.thresholds

    summary = {
        "max_decomposition_residual": float(np.nanmax(diag.residual)),
        "max_lambda_residual": float(np.max(diag.lam)),
        "max_unitarity_drift": _unitarity_drift(pipeline.trajectory),
        "max_norm_error": float(np.max(diag.norm_error)),
        "max_probability_defect": float(np.max(diag.probability_defect)),
        # c_n is reconstructed only where E_n != 0, so the maximum may not exist.
        "max_cn_reconstruction_residual": (
            None if np.all(np.isnan(diag.cn_residual)) else float(np.nanmax(diag.cn_residual))
        ),
        "max_perturbation_residual": _perturbation_residual(pipeline.model, pipeline.path),
        "berry_imag_residue": diag.beta_imag_residue,
        "max_abs_c": {str(i + 1): float(np.max(np.abs(diag.c[:, i]))) for i in range(diag.dim)},
        "max_abs_q": {str(m + 1): float(np.max(np.abs(diag.q[:, m]))) for m in off},
        "max_abs_r": {str(m + 1): float(np.max(np.abs(diag.r[:, m]))) for m in off},
        "max_qac": {str(m + 1): float(np.max(diag.qac[:, m])) for m in off},
        "min_fidelity": float(np.min(diag.fidelity())),
        "criteria_true_fraction": _criteria_fractions(diag, th.margin),
    }

    max_off_c = max(summary["max_abs_c"][str(m + 1)] for m in off)
    worst_qac = max(summary["max_qac"].values())
    adiabatic_holds = max_off_c < th.adiabatic_max_c
    qac_violated = worst_qac > th.qac_violation
    description = (
        f"adiabatic approximation {'holds' if adiabatic_holds else 'fails'} "
        f"(max off-level |c| = {max_off_c:.5f}, threshold {th.adiabatic_max_c}); "
        f"coupling-ratio condition {'violated' if qac_violated else 'satisfied'} "
        f"(max ratio = {worst_qac:.5f}, threshold {th.qac_violation})"
    )

    limits = [(name, summary[key], tol) for name, key, tol in _CHECKS]
    if extras is not None:
        limits.append(("propagator_inverse", extras["max_inverse_residual"], INVERSE_TOL))
    checks = {
        name: {"value": value, "tolerance": tol, "pass": bool(value <= tol)}
        for name, value, tol in limits
        if value is not None
    }

    return RunReport(
        scenario={
            "name": scenario.name,
            "model": scenario.model_kind,
            "dim": diag.dim,
            "n": n + 1,
            "gauge": scenario.gauge,
            "t_start": scenario.t_start,
            "t_end": scenario.t_end,
            "steps": scenario.steps,
        },
        summary=summary,
        regime={
            "adiabatic_approximation_holds": adiabatic_holds,
            "qac_violated": qac_violated,
            "description": description,
        },
        checks=checks,
        marzlin_sanders=extras,
    )


def run_scenario(scenario: Scenario) -> RunResult:
    """Execute a validated scenario and assemble its report.

    For the transformed pair, the companion system (A, the plain rotating
    field) runs alongside the primary system (B, driven by -U_a† H_a U_a);
    the emitted series describe system B.
    """
    grid = TimeGrid(scenario.t_start, scenario.t_end, scenario.steps)
    gauge = "analytic" if scenario.gauge == "analytic-reference" else "transport"
    n = scenario.level - 1

    if scenario.model_kind == "schwinger":
        pipeline = run_pipeline(schwinger_model(scenario.params), grid, n, gauge)
        return RunResult(scenario=scenario, pipeline=pipeline, report=_build_report(scenario, pipeline))

    model_a = schwinger_model(scenario.params)
    model_b, _ = marzlin_sanders_model(model_a, grid)
    pipeline_b = run_pipeline(model_b, grid, n, gauge)
    pipeline_a = run_pipeline(model_a, grid, n, gauge)
    products = np.einsum(
        "kij,kjl->kil", pipeline_b.trajectory.propagators, pipeline_a.trajectory.propagators
    )
    inverse_residual = float(np.max(np.abs(products - np.eye(model_a.dim))))
    fidelity_a = pipeline_a.diagnostics.fidelity()
    fidelity_b = pipeline_b.diagnostics.fidelity()
    extras = {
        "max_inverse_residual": inverse_residual,
        "min_fidelity_system_a": float(np.min(fidelity_a)),
        "min_fidelity_system_b": float(np.min(fidelity_b)),
        "system_b_loses_adiabaticity": bool(np.min(fidelity_b) < 0.9),
        "system_a_stays_adiabatic": bool(np.min(fidelity_a) > 0.99),
    }
    report = _build_report(scenario, pipeline_b, extras)
    return RunResult(scenario=scenario, pipeline=pipeline_b, report=report)


def csv_header(dim: int, level: int) -> str:
    """Column schema; ``level`` is the 1-based tracked label."""
    cols = ["t"]
    for i in range(1, dim + 1):
        cols += [f"re_c_{i}", f"im_c_{i}", f"abs_c_{i}"]
    for m in range(1, dim + 1):
        if m == level:
            continue
        cols += [f"abs_Q_{m}", f"abs_R_{m}", f"qac_{m}", f"residual_{m}"]
    cols += [f"beta_{level}", "D_norm", "Ddot_norm", "lambda_residual", "norm_error"]
    return ",".join(cols)


def emit_csv(result: RunResult, path) -> Path:
    """One row per grid sample, fixed column order, deterministic bytes."""
    diag = result.pipeline.diagnostics
    n = diag.level
    columns = [diag.times]
    for i in range(diag.dim):
        columns += [diag.c[:, i].real, diag.c[:, i].imag, np.abs(diag.c[:, i])]
    for m in _off_levels(diag.dim, n):
        columns += [np.abs(diag.q[:, m]), np.abs(diag.r[:, m]), diag.qac[:, m], diag.residual[:, m]]
    columns += [diag.beta, diag.d_norm, diag.ddot_norm, diag.lam, diag.norm_error]
    rows = np.column_stack(columns).tolist()
    lines = [csv_header(diag.dim, n + 1)]
    lines += [",".join(map(repr, row)) for row in rows]
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def emit_report(result: RunResult, path) -> Path:
    path = Path(path)
    path.write_text(
        json.dumps(result.report.to_dict(), indent=2) + "\n", encoding="utf-8", newline="\n"
    )
    return path
