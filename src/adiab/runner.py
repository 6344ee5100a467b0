"""Scenario execution: propagate, track, diagnose, summarize, emit.

Outputs are deterministic: identical scenario documents produce
byte-identical CSV and report files. Floats are rendered with Python's
shortest round-trip repr, '.' radix, LF line endings. The CSV's bytes are
those of one string of every float's repr, but its rows are formatted and
written a block at a time by ``_floatfmt.write_rows``, so emission holds
one block's text, whatever the run's length. The report is
written by ``_json_pieces``, which gives ``json.dumps(report, indent=2)``'s
bytes without its pure-Python indenting encoder.

A rerun replaces each output with a new file rather than truncating the
old one (``_open_output``): a regular file at the path is unlinked and
created again, so its owner and mode come from the process and its umask
(a root rerun over a read-only output leaves the umask's mode, usually
writable) and a hard link to it keeps the old bytes. A symlink at the path
is followed and its target truncated, and a directory or a file the
process may not write still fails with ``OSError``, leaving the file as it
was. The saving is an implicit flush given up: on ext4 with
``auto_da_alloc``, closing a truncated and rewritten file starts its
writeback at once, which made a rewrite cost about 2.5 times a fresh
write. Nothing calls ``fsync``, before or after: a reader never sees old
and new bytes mixed, but after a power loss an output not yet written back
comes back empty. For a rerun that window was about the journal commit
interval (5 s on default ext4); now it is, as for a first run, up to the
dirty-writeback expiry (about 30 s on default ext4).
"""

from __future__ import annotations

import errno
import math
import os
import stat
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

import numpy as np

from adiab import _floatfmt
from adiab.diagnostics import DiagnosticsResult, run_diagnostics
from adiab.linalg import stack_matmul
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


def run_pipeline(model: Model, grid: TimeGrid, n: int, gauge: str = "transport") -> PipelineResult:
    """Track the eigensystem, start in level ``n`` (0-based), propagate, diagnose."""
    if not 0 <= n < model.dim:
        raise ValueError(f"tracked level {n} out of range for dim {model.dim}")
    path = track(model, grid, gauge=gauge)
    psi0 = path.eigenvectors[0, :, n].copy()
    psi0 /= np.linalg.norm(psi0)
    trajectory = evolve(model, psi0, grid)
    diagnostics = run_diagnostics(trajectory.states, path, n)
    return PipelineResult(model=model, path=path, trajectory=trajectory, diagnostics=diagnostics)


def _unitarity_drift(trajectory: Trajectory) -> float:
    us = trajectory.propagators
    grams = stack_matmul(us.conj().swapaxes(-2, -1), us)
    grams -= np.eye(us.shape[1])
    return float(np.abs(grams).max())


def _perturbation_residual(model: Model, path: SpectralPath) -> float:
    """Worst interior-sample residual of <E_m|Hdot|E_i>/(E_m - E_i) + <E_m|Ė_i>."""
    v = path.eigenvectors[1:-1]
    dv = path.derivatives[1:-1]
    w = path.eigenvalues[1:-1]
    hdots = model.derivative(path.times[1:-1])
    if path.dim == 2:
        # Only the two off-diagonal entries are read; form just those.
        vc = v.conj()
        hv = stack_matmul(hdots, v)
        gap = w[:, 0] - w[:, 1]
        upper = (vc[:, 0, 0] * hv[:, 0, 1] + vc[:, 1, 0] * hv[:, 1, 1]) / gap
        upper += vc[:, 0, 0] * dv[:, 0, 1] + vc[:, 1, 0] * dv[:, 1, 1]
        lower = (vc[:, 0, 1] * hv[:, 0, 0] + vc[:, 1, 1] * hv[:, 1, 0]) / -gap
        lower += vc[:, 0, 1] * dv[:, 0, 0] + vc[:, 1, 1] * dv[:, 1, 0]
        return float(max(np.abs(upper).max(), np.abs(lower).max()))
    vh = v.conj().swapaxes(-2, -1)
    mats = stack_matmul(stack_matmul(vh, hdots), v)
    couplings = stack_matmul(vh, dv)
    gaps = w[:, :, np.newaxis] - w[:, np.newaxis, :]
    off = ~np.eye(path.dim, dtype=bool)
    residual = mats[:, off] / gaps[:, off] + couplings[:, off]
    return float(np.abs(residual).max())


def _off_levels(dim: int, n: int) -> list[int]:
    return [m for m in range(dim) if m != n]


def _column_max(a: np.ndarray) -> list[float]:
    # numpy reduces axis 0 of a C-order array one short row at a time. The
    # dim-2 stacks are time-contiguous already, so this copies nothing there;
    # above dim 2 the stacks are C order and the copy still pays. max is exact.
    return np.asfortranarray(a).max(axis=0).tolist()


def _criteria_fractions(ratios: np.ndarray, margin: float) -> dict:
    """Share of samples whose worst-level ratio is below ``margin``; (a) over its non-NaN samples."""
    # NaN < margin is False, so (a) counts only defined samples; mean = count / size.
    # Time-contiguous, as in _column_max, so axis 0 is one long inner loop.
    held = np.count_nonzero(np.asfortranarray(ratios < margin), axis=0).tolist()
    samples = ratios.shape[0]
    defined = samples - int(np.count_nonzero(np.isnan(ratios[:, 0])))
    return {
        "a": held[0] / defined if defined else None,
        "b": held[1] / samples,
        "c": held[2] / samples,
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
    inverse_residual: Optional[float] = None,
) -> RunReport:
    """One pipeline's report; a pair's U_B U_A residual adds the ``propagator_inverse`` check."""
    diag = pipeline.diagnostics
    n = diag.level
    off = _off_levels(diag.dim, n)
    th = scenario.thresholds
    abs_c = np.abs(diag.c)
    # qac is |Q_m|, so max_abs_q and max_qac are one maximum under two keys
    max_c, max_r, max_qac = map(_column_max, (abs_c, np.abs(diag.r), diag.qac))

    # fmax/fmin skip NaN, as nanmax/nanmin do, without their Python-level checks
    max_cn = float(np.fmax.reduce(diag.cn_residual))
    summary = {
        "max_decomposition_residual": float(np.fmax.reduce(diag.residual, axis=None)),
        "max_lambda_residual": float(diag.lam.max()),
        "max_unitarity_drift": _unitarity_drift(pipeline.trajectory),
        "max_norm_error": float(diag.norm_error.max()),
        "max_probability_defect": float(diag.probability_defect.max()),
        # c_n is reconstructed only where E_n != 0, so the maximum may not exist.
        "max_cn_reconstruction_residual": None if math.isnan(max_cn) else max_cn,
        "max_perturbation_residual": _perturbation_residual(pipeline.model, pipeline.path),
        "berry_imag_residue": diag.beta_imag_residue,
        "max_abs_c": {str(i + 1): value for i, value in enumerate(max_c)},
        "max_abs_q": {str(m + 1): max_qac[m] for m in off},
        "max_abs_r": {str(m + 1): max_r[m] for m in off},
        "max_qac": {str(m + 1): max_qac[m] for m in off},
        "min_fidelity": float(abs_c[:, n].min()),
        "criteria_true_fraction": _criteria_fractions(diag.criteria_ratios, th.margin),
    }

    max_off_c = max(max_c[m] for m in off)
    worst_qac = max(max_qac[m] for m in off)
    adiabatic_holds = max_off_c < th.adiabatic_max_c
    qac_violated = worst_qac > th.qac_violation
    description = (
        f"adiabatic approximation {'holds' if adiabatic_holds else 'fails'} "
        f"(max off-level |c| = {max_off_c:.5f}, threshold {th.adiabatic_max_c}); "
        f"coupling-ratio condition {'violated' if qac_violated else 'satisfied'} "
        f"(max ratio = {worst_qac:.5f}, threshold {th.qac_violation})"
    )

    limits = [(name, summary[key], tol) for name, key, tol in _CHECKS]
    if inverse_residual is not None:
        limits.append(("propagator_inverse", inverse_residual, INVERSE_TOL))
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
    )


def run_scenario(scenario: Scenario) -> RunResult:
    """Execute a validated scenario and assemble its report.

    For the transformed pair, the primary system (B, driven by -U_a† H_a U_a)
    runs the pipeline, and the emitted series describe B. The companion
    system (A, the plain rotating field) is propagated once, on the half-step
    lattice over which B's operators are formed once, and is neither tracked
    nor diagnosed: the report reads of A only its propagators at the even
    lattice points, for the U_B U_A residual, and its fidelity
    |<E_n(t)|U_a(t) E_n(0)>|, with E_n column n of A's closed-form
    eigensystem, the one B's analytic gauge uses. Fidelity is gauge-free,
    and A's levels are ±omega0/2 in ascending order at every t, so the
    closed form names level n at every sample and no eigenproblem is
    solved for A. B's fidelity is formed once, as the summary's
    ``min_fidelity``, and the ``marzlin_sanders`` block reads it from there.
    """
    grid = TimeGrid(scenario.t_start, scenario.t_end, scenario.steps)
    gauge = "analytic" if scenario.gauge == "analytic-reference" else "transport"
    n = scenario.level - 1

    if scenario.model_kind == "schwinger":
        pipeline = run_pipeline(schwinger_model(scenario.params), grid, n, gauge)
        return RunResult(scenario=scenario, pipeline=pipeline, report=_build_report(scenario, pipeline))

    model_a = schwinger_model(scenario.params)
    model_b, lattice_a = marzlin_sanders_model(model_a, grid)
    pipeline_b = run_pipeline(model_b, grid, n, gauge)
    propagators_a = lattice_a.propagators[::2]
    vector_a = model_a.analytic_eigensystem(grid.samples)[1][:, :, n]
    psi0 = vector_a[0] / np.linalg.norm(vector_a[0])
    states_a = stack_matmul(propagators_a, psi0[:, np.newaxis])[..., 0]
    fidelity_a = np.abs(np.einsum("kj,kj->k", vector_a.conj(), states_a))
    products = stack_matmul(pipeline_b.trajectory.propagators, propagators_a)
    inverse_residual = float(np.abs(products - np.eye(model_a.dim)).max())
    report = _build_report(scenario, pipeline_b, inverse_residual)
    min_fidelity_a = float(fidelity_a.min())
    min_fidelity_b = report.summary["min_fidelity"]
    report.marzlin_sanders = {
        "max_inverse_residual": inverse_residual,
        "min_fidelity_system_a": min_fidelity_a,
        "min_fidelity_system_b": min_fidelity_b,
        "system_b_loses_adiabaticity": min_fidelity_b < 0.9,
        "system_a_stays_adiabatic": min_fidelity_a > 0.99,
    }
    return RunResult(scenario=scenario, pipeline=pipeline_b, report=report)


def emit_csv(result: RunResult, path) -> Path:
    """One row per grid sample, fixed column order, deterministic bytes.

    Each quantity has one column: c_i as ``re_c_i`` and ``im_c_i``, and
    |Q_m| as ``qac_m``, the coupling ratio it equals. Each float is written
    as repr gives it. The rows go out a block at a time through
    ``_floatfmt.write_rows``, so the text held at once is one block's; only
    the |R| columns are formed whole.
    """
    diag = result.pipeline.diagnostics
    n = diag.level
    table = {"t": diag.times}  # header name -> column, in column order
    for i, c in enumerate(diag.c.T, 1):
        table |= {f"re_c_{i}": c.real, f"im_c_{i}": c.imag}
    for m in _off_levels(diag.dim, n):
        k = m + 1
        table |= {f"abs_R_{k}": np.abs(diag.r[:, m]), f"qac_{k}": diag.qac[:, m]}
        table |= {f"residual_{k}": diag.residual[:, m]}
    table |= {f"beta_{n + 1}": diag.beta, "D_norm": diag.d_norm, "Ddot_norm": diag.ddot_norm}
    table |= {"lambda_residual": diag.lam, "norm_error": diag.norm_error}
    path = Path(path)
    with _open_output(path) as out:
        out.write((",".join(table) + "\n").encode("utf-8"))
        _floatfmt.write_rows(list(table.values()), out.write)
    return path


def _open_output(path: Path):
    """Open ``path`` for writing as a new file, or as ``open(path, "wb")`` does.

    A regular file at ``path`` is unlinked first, so the output is a new
    inode with the process's owner and the umask's mode and is never
    truncated in place. Anything else (no file, a symlink, which is
    followed, a directory) goes straight to the open, as does a file whose
    unlink is refused, such as one in a sticky directory. A regular file
    the process may not write raises ``PermissionError`` before it is
    touched, as the open would.
    """
    try:
        regular = stat.S_ISREG(os.lstat(path).st_mode)
    except OSError:
        regular = False
    if regular:
        if not os.access(path, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        try:
            os.unlink(path)
        except OSError:
            pass  # truncate in place instead
    return path.open("wb")


def _json_pieces(value, pieces: list, indent: str = "\n") -> None:
    """Append ``value``'s text, as ``json.dumps(value, indent=2)`` gives it, to ``pieces``.

    ``indent`` is the line break and indentation before the closing brace
    of ``value``. Reports hold only dicts with str keys, float, str, bool,
    None and int; a float subclass such as ``np.float64`` is written as a
    float, and any other type, a list included, raises ``TypeError``.
    """
    if isinstance(value, float):  # json's spelling: repr, or a non-finite name
        if value != value:
            pieces.append("NaN")
        elif value == math.inf:
            pieces.append("Infinity")
        elif value == -math.inf:
            pieces.append("-Infinity")
        else:
            pieces.append(float.__repr__(value))
    elif isinstance(value, str):
        pieces.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        inner = indent + "  "
        separator = "{" + inner
        for key, item in value.items():  # a key that is not a str raises TypeError here
            pieces += (separator, encode_basestring_ascii(key), ": ")
            _json_pieces(item, pieces, inner)
            separator = "," + inner
        pieces += (indent, "}")
    elif value is None:
        pieces.append("null")
    elif value is True:
        pieces.append("true")
    elif value is False:
        pieces.append("false")
    elif isinstance(value, int):
        pieces.append(int.__repr__(value))
    else:
        raise TypeError(f"a report cannot hold {type(value).__name__}")


def emit_report(result: RunResult, path) -> Path:
    """The report as ``json.dumps(report, indent=2)`` plus a newline, ASCII bytes."""
    pieces = []
    _json_pieces(result.report.to_dict(), pieces)
    pieces.append("\n")
    path = Path(path)
    with _open_output(path) as out:
        out.write("".join(pieces).encode("ascii"))
    return path
