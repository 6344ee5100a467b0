"""Driven finite-dimensional quantum systems with exact amplitude bookkeeping.

The package propagates the time-dependent Schrödinger equation with a
unitary midpoint-exponential integrator, tracks the instantaneous
eigensystem along the run, and splits every off-level transition amplitude
into a gap-weighted coupling term plus a correction term whose sum is exact.
"""

from adiab.linalg import (
    ConvergenceError,
    hermitian_eigendecompose,
    unitary_exponential,
)
from adiab.models import (
    Model,
    SchwingerParams,
    custom_model,
    random_smooth_model,
    schwinger_model,
)
from adiab.propagate import TimeGrid, Trajectory, evolve, marzlin_sanders_model
from adiab.tracking import DegeneracyError, LevelCrossingError, SpectralPath, track
from adiab.diagnostics import DiagnosticsResult, GaugeError, run_diagnostics
from adiab.scenario import Scenario, ScenarioError, Thresholds, load_scenario, parse_scenario
from adiab.runner import RunReport, RunResult, emit_csv, emit_report, run_pipeline, run_scenario

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DegeneracyError",
    "DiagnosticsResult",
    "GaugeError",
    "LevelCrossingError",
    "Model",
    "RunReport",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "SchwingerParams",
    "SpectralPath",
    "Thresholds",
    "TimeGrid",
    "Trajectory",
    "custom_model",
    "emit_csv",
    "emit_report",
    "evolve",
    "hermitian_eigendecompose",
    "load_scenario",
    "marzlin_sanders_model",
    "parse_scenario",
    "random_smooth_model",
    "run_diagnostics",
    "run_pipeline",
    "run_scenario",
    "schwinger_model",
    "track",
    "unitary_exponential",
    "__version__",
]
