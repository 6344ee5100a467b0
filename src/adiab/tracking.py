"""Instantaneous eigensystem along a time grid, with a smooth gauge.

Each eigenvector carries a free time-dependent phase. The tracker pins it
down in one of two ways:

* ``transport``: successive frames are phase-rotated so the overlap with
  the previous frame is real and positive (discrete parallel transport).
  Frame 0 makes the first nonzero component of each vector real positive.
* ``analytic``: every frame is phase-aligned to the model's closed-form
  eigensystem. Only available for models that provide one; this is the
  gauge in which the rotating-field closed-form amplitudes are stated.

Phase-sensitive quantities (accumulated phase, coupling terms) depend on
this choice; all magnitudes reported downstream are gauge-free.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from adiab.linalg import hermitian_eigendecompose
from adiab.models import Model
from adiab.propagate import TimeGrid

__all__ = [
    "DegeneracyError",
    "LevelCrossingError",
    "GaugeError",
    "SpectralPath",
    "BerryPhase",
    "track",
    "analytic_path",
    "berry_phase",
    "qac_ratios",
    "rotate_gauge",
]

_DEGENERACY_REL = 1e-12
_OVERLAP_FLOOR = 0.5


class DegeneracyError(RuntimeError):
    """Two instantaneous eigenvalues collided at some grid sample."""


class LevelCrossingError(RuntimeError):
    """Level identity could not be followed between consecutive frames."""


class GaugeError(ValueError):
    """The accumulated phase came out complex: the gauge is not smooth."""


@dataclass
class SpectralPath:
    """Gauge-fixed eigensystem along a grid, stacked over samples.

    Shapes: times (K+1,), eigenvalues (K+1, dim), eigenvectors and
    derivatives (K+1, dim, dim) with level i in column ``[..., i]``.
    ``hamiltonians`` (K+1, dim, dim) is the H(t) stack the frames belong to.
    """

    grid: TimeGrid
    times: np.ndarray
    hamiltonians: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    derivatives: Optional[np.ndarray]

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[1]

    @property
    def n_samples(self) -> int:
        return self.times.shape[0]


@dataclass(frozen=True)
class BerryPhase:
    """Accumulated phase -∫E_n dt + i∫<E_n|Ė_n> dt along the grid.

    ``values`` is real (the integrand's i<E_n|Ė_n> part is real under a
    smooth gauge); ``imag_residue`` records how far from real the raw
    quadrature strayed.
    """

    level: int
    values: np.ndarray
    imag_residue: float


def _unit(z: np.ndarray) -> np.ndarray:
    return z / np.abs(z)


def _default_phases(frame: np.ndarray) -> np.ndarray:
    """Per-column phases making the first nonzero component real positive."""
    dim = frame.shape[1]
    first = np.argmax(np.abs(frame) > 1e-12, axis=0)  # 0 for an all-zero column
    z = frame[first, np.arange(dim)]
    phases = np.ones(dim, dtype=np.complex128)
    nonzero = z != 0.0
    phases[nonzero] = _unit(z[nonzero]).conj()
    return phases


def _first(mask: np.ndarray) -> Optional[int]:
    """Index of the first sample (axis 0) at which ``mask`` holds anywhere."""
    rows = mask.reshape(mask.shape[0], -1).any(axis=1)
    return int(np.argmax(rows)) if rows.any() else None


def _min_gaps(w: np.ndarray) -> np.ndarray:
    return np.min(np.diff(w, axis=1), axis=1, initial=np.inf)


def _gap_failure(min_gaps: np.ndarray, scales: np.ndarray, ts: np.ndarray):
    """(sample, DegeneracyError) for the first near-degenerate sample, or None."""
    k = _first(min_gaps <= _DEGENERACY_REL * np.maximum(scales, 1e-300))
    if k is None:
        return None
    return k, DegeneracyError(
        f"near-degenerate spectrum at sample {k} (t={ts[k]:.6g}): min gap {min_gaps[k]:.3e}"
    )


def _floor_failure(overlaps: np.ndarray, what: str, ts: np.ndarray, offset: int = 0):
    """(sample, LevelCrossingError) for the first overlap below the floor, or None.

    ``overlaps`` is (samples, dim), its row k belonging to sample k + offset.
    """
    low = np.abs(overlaps) < _OVERLAP_FLOOR
    k = _first(low)
    if k is None:
        return None
    i = int(np.argmax(low[k]))
    k_at = k + offset
    return k_at, LevelCrossingError(
        f"level {i} {what}: overlap magnitude {abs(overlaps[k, i]):.3f} fell below "
        f"{_OVERLAP_FLOOR} at sample {k_at} (t={ts[k_at]:.6g})"
    )


def _order_failure(pair_overlaps: np.ndarray, ts: np.ndarray):
    """(sample, LevelCrossingError) where the level order first breaks, or None.

    ``pair_overlaps[k]`` holds <E_i(t_k)|E_j(t_k+1)>; level i must overlap
    most with level i of the next frame.
    """
    dim = pair_overlaps.shape[1]
    hits = np.argmax(np.abs(pair_overlaps), axis=2)
    k = _first(hits != np.arange(dim))
    if k is None:
        return None
    return k + 1, LevelCrossingError(
        f"eigenvalue order broke between samples {k} and {k + 1} (t={ts[k + 1]:.6g}); "
        "suspected level crossing"
    )


def _raise_first(*failures):
    """Raise the error of the earliest failing sample; a tie goes to the earlier check."""
    found = [(f[0], order, f[1]) for order, f in enumerate(failures) if f is not None]
    if found:
        raise min(found, key=lambda item: item[:2])[2]


def _fill_derivatives(vectors: np.ndarray, h: float) -> np.ndarray:
    """Second-order stencils: central inside, one-sided at the endpoints."""
    if vectors.shape[0] < 3:
        raise ValueError("derivative stencils need at least three samples")
    d = np.empty_like(vectors)
    d[1:-1] = (vectors[2:] - vectors[:-2]) / (2.0 * h)
    d[0] = (-3.0 * vectors[0] + 4.0 * vectors[1] - vectors[2]) / (2.0 * h)
    d[-1] = (3.0 * vectors[-1] - 4.0 * vectors[-2] + vectors[-3]) / (2.0 * h)
    return d


def track(
    model: Model,
    grid: TimeGrid,
    gauge: str = "transport",
) -> SpectralPath:
    """Eigendecompose H(t) on every grid sample and fix a smooth gauge.

    H(t) is evaluated once per sample and the whole stack is solved in one
    call; the checks run as masks over the grid and raise at the earliest
    failing sample. In transport mode frame 0 makes the first nonzero
    component of each eigenvector real positive. Raises ``DegeneracyError``
    on a vanishing gap and ``LevelCrossingError`` when consecutive frames
    cannot be identified level-by-level (overlap below 0.5 or eigenvalue
    order breaking).
    """
    if gauge not in ("transport", "analytic"):
        raise ValueError(f"unknown gauge {gauge!r}; expected 'transport' or 'analytic'")
    if gauge == "analytic" and model.analytic_eigensystem is None:
        raise ValueError("model does not provide a closed-form eigensystem")
    dim = model.dim

    ts = grid.samples
    hs = model.hamiltonian(ts)
    eigenvalues, raw = hermitian_eigendecompose(hs)
    gap = _gap_failure(_min_gaps(eigenvalues), np.linalg.norm(hs, axis=(1, 2)), ts)

    if gauge == "analytic":
        refs = model.analytic_eigensystem(ts)[1]
        overlaps = np.einsum("kji,kji->ki", refs.conj(), raw)
        _raise_first(gap, _floor_failure(overlaps, "vs closed form", ts))
        phases = _unit(overlaps).conj()
    else:
        pairs = np.einsum("kji,kjl->kil", raw[:-1].conj(), raw[1:])
        steps = np.diagonal(pairs, axis1=1, axis2=2)
        _raise_first(
            gap,
            _order_failure(pairs, ts),
            _floor_failure(steps, "continuity", ts, offset=1),
        )
        # Discrete parallel transport: each frame takes the phase that makes
        # its overlap with the already-fixed previous frame real positive.
        phases = np.empty((ts.shape[0], dim), dtype=np.complex128)
        phases[0] = _default_phases(raw[0])
        phases[1:] = phases[0] * np.cumprod(_unit(steps).conj(), axis=0)
        phases = _unit(phases)

    eigenvectors = raw * phases[:, np.newaxis, :]
    return SpectralPath(
        grid=grid,
        times=ts,
        hamiltonians=hs,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        derivatives=_fill_derivatives(eigenvectors, grid.h),
    )


def analytic_path(model: Model, grid: TimeGrid) -> SpectralPath:
    """SpectralPath built purely from a model's closed forms (no eigensolver).

    Derivatives come from the closed-form expressions when the model supplies
    them, otherwise from the same finite-difference stencils as ``track``.
    ``hamiltonians`` comes from ``model.hamiltonian``, not from the closed-form
    eigensystem, so the identity checks still test the closed forms against H.
    """
    if model.analytic_eigensystem is None:
        raise ValueError("model does not provide a closed-form eigensystem")
    ts = grid.samples
    eigenvalues, eigenvectors = model.analytic_eigensystem(ts)
    scales = np.max(np.abs(eigenvalues), axis=1)
    _raise_first(_gap_failure(_min_gaps(eigenvalues), np.where(scales > 0.0, scales, 1.0), ts))
    if model.analytic_eigensystem_derivative is not None:
        derivatives = model.analytic_eigensystem_derivative(ts)
    else:
        derivatives = _fill_derivatives(eigenvectors, grid.h)
    return SpectralPath(
        grid=grid,
        times=ts,
        hamiltonians=model.hamiltonian(ts),
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        derivatives=derivatives,
    )


def berry_phase(path: SpectralPath, n: int) -> BerryPhase:
    """Trapezoidal accumulation of -E_n + i<E_n|Ė_n> from t_start.

    The result starts at zero and is real under a smooth gauge; an imaginary
    residue above 1e-6 raises ``GaugeError``, since it signals a broken gauge.
    """
    if path.derivatives is None:
        raise ValueError("path carries no eigenvector derivatives")
    vn = path.eigenvectors[:, :, n]
    dn = path.derivatives[:, :, n]
    geometric = np.einsum("kj,kj->k", vn.conj(), dn)
    integrand = -path.eigenvalues[:, n] + 1j * geometric
    h = path.grid.h
    increments = 0.5 * h * (integrand[1:] + integrand[:-1])
    raw = np.concatenate([[0.0 + 0.0j], np.cumsum(increments)])
    residue = float(np.max(np.abs(raw.imag)))
    if residue > 1e-6:
        raise GaugeError(f"accumulated phase has imaginary residue {residue:.3e}; gauge broken")
    return BerryPhase(level=n, values=raw.real.copy(), imag_residue=residue)


def qac_ratios(path: SpectralPath, n: int) -> np.ndarray:
    """(K+1, dim) array of |<E_m|Ė_n>|/|E_m - E_n|, NaN on the m == n column."""
    if path.derivatives is None:
        raise ValueError("path carries no eigenvector derivatives")
    couplings = np.einsum("kjm,kj->km", path.eigenvectors.conj(), path.derivatives[:, :, n])
    gaps = path.eigenvalues - path.eigenvalues[:, n][:, np.newaxis]
    out = np.full(couplings.shape, np.nan)
    mask = np.arange(path.dim) != n
    out[:, mask] = np.abs(couplings[:, mask]) / np.abs(gaps[:, mask])
    return out


def rotate_gauge(path: SpectralPath, phases: np.ndarray) -> SpectralPath:
    """Apply per-level phase rotations e^{i phases[k, i]} and re-derive.

    ``phases`` has shape (K+1, dim). Derivatives are rebuilt with the same
    stencils, so downstream gauge-covariant quantities see a consistently
    rotated path.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (path.n_samples, path.dim):
        raise ValueError(f"phases must have shape {(path.n_samples, path.dim)}")
    rotated = path.eigenvectors * np.exp(1j * phases)[:, np.newaxis, :]
    return replace(
        path,
        eigenvectors=rotated,
        derivatives=_fill_derivatives(rotated, path.grid.h),
    )
