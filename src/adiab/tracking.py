"""Instantaneous eigensystem along a time grid, with a smooth gauge.

Each eigenvector carries a free time-dependent phase. The tracker pins it
down in one of two ways:

* ``transport``: successive frames are phase-rotated so the overlap with
  the previous frame is real and positive (discrete parallel transport).
  Frame 0 makes the first nonzero component of each vector real positive.
* ``analytic``: every frame is phase-aligned to the model's closed-form
  eigensystem. Only available for models that provide one; this is the
  gauge in which the rotating-field closed-form amplitudes are stated.

Level identity is checked between consecutive frames: level i must
overlap most with level i of the next frame, and by at least 0.5.

Every path carries the eigenvector derivatives Ė_i from second-order
stencils, in either gauge. The accumulated phase, the couplings <E_m|Ė_n>
and their gap-weighted ratios are formed once, in ``adiab.diagnostics``.
Phase-sensitive quantities (accumulated phase, coupling terms) depend on
the gauge; all magnitudes reported downstream are gauge-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from adiab.linalg import hermitian_eigendecompose, stack_matmul
from adiab.models import Model
from adiab.propagate import TimeGrid

__all__ = [
    "DegeneracyError",
    "LevelCrossingError",
    "SpectralPath",
    "track",
]

_DEGENERACY_REL = 1e-12
_OVERLAP_FLOOR = 0.5


class DegeneracyError(RuntimeError):
    """Two instantaneous eigenvalues collided at some grid sample."""


class LevelCrossingError(RuntimeError):
    """Level identity could not be followed between consecutive frames."""


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
    derivatives: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[1]

    @property
    def n_samples(self) -> int:
        return self.times.shape[0]


def _unit(z: np.ndarray) -> np.ndarray:
    return z / np.abs(z)


def _default_phases(frame: np.ndarray) -> np.ndarray:
    """Per-column phases making the first nonzero component real positive."""
    magnitudes = np.abs(frame[0])
    if (magnitudes > 1e-12).all():  # the first row names every phase, as it mostly does
        unit = frame[0] / magnitudes
        return np.conjugate(unit, out=unit)
    dim = frame.shape[1]
    first = np.argmax(np.abs(frame) > 1e-12, axis=0)  # 0 for an all-zero column
    z = frame[first, np.arange(dim)]
    phases = np.ones(dim, dtype=np.complex128)
    nonzero = z != 0.0
    phases[nonzero] = _unit(z[nonzero]).conj()
    return phases


def _first(mask: np.ndarray) -> Optional[int]:
    """Index of the first sample (axis 0) at which ``mask`` holds anywhere."""
    rows = mask if mask.ndim == 1 else mask.any(axis=1)
    k = int(rows.argmax())  # 0 when nothing holds
    return k if rows[k] else None


def _gap_failure(min_gaps: np.ndarray, scales: np.ndarray, ts: np.ndarray):
    """(sample, DegeneracyError) for the first near-degenerate sample, or None."""
    k = _first(min_gaps <= _DEGENERACY_REL * np.maximum(scales, 1e-300))
    if k is None:
        return None
    return k, DegeneracyError(
        f"near-degenerate spectrum at sample {k} (t={ts[k]:.6g}): min gap {min_gaps[k]:.3e}"
    )


def _floor_failure(magnitudes: np.ndarray, what: str, ts: np.ndarray, offset: int = 0):
    """(sample, LevelCrossingError) for the first overlap below the floor, or None.

    ``magnitudes`` holds the overlaps' moduli, (samples, dim), its row k
    belonging to sample k + offset.
    """
    low = magnitudes < _OVERLAP_FLOOR
    k = _first(low)
    if k is None:
        return None
    i = int(np.argmax(low[k]))
    k_at = k + offset
    return k_at, LevelCrossingError(
        f"level {i} {what}: overlap magnitude {magnitudes[k, i]:.3f} fell below "
        f"{_OVERLAP_FLOOR} at sample {k_at} (t={ts[k_at]:.6g})"
    )


def _order_failure(magnitudes: np.ndarray, ts: np.ndarray):
    """(sample, LevelCrossingError) where the level order first breaks, or None.

    ``magnitudes[k]`` holds |<E_i(t_k)|E_j(t_k+1)>|; level i must overlap
    most with level i of the next frame, the first index winning a tie, as
    in ``argmax``. At d = 2 that reads four planes (``adiab.linalg``'s
    forks): row 0 breaks where |p00| < |p01|, row 1 where |p11| <= |p10|.
    """
    dim = magnitudes.shape[1]
    if dim == 2:
        broken = magnitudes[:, 0, 0] < magnitudes[:, 0, 1]
        broken |= magnitudes[:, 1, 1] <= magnitudes[:, 1, 0]
    else:
        broken = magnitudes.argmax(axis=2) != np.arange(dim)
    k = _first(broken)
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
    # the numerators first, then one division of the whole stack, bit for bit
    # the division of each numerator on its own
    d = np.empty_like(vectors)
    np.subtract(vectors[2:], vectors[:-2], out=d[1:-1])
    np.subtract(-3.0 * vectors[0] + 4.0 * vectors[1], vectors[2], out=d[0])
    np.add(3.0 * vectors[-1] - 4.0 * vectors[-2], vectors[-3], out=d[-1])
    d /= 2.0 * h
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
    on a vanishing gap (at most 1e-12 of the sample's largest |E_i|) and
    ``LevelCrossingError`` when consecutive frames cannot be identified
    level-by-level (overlap below 0.5 or eigenvalue order breaking).
    """
    if gauge not in ("transport", "analytic"):
        raise ValueError(f"unknown gauge {gauge!r}; expected 'transport' or 'analytic'")
    if gauge == "analytic" and model.analytic_eigensystem is None:
        raise ValueError("model does not provide a closed-form eigensystem")

    ts = grid.samples
    hs = model.hamiltonian(ts)
    eigenvalues, raw = hermitian_eigendecompose(hs)
    # the scale max_i |E_i| is ‖H‖₂, at most the Frobenius norm, and has no
    # squares to overflow past ‖H‖ ~ 1e154
    min_gaps = (eigenvalues[:, 1:] - eigenvalues[:, :-1]).min(axis=1, initial=np.inf)
    gap = _gap_failure(min_gaps, np.abs(eigenvalues).max(axis=1), ts)

    if gauge == "analytic":
        refs = model.analytic_eigensystem(ts)[1]
        overlaps = np.einsum("kji,kji->ki", refs.conj(), raw)
        magnitudes = np.abs(overlaps)
        _raise_first(gap, _floor_failure(magnitudes, "vs closed form", ts))
        phases = np.conjugate(overlaps / magnitudes)
    else:
        # every overlap's modulus once, for both checks and the transport
        pairs = stack_matmul(raw[:-1].conj().swapaxes(-2, -1), raw[1:])
        magnitudes = np.abs(pairs)
        step_magnitudes = magnitudes.diagonal(0, 1, 2)
        _raise_first(
            gap,
            _order_failure(magnitudes, ts),
            _floor_failure(step_magnitudes, "continuity", ts, offset=1),
        )
        # Discrete parallel transport: each frame takes the phase that makes
        # its overlap with the already-fixed previous frame real positive.
        phases = np.empty_like(eigenvalues, dtype=np.complex128)
        phases[0] = _default_phases(raw[0])
        turns = pairs.diagonal(0, 1, 2) / step_magnitudes
        np.multiply(phases[0], np.conjugate(turns, out=turns).cumprod(axis=0), out=phases[1:])
        phases /= np.abs(phases)

    eigenvectors = raw * phases[:, np.newaxis, :]
    return SpectralPath(
        grid=grid,
        times=ts,
        hamiltonians=hs,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        derivatives=_fill_derivatives(eigenvectors, grid.h),
    )
