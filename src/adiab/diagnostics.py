"""Adiabaticity diagnostics over a whole time grid.

For a tracked level n, every off-level amplitude c_m = <E_m|psi> splits as

    c_m = Q_m + R_m
    Q_m = i e^{i beta_n} <E_m|Ė_n> / (E_m - E_n)
    R_m = -E_n <E_m|D>/(E_m - E_n) + i <E_m|Ḋ>/(E_m - E_n)

where D = psi - e^{i beta_n}|E_n> is the gap between the exact state and
the phase-dressed eigenstate. The split is an identity, so its residual
|c_m - Q_m - R_m| measures only numerical error. |Q_m| equals the usual
gap-weighted coupling ratio, so the split shows directly when a large
coupling ratio coexists with small transition amplitudes (Q and R cancel)
and when it does not.

Ḋ is composed analytically from the equation of motion (-iH psi) and the
eigenvector derivatives,

    Ḋ = -iH psi - e^{i beta_n}(|Ė_n> + i beta_dot |E_n>),
    beta_dot = -E_n + i<E_n|Ė_n>;

differencing D itself is left to test oracles, keeping O(h) noise out of
1e-7 scale residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from adiab.propagate import Trajectory
from adiab.tracking import SpectralPath, berry_phase, qac_ratios

__all__ = ["DiagnosticsResult", "run_diagnostics"]

_ZERO_ENERGY_ATOL = 1e-300


@dataclass
class DiagnosticsResult:
    """Stacked diagnostics over a full run (K+1 samples, dim levels).

    Levels are indexed from 0. Off-level arrays (q, r, qac, residual,
    criteria_ratios) hold NaN on the tracked column, where the split has
    no meaning. Besides the split: ``lam`` = |<E_n|Ḋ> + i E_n <E_n|D>|;
    ``equivalence`` = ||i Ḋ - E_n D||, zero exactly when every R_m is;
    ``cn_residual`` = |c_n - e^{i beta_n} - i<E_n|Ḋ>/E_n|, NaN at E_n = 0.
    ``criteria_ratios`` holds (a) ||D|| |E_n|, (b) ||Ḋ||, (c) ||i Ḋ - E_n D||,
    each over |E_m - E_n|; ``criteria_defined`` is False where E_n = 0 leaves
    (a) undefined. The margin that reads the ratios as "much less than" is a
    report threshold, passed to ``criteria_flags``.
    """

    level: int
    times: np.ndarray
    c: np.ndarray
    beta: np.ndarray
    beta_imag_residue: float
    q: np.ndarray
    r: np.ndarray
    qac: np.ndarray
    residual: np.ndarray
    d_vectors: np.ndarray
    ddot_vectors: np.ndarray
    d_norm: np.ndarray
    ddot_norm: np.ndarray
    lam: np.ndarray
    equivalence: np.ndarray
    cn_residual: np.ndarray
    criteria_ratios: np.ndarray
    criteria_defined: np.ndarray
    norm_error: np.ndarray
    probability_defect: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.times.shape[0]

    @property
    def dim(self) -> int:
        return self.c.shape[1]

    def criteria_flags(self, margin: float) -> np.ndarray:
        """(K+1, dim, 3) booleans: ratio < ``margin``. NaN ratios and undefined checks are False."""
        with np.errstate(invalid="ignore"):
            flags = self.criteria_ratios < margin
        flags[:, :, 0] &= self.criteria_defined[:, np.newaxis]
        return flags

    def fidelity(self) -> np.ndarray:
        """|c_n(t)|: overlap magnitude with the phase-dressed eigenstate."""
        return np.abs(self.c[:, self.level])


def run_diagnostics(
    trajectory: Trajectory,
    path: SpectralPath,
    n: int,
) -> DiagnosticsResult:
    """Compute the full diagnostic set along a propagated trajectory.

    ``n`` is the zero-based tracked level. The accumulated phase is
    integrated once; every other quantity is a pure function of frame,
    state and that phase, computed for all samples at once.
    """
    if trajectory.states is None:
        raise ValueError("trajectory carries no states")
    if not 0 <= n < path.dim:
        raise ValueError(f"tracked level {n} out of range for dim {path.dim}")
    states = trajectory.states
    n_samples = path.n_samples
    dim = path.dim
    if states.shape[0] != n_samples:
        raise ValueError("trajectory and spectral path use different grids")

    acc = berry_phase(path, n)
    beta = acc.values

    v = path.eigenvectors
    w = path.eigenvalues
    vn = v[:, :, n]
    vdot_n = path.derivatives[:, :, n]
    e_n = w[:, n]
    phase = np.exp(1j * beta)

    # Ḋ from the equation of motion, as in the module docstring.
    beta_dot = -e_n + 1j * np.einsum("kj,kj->k", vn.conj(), vdot_n)
    d_vectors = states - phase[:, np.newaxis] * vn
    h_psi = np.einsum("kij,kj->ki", path.hamiltonians, states)
    ddot_vectors = -1j * h_psi - phase[:, np.newaxis] * (vdot_n + 1j * beta_dot[:, np.newaxis] * vn)
    combo = 1j * ddot_vectors - e_n[:, np.newaxis] * d_vectors

    # Projections <E_m|x> onto every level at every sample.
    c = np.einsum("kjm,kj->km", v.conj(), states)
    proj_d = np.einsum("kjm,kj->km", v.conj(), d_vectors)
    proj_ddot = np.einsum("kjm,kj->km", v.conj(), ddot_vectors)
    coupling = np.einsum("kjm,kj->km", v.conj(), vdot_n)

    d_norm = np.linalg.norm(d_vectors, axis=1)
    ddot_norm = np.linalg.norm(ddot_vectors, axis=1)
    equivalence = np.linalg.norm(combo, axis=1)
    lam = np.abs(proj_ddot[:, n] + 1j * e_n * proj_d[:, n])
    defined = np.abs(e_n) > _ZERO_ENERGY_ATOL
    with np.errstate(divide="ignore", invalid="ignore"):
        cn_res = np.where(defined, np.abs(c[:, n] - (phase + 1j * proj_ddot[:, n] / e_n)), np.nan)

    off = np.arange(dim) != n
    gap = w[:, off] - e_n[:, np.newaxis]
    q = np.full((n_samples, dim), np.nan, dtype=np.complex128)
    r = np.full((n_samples, dim), np.nan, dtype=np.complex128)
    residual = np.full((n_samples, dim), np.nan)
    ratios = np.full((n_samples, dim, 3), np.nan)
    q[:, off] = 1j * phase[:, np.newaxis] * coupling[:, off] / gap
    r[:, off] = (-e_n[:, np.newaxis] * proj_d[:, off] + 1j * proj_ddot[:, off]) / gap
    residual[:, off] = np.abs(c[:, off] - q[:, off] - r[:, off])
    ratios[:, off] = np.stack(
        [d_norm * np.abs(e_n), ddot_norm, equivalence], axis=1
    )[:, np.newaxis, :] / np.abs(gap)[:, :, np.newaxis]
    norm_error = np.abs(np.linalg.norm(states, axis=1) - 1.0)
    probability_defect = np.abs(np.einsum("km->k", np.abs(c) ** 2) - 1.0)
    return DiagnosticsResult(
        level=n,
        times=path.times,
        c=c,
        beta=beta,
        beta_imag_residue=acc.imag_residue,
        q=q,
        r=r,
        qac=qac_ratios(path, n),
        residual=residual,
        d_vectors=d_vectors,
        ddot_vectors=ddot_vectors,
        d_norm=d_norm,
        ddot_norm=ddot_norm,
        lam=lam,
        equivalence=equivalence,
        cn_residual=cn_res,
        criteria_ratios=ratios,
        criteria_defined=defined,
        norm_error=norm_error,
        probability_defect=probability_defect,
    )
