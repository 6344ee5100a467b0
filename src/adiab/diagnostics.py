"""Per-sample adiabaticity diagnostics.

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
eigenvector derivatives; differencing D itself is left to test oracles,
keeping O(h) noise out of 1e-7 scale residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from adiab.linalg import inner, vector_norm
from adiab.models import Model
from adiab.propagate import Trajectory
from adiab.tracking import SpectralPath, berry_phase, qac_ratios

__all__ = [
    "CriteriaCheck",
    "DiagnosticsSample",
    "DiagnosticsResult",
    "amplitudes",
    "adiabatic_state",
    "difference_vector",
    "difference_vector_derivative",
    "q_term",
    "r_term",
    "decomposition_residual",
    "lambda_residual",
    "equivalence_residual",
    "c_n_reconstruction",
    "schiff_amplitude",
    "criteria_check",
    "run_diagnostics",
]

_ZERO_ENERGY_ATOL = 1e-300


def amplitudes(path: SpectralPath, k: int, psi: np.ndarray) -> np.ndarray:
    """Expansion coefficients c_i = <E_i|psi> in the tracked eigenbasis."""
    return path.eigenvectors[k].conj().T @ np.asarray(psi)


def adiabatic_state(path: SpectralPath, k: int, beta_k: float, n: int) -> np.ndarray:
    """Phase-dressed eigenstate e^{i beta_n}|E_n> at sample k."""
    return np.exp(1j * beta_k) * path.eigenvectors[k, :, n]


def difference_vector(psi: np.ndarray, adi: np.ndarray) -> np.ndarray:
    """D = psi - adiabatic state; its norm lies in [0, 2]."""
    return np.asarray(psi) - np.asarray(adi)


def difference_vector_derivative(
    model: Model, path: SpectralPath, k: int, psi: np.ndarray, beta_k: float, n: int
) -> np.ndarray:
    """Ḋ composed from the equation of motion, no differencing of D.

    Ḋ = -iH psi - e^{i beta}(|Ė_n> + i beta_dot |E_n>) with
    beta_dot = -E_n + i<E_n|Ė_n>.
    """
    if path.derivatives is None:
        raise ValueError("path carries no eigenvector derivatives")
    vn = path.eigenvectors[k, :, n]
    vdot_n = path.derivatives[k, :, n]
    e_n = path.eigenvalues[k, n]
    beta_dot = -e_n + 1j * inner(vn, vdot_n)
    phase = np.exp(1j * beta_k)
    h_t = model.hamiltonian(float(path.times[k]))
    return -1j * (h_t @ np.asarray(psi)) - phase * (vdot_n + 1j * beta_dot * vn)


def q_term(path: SpectralPath, k: int, beta_k: float, m: int, n: int) -> complex:
    """Q_m = i e^{i beta_n} <E_m|Ė_n>/(E_m - E_n); |Q_m| is the coupling ratio."""
    if m == n:
        raise ValueError("Q is defined for off levels only (m != n)")
    if path.derivatives is None:
        raise ValueError("path carries no eigenvector derivatives")
    w = path.eigenvalues[k]
    coupling = inner(path.eigenvectors[k, :, m], path.derivatives[k, :, n])
    return 1j * np.exp(1j * beta_k) * coupling / (w[m] - w[n])


def r_term(
    path: SpectralPath, k: int, d: np.ndarray, ddot: np.ndarray, m: int, n: int
) -> complex:
    """R_m = -E_n <E_m|D>/(E_m - E_n) + i <E_m|Ḋ>/(E_m - E_n)."""
    if m == n:
        raise ValueError("R is defined for off levels only (m != n)")
    w = path.eigenvalues[k]
    vm = path.eigenvectors[k, :, m]
    gap = w[m] - w[n]
    return (-w[n] * inner(vm, d) + 1j * inner(vm, ddot)) / gap


def decomposition_residual(c_m: complex, q_m: complex, r_m: complex) -> float:
    """|c_m - Q_m - R_m|: zero up to numerics, since the split is exact."""
    return abs(c_m - q_m - r_m)


def lambda_residual(path: SpectralPath, k: int, d: np.ndarray, ddot: np.ndarray, n: int) -> float:
    """|<E_n|Ḋ> + i E_n <E_n|D>|: the tracked-level projection identity."""
    vn = path.eigenvectors[k, :, n]
    e_n = path.eigenvalues[k, n]
    return abs(inner(vn, ddot) + 1j * e_n * inner(vn, d))


def equivalence_residual(d: np.ndarray, ddot: np.ndarray, e_n: float) -> float:
    """||i Ḋ - E_n D||: vanishes exactly when every correction term R_m does."""
    return vector_norm(1j * np.asarray(ddot) - e_n * np.asarray(d))


def c_n_reconstruction(
    path: SpectralPath, k: int, beta_k: float, ddot: np.ndarray, n: int
) -> complex:
    """c_n rebuilt as e^{i beta_n} + i<E_n|Ḋ>/E_n; undefined at E_n = 0."""
    e_n = float(path.eigenvalues[k, n])
    if abs(e_n) <= _ZERO_ENERGY_ATOL:
        raise ZeroDivisionError("tracked-level energy is zero; reconstruction undefined")
    vn = path.eigenvectors[k, :, n]
    return complex(np.exp(1j * beta_k) + 1j * inner(vn, ddot) / e_n)


def schiff_amplitude(path: SpectralPath, k: int, m: int, n: int) -> complex:
    """Textbook first-order estimate i<E_m|Ė_n>/(E_m-E_n) (e^{i(E_m-E_n)t} - 1).

    Uses instantaneous frame values and the raw time coordinate; emitted for
    comparison only, its accuracy is regime-dependent.
    """
    if m == n:
        raise ValueError("amplitude estimate is defined for off levels only")
    if path.derivatives is None:
        raise ValueError("path carries no eigenvector derivatives")
    w = path.eigenvalues[k]
    gap = w[m] - w[n]
    coupling = inner(path.eigenvectors[k, :, m], path.derivatives[k, :, n])
    t = float(path.times[k])
    return 1j * coupling / gap * (np.exp(1j * gap * t) - 1.0)


@dataclass(frozen=True)
class CriteriaCheck:
    """Smallness checks behind the validity of the coupling-ratio picture.

    ratios, against a shared margin (default 0.1 for "much less than"):
      a: ||D|| |E_n| / |E_m - E_n|
      b: ||Ḋ|| / |E_m - E_n|
      c: ||i Ḋ - E_n D|| / |E_m - E_n|
    ``projected`` repeats them with the <E_m| projections instead of full
    vector norms. Flags apply the margin to the full-norm ratios; flag a is
    None when E_n = 0 (the test is undefined there).
    """

    ratios: tuple[float, float, float]
    projected: tuple[float, float, float]
    flags: tuple[Optional[bool], bool, bool]
    margin: float


def criteria_check(
    path: SpectralPath,
    k: int,
    d: np.ndarray,
    ddot: np.ndarray,
    m: int,
    n: int,
    margin: float = 0.1,
) -> CriteriaCheck:
    if m == n:
        raise ValueError("criteria are defined for off levels only")
    w = path.eigenvalues[k]
    vm = path.eigenvectors[k, :, m]
    gap = abs(w[m] - w[n])
    e_n = float(w[n])
    d_norm = vector_norm(d)
    ddot_norm = vector_norm(ddot)
    combo = 1j * np.asarray(ddot) - e_n * np.asarray(d)
    ratio_a = d_norm * abs(e_n) / gap
    ratio_b = ddot_norm / gap
    ratio_c = vector_norm(combo) / gap
    proj_a = abs(inner(vm, d)) * abs(e_n) / gap
    proj_b = abs(inner(vm, ddot)) / gap
    proj_c = abs(inner(vm, combo)) / gap
    flag_a = None if abs(e_n) <= _ZERO_ENERGY_ATOL else bool(ratio_a < margin)
    return CriteriaCheck(
        ratios=(ratio_a, ratio_b, ratio_c),
        projected=(proj_a, proj_b, proj_c),
        flags=(flag_a, bool(ratio_b < margin), bool(ratio_c < margin)),
        margin=margin,
    )


@dataclass(frozen=True)
class DiagnosticsSample:
    """All per-sample quantities at one time, levels indexed from 0.

    Off-level arrays (q, r, qac, residual, schiff, criteria) hold NaN on the
    tracked column: the split has no meaning at m = n.
    """

    t: float
    c: np.ndarray
    beta_n: float
    q: np.ndarray
    r: np.ndarray
    qac: np.ndarray
    decomposition_residual: np.ndarray
    d: np.ndarray
    ddot: np.ndarray
    d_norm: float
    ddot_norm: float
    lambda_residual: float
    equivalence_residual: float
    cn_residual: float
    schiff: np.ndarray
    criteria_ratios: np.ndarray
    criteria_projected: np.ndarray
    criteria_flags: tuple[Optional[bool], bool, bool]
    norm_error: float
    probability_defect: float


@dataclass
class DiagnosticsResult:
    """Stacked diagnostics over a full run (K+1 samples, dim levels)."""

    level: int
    margin: float
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
    schiff: np.ndarray
    criteria_ratios: np.ndarray
    criteria_projected: np.ndarray
    criteria_defined: np.ndarray
    norm_error: np.ndarray
    probability_defect: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.times.shape[0]

    @property
    def dim(self) -> int:
        return self.c.shape[1]

    def criteria_flags(self) -> np.ndarray:
        """(K+1, dim, 3) booleans; NaN ratios and undefined checks are False."""
        with np.errstate(invalid="ignore"):
            flags = self.criteria_ratios < self.margin
        flags[:, :, 0] &= self.criteria_defined[:, np.newaxis]
        return flags

    def fidelity(self) -> np.ndarray:
        """|c_n(t)|: overlap magnitude with the phase-dressed eigenstate."""
        return np.abs(self.c[:, self.level])

    def sample(self, k: int) -> DiagnosticsSample:
        n = self.level
        flags = self.criteria_flags()[k]
        off = [m for m in range(self.dim) if m != n]
        worst = (
            None if not self.criteria_defined[k] else bool(np.all(flags[off, 0])),
            bool(np.all(flags[off, 1])),
            bool(np.all(flags[off, 2])),
        )
        return DiagnosticsSample(
            t=float(self.times[k]),
            c=self.c[k],
            beta_n=float(self.beta[k]),
            q=self.q[k],
            r=self.r[k],
            qac=self.qac[k],
            decomposition_residual=self.residual[k],
            d=self.d_vectors[k],
            ddot=self.ddot_vectors[k],
            d_norm=float(self.d_norm[k]),
            ddot_norm=float(self.ddot_norm[k]),
            lambda_residual=float(self.lam[k]),
            equivalence_residual=float(self.equivalence[k]),
            cn_residual=float(self.cn_residual[k]),
            schiff=self.schiff[k],
            criteria_ratios=self.criteria_ratios[k],
            criteria_projected=self.criteria_projected[k],
            criteria_flags=worst,
            norm_error=float(self.norm_error[k]),
            probability_defect=float(self.probability_defect[k]),
        )


def run_diagnostics(
    model: Model,
    trajectory: Trajectory,
    path: SpectralPath,
    n: int,
    margin: float = 0.1,
) -> DiagnosticsResult:
    """Compute the full diagnostic set along a propagated trajectory.

    ``n`` is the zero-based tracked level. The accumulated phase is
    integrated once; every other quantity is a pure function of frame,
    state and that phase, computed for all samples at once. The per-sample
    helpers above state the same formulas for one sample.
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
    hs = np.stack([model.hamiltonian(float(t)) for t in path.times])

    # Ḋ from the equation of motion, as in difference_vector_derivative.
    beta_dot = -e_n + 1j * np.einsum("kj,kj->k", vn.conj(), vdot_n)
    d_vectors = states - phase[:, np.newaxis] * vn
    ddot_vectors = -1j * np.einsum("kij,kj->ki", hs, states) - phase[:, np.newaxis] * (
        vdot_n + 1j * beta_dot[:, np.newaxis] * vn
    )
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
    abs_gap = np.abs(gap)
    q = np.full((n_samples, dim), np.nan, dtype=np.complex128)
    r = np.full((n_samples, dim), np.nan, dtype=np.complex128)
    schiff = np.full((n_samples, dim), np.nan, dtype=np.complex128)
    residual = np.full((n_samples, dim), np.nan)
    ratios = np.full((n_samples, dim, 3), np.nan)
    projected = np.full((n_samples, dim, 3), np.nan)
    q[:, off] = 1j * phase[:, np.newaxis] * coupling[:, off] / gap
    r[:, off] = (-e_n[:, np.newaxis] * proj_d[:, off] + 1j * proj_ddot[:, off]) / gap
    residual[:, off] = np.abs(c[:, off] - q[:, off] - r[:, off])
    schiff[:, off] = (
        1j * coupling[:, off] / gap * (np.exp(1j * gap * path.times[:, np.newaxis]) - 1.0)
    )
    ratios[:, off] = np.stack(
        [d_norm * np.abs(e_n), ddot_norm, equivalence], axis=1
    )[:, np.newaxis, :] / abs_gap[:, :, np.newaxis]
    projected[:, off] = np.stack(
        [
            np.abs(proj_d[:, off]) * np.abs(e_n)[:, np.newaxis],
            np.abs(proj_ddot[:, off]),
            np.abs(1j * proj_ddot[:, off] - e_n[:, np.newaxis] * proj_d[:, off]),
        ],
        axis=2,
    ) / abs_gap[:, :, np.newaxis]
    norm_error = np.abs(np.linalg.norm(states, axis=1) - 1.0)
    probability_defect = np.abs(np.einsum("km->k", np.abs(c) ** 2) - 1.0)
    return DiagnosticsResult(
        level=n,
        margin=margin,
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
        schiff=schiff,
        criteria_ratios=ratios,
        criteria_projected=projected,
        criteria_defined=defined,
        norm_error=norm_error,
        probability_defect=probability_defect,
    )
