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
1e-7 scale residuals. The accumulated phase beta_n is the trapezoid
integral of that same beta_dot from t_start. It is real under a smooth
gauge; an imaginary residue above 1e-6 raises ``GaugeError``.

Each quantity is one whole-stack pass. psi, D, Ḋ, Ė_n and i Ḋ - E_n D are
the five columns of one (K+1, d, 5) stack, time-contiguous at d = 2. One
product V† [psi D Ḋ Ė_n] gives c and every projection <E_m|x> the split
reads, and one norm pass over the stack gives ||psi||, ||D||, ||Ḋ|| and
||i Ḋ - E_n D||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from adiab.linalg import stack_matmul
from adiab.tracking import SpectralPath

__all__ = ["GaugeError", "DiagnosticsResult", "run_diagnostics"]

_ZERO_ENERGY_ATOL = 1e-300
_PHASE_IMAG_ATOL = 1e-6


class GaugeError(ValueError):
    """The accumulated phase came out complex: the gauge is not smooth."""


@dataclass
class DiagnosticsResult:
    """Stacked diagnostics over a full run (K+1 samples, dim levels).

    Levels are indexed from 0. Off-level arrays (q, r, qac, residual) hold
    NaN on the tracked column, where the split has no meaning. ``qac`` =
    |<E_m|Ė_n>|/|E_m - E_n| is the gap-weighted coupling ratio, equal to
    |Q_m|. D and Ḋ themselves are not kept; only their norms ``d_norm`` and
    ``ddot_norm`` are. Besides the split:
    ``lam`` = |<E_n|Ḋ> + i E_n <E_n|D>|;
    ``equivalence`` = ||i Ḋ - E_n D||, zero exactly when every R_m is;
    ``cn_residual`` = |c_n - e^{i beta_n} - i<E_n|Ḋ>/E_n|, NaN at E_n = 0.
    ``criteria_ratios`` is (K+1, 3): (a) ||D|| |E_n|, (b) ||Ḋ||,
    (c) ||i Ḋ - E_n D||, each over the smallest gap min_m |E_m - E_n|. A
    criterion holds at a sample only when it holds on every off level, and
    the smallest gap is the worst level. (a) is NaN where E_n = 0 leaves it
    undefined. The margin that reads the ratios as "much less than" is a
    report threshold.
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
    d_norm: np.ndarray
    ddot_norm: np.ndarray
    lam: np.ndarray
    equivalence: np.ndarray
    cn_residual: np.ndarray
    criteria_ratios: np.ndarray
    norm_error: np.ndarray
    probability_defect: np.ndarray

    @property
    def dim(self) -> int:
        return self.c.shape[1]


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over axis 1, bit for bit ``np.linalg.norm(x, axis=1)``.

    ``x`` is a (K, dim) stack of vectors, or a (K, dim, m) stack of m
    columns, whose (K, m) norms are those of each column on its own. The
    plain form squares the entries, which overflows once one passes about
    1.3e154. A finite vector whose norm comes out non-finite is taken again
    by ``hypot``, which forms no square; every other norm keeps the plain bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.add.reduce((x.conj() * x).real, axis=1))
    if not norms.max() < math.inf:  # NaN compares False too
        vectors = np.moveaxis(x, 1, -1)  # (K, m, dim), one vector per norm
        redo = ~np.isfinite(norms) & np.isfinite(vectors).all(axis=-1)
        norms[redo] = np.hypot.reduce(np.abs(vectors[redo]), axis=-1)
    return norms


def run_diagnostics(
    states: np.ndarray,
    path: SpectralPath,
    n: int,
) -> DiagnosticsResult:
    """Compute the full diagnostic set along a propagated state stack.

    ``states`` is the (K+1, dim) stack psi(t_k) on the grid of ``path``;
    ``n`` is the zero-based tracked level. The accumulated phase is
    integrated once, from the beta_dot that also composes Ḋ; every other
    quantity is a pure function of frame, state and that phase, computed
    for all samples at once. Raises ``GaugeError`` when the phase comes
    out complex. The coupling <E_m|Ė_n> and the gaps E_m - E_n are formed
    once and feed both Q and the coupling ratio ``qac``.
    """
    if not 0 <= n < path.dim:
        raise ValueError(f"tracked level {n} out of range for dim {path.dim}")
    if states.shape[0] != path.n_samples:
        raise ValueError("state stack and spectral path use different grids")

    v = path.eigenvectors
    w = path.eigenvalues
    vn = v[:, :, n]
    vdot_n = path.derivatives[:, :, n]
    e_n = w[:, n]

    # beta_n: trapezoid sums of beta_dot from zero, real under a smooth gauge.
    beta_dot = -e_n + 1j * np.einsum("kj,kj->k", vn.conj(), vdot_n)
    increments = 0.5 * path.grid.h * (beta_dot[1:] + beta_dot[:-1])
    raw = np.empty_like(beta_dot)
    raw[0] = 0.0
    increments.cumsum(out=raw[1:])
    imag_residue = float(np.abs(raw.imag).max())
    if imag_residue > _PHASE_IMAG_ATOL:
        raise GaugeError(f"accumulated phase has imaginary residue {imag_residue:.3e}; gauge broken")
    beta = raw.real.copy()
    phase = np.exp(1j * beta)

    # The five vectors of the split, one column each: psi, D, Ḋ (from the
    # equation of motion, as in the module docstring), Ė_n and i Ḋ - E_n D.
    samples, dim = states.shape
    vectors = np.empty((samples, dim, 5), dtype=np.complex128, order="F" if dim == 2 else "C")
    vectors[:, :, 0] = states
    d_vectors = np.subtract(states, phase[:, np.newaxis] * vn, out=vectors[:, :, 1])
    h_psi = stack_matmul(path.hamiltonians, states[:, :, np.newaxis])[:, :, 0]
    ddot_vectors = np.subtract(
        -1j * h_psi,
        phase[:, np.newaxis] * (vdot_n + 1j * beta_dot[:, np.newaxis] * vn),
        out=vectors[:, :, 2],
    )
    vectors[:, :, 3] = vdot_n
    np.subtract(1j * ddot_vectors, e_n[:, np.newaxis] * d_vectors, out=vectors[:, :, 4])

    # Projections <E_m|x> of the first four onto every level at every sample,
    # one product; norms of all five, one pass.
    proj = np.empty_like(vectors, shape=(samples, dim, 4))
    stack_matmul(v.conj().swapaxes(1, 2), vectors[:, :, :4], out=proj)
    c, proj_d, proj_ddot, coupling = proj.transpose(2, 0, 1)
    norms = _row_norms(vectors)
    d_norm, ddot_norm, equivalence = norms[:, 1], norms[:, 2], norms[:, 4]

    lam = np.abs(proj_ddot[:, n] + 1j * e_n * proj_d[:, n])
    defined = np.abs(e_n) > _ZERO_ENERGY_ATOL
    # A NaN gap on the tracked column carries through every off-level array.
    gap = w - e_n[:, np.newaxis]
    gap[:, n] = np.nan
    abs_gap = np.abs(gap)
    with np.errstate(divide="ignore", invalid="ignore"):
        cn_res = np.where(defined, np.abs(c[:, n] - (phase + 1j * proj_ddot[:, n] / e_n)), np.nan)
        q = 1j * phase[:, np.newaxis] * coupling / gap
        r = (-e_n[:, np.newaxis] * proj_d + 1j * proj_ddot) / gap
    qac = np.abs(coupling) / abs_gap
    residual = np.abs(c - q - r)
    # Division rounds monotonically in the divisor, so x / min|gap| is max_m x / |gap_m| exactly.
    # numpy reduces short C-order rows one by one, so the minimum reads a Fortran-order copy:
    # a no-op for the time-contiguous dim-2 gaps, a real copy for the C-order ones above.
    # fmin skips NaN, as nanmin does, without its Python-level checks.
    ratios = np.empty((len(e_n), 3), order="F")
    ratios[:, 0] = np.where(defined, d_norm * np.abs(e_n), np.nan)
    ratios[:, 1] = ddot_norm
    ratios[:, 2] = equivalence
    ratios /= np.fmin.reduce(np.asfortranarray(abs_gap), axis=1)[:, np.newaxis]
    norm_error = np.abs(norms[:, 0] - 1.0)
    probability_defect = np.abs((np.abs(c) ** 2).sum(axis=1) - 1.0)
    return DiagnosticsResult(
        level=n,
        times=path.times,
        c=c,
        beta=beta,
        beta_imag_residue=imag_residue,
        q=q,
        r=r,
        qac=qac,
        residual=residual,
        d_norm=d_norm,
        ddot_norm=ddot_norm,
        lam=lam,
        equivalence=equivalence,
        cn_residual=cn_res,
        criteria_ratios=ratios,
        norm_error=norm_error,
        probability_defect=probability_defect,
    )
