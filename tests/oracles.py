"""Closed-form oracles used by the tests, independent of the code under test.

Everything here is spelled out from the two-level rotating-field solution so
the library's own helpers are never used to generate their own expected
values (only the eigenvector columns, whose correctness is established by
residual checks against H itself). No library path builder is used either:
``closed_form_path`` assembles its spectral path from those columns and
hand-written derivatives, with no eigensolver and no stencil.

The closed-form amplitudes, ``amplitudes`` and ``rabi_frequency``, have
their one copy here: the library does not ship them, and the step-size
study ``scripts/convergence_study.py`` imports them from this module.

The two report checks are also kept here in the ``einsum`` forms the runner
used before its products went through ``linalg.stack_matmul``, as references
for the kernel forms, and so is the eigendecomposition form of exp(-i s H),
the reference for the exponential: the closed-form two-level rotation, and
the Taylor polynomial by stack products above d = 2.

``frame_changed`` and ``shifted`` are two transforms of a ``Model`` that
leave every gauge-free magnitude of the split unchanged: a constant frame
change H → W H W† and a shift H → H + a·1. They need no closed form, so
they test the split above d = 2.

``one_string_csv`` is the CSV writer as it was before emission went out in
row blocks: every float formatted by ``repr``, the whole file joined into
one string. It is the byte reference for the block writer, and so also for
the block float formatter that writer uses in place of ``repr``.

``rotate_gauge`` turns the gauge of a tracked path and, unlike the rest,
rebuilds its derivatives with the tracker's own stencils: the gauge tests
mean to run those stencils on a rotated path.
"""

import math
from dataclasses import replace

import numpy as np

from adiab.diagnostics import run_diagnostics
from adiab.models import Model, SchwingerParams, schwinger_analytic_eigensystem, schwinger_hamiltonian
from adiab.propagate import TimeGrid
from adiab.tracking import SpectralPath, _fill_derivatives


def max_abs(a) -> float:
    """Largest elementwise magnitude."""
    return float(np.max(np.abs(np.asarray(a))))


def unitarity_drift(propagators) -> float:
    """Largest |U_k† U_k - I| entry, contracted by ``einsum``."""
    grams = np.einsum("kji,kjl->kil", propagators.conj(), propagators)
    return max_abs(grams - np.eye(propagators.shape[1]))


def perturbation_residual(model, path):
    """Interior residual of <E_m|Hdot|E_i>/(E_m - E_i) + <E_m|Ė_i>, by ``einsum``."""
    v = path.eigenvectors[1:-1]
    w = path.eigenvalues[1:-1]
    mats = np.einsum("kjm,kjl,kli->kmi", v.conj(), model.derivative(path.times[1:-1]), v)
    couplings = np.einsum("kjm,kji->kmi", v.conj(), path.derivatives[1:-1])
    gaps = w[:, :, np.newaxis] - w[:, np.newaxis, :]
    off = ~np.eye(path.dim, dtype=bool)
    return max_abs(mats[:, off] / gaps[:, off] + couplings[:, off])


def eigh_exponential(h, s: float) -> np.ndarray:
    """exp(-i s H) as V e^{-i s w} V† from LAPACK ``eigh``, for a matrix or a stack."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * s * w)[..., np.newaxis, :]) @ np.swapaxes(v.conj(), -2, -1)


def rabi_frequency(p: SchwingerParams) -> float:
    """sqrt(omega0^2 + omega^2 - 2*omega0*omega*cos(theta)), the effective Rabi frequency.

    Evaluated as sqrt((omega0 - omega)^2 + 4*omega0*omega*sin^2(theta/2)),
    which has no cancellation when omega ~ omega0 and theta ~ 0.
    """
    detuning = p.omega0 - p.omega
    return math.sqrt(detuning * detuning + 4.0 * p.omega0 * p.omega * _half_sin_sq(p.theta))


def _half_sin_sq(theta: float) -> float:
    # sin^2(theta/2) = (1 - cos(theta))/2 without the cancellation near 0.
    s = math.sin(0.5 * theta)
    return s * s


def amplitudes(p: SchwingerParams, t):
    """Closed-form (c1, c2) of a run started in the lower level (Schwinger 1937).

    c1 = cos(ω̃t/2) + i sin(ω̃t/2) (omega0 - omega cos θ)/ω̃
    c2 = i (omega/ω̃) sin θ sin(ω̃t/2)

    ``t`` may be a scalar or an array, and each amplitude is shaped like it;
    |c1|^2 + |c2|^2 == 1 identically. omega0 - omega cos θ is written as
    (omega0 - omega) + 2 omega sin^2(θ/2), without cancellation, and
    sin(ω̃t/2)/ω̃ takes its limit t/2 as ω̃ vanishes.
    """
    t = np.asarray(t, dtype=float)
    wt = rabi_frequency(p)
    half = 0.5 * wt * t
    if wt > 1e-300:
        ratio = np.sin(half) / wt
    else:
        ratio = 0.5 * t
    c1 = np.cos(half) + 1j * ((p.omega0 - p.omega) + 2.0 * p.omega * _half_sin_sq(p.theta)) * ratio
    c2 = 1j * p.omega * math.sin(p.theta) * ratio
    return c1, c2


def beta1(p: SchwingerParams, t):
    """Accumulated phase of the lower level in the fixed-phase gauge."""
    return 0.5 * p.omega0 * t - 0.5 * p.omega * t * np.cos(p.theta)


def q2(p: SchwingerParams, t):
    """Coupling term of the upper level: e^{i beta1} (omega/2 omega0) sin theta."""
    return np.exp(1j * beta1(p, t)) * (p.omega / (2.0 * p.omega0)) * np.sin(p.theta)


def r2(p: SchwingerParams, t):
    """Correction term: omega sin theta [i sin(wt t/2)/wt - e^{i beta1}/(2 omega0)]."""
    wt = rabi_frequency(p)
    return p.omega * np.sin(p.theta) * (
        1j * np.sin(wt * t / 2) / wt - np.exp(1j * beta1(p, t)) / (2.0 * p.omega0)
    )


def hamiltonian(p: SchwingerParams, t: float) -> np.ndarray:
    """The rotating-field H at one time, entry by entry with real sines."""
    half = 0.5 * p.omega0
    off = half * math.sin(p.theta) * complex(math.cos(p.omega * t), -math.sin(p.omega * t))
    diag = half * math.cos(p.theta)
    return np.array([[diag, off], [off.conjugate(), -diag]], dtype=np.complex128)


def eigvec_derivatives(p: SchwingerParams, t) -> np.ndarray:
    """d/dt of both eigenvector columns in the fixed-phase gauge, by hand.

    The columns are (e^{-iωt/2} sin(θ/2), -e^{iωt/2} cos(θ/2)) for the lower
    level and (e^{-iωt/2} cos(θ/2), e^{iωt/2} sin(θ/2)) for the upper one.
    """
    t = np.asarray(t, dtype=float)
    s = np.sin(p.theta / 2)
    c = np.cos(p.theta / 2)
    up = -0.5j * p.omega * np.exp(-0.5j * p.omega * t)  # d/dt e^{-iωt/2}
    dn = 0.5j * p.omega * np.exp(0.5j * p.omega * t)  # d/dt e^{iωt/2}
    rows = [np.stack([up * s, up * c], axis=-1), np.stack([-dn * c, dn * s], axis=-1)]
    return np.stack(rows, axis=-2)


def closed_form_path(p: SchwingerParams, grid: TimeGrid) -> SpectralPath:
    """The spectral path of the rotating field from closed forms alone."""
    ts = grid.samples
    w, v = schwinger_analytic_eigensystem(p, ts)
    return SpectralPath(
        grid=grid,
        times=ts,
        hamiltonians=schwinger_hamiltonian(p, ts),
        eigenvalues=w,
        eigenvectors=v,
        derivatives=eigvec_derivatives(p, ts),
    )


def analytic_diagnostics(p: SchwingerParams, t_end: float, steps: int):
    """Full diagnostics fed purely with closed forms: no integrator, no solver."""
    path = closed_form_path(p, TimeGrid(0.0, t_end, steps))
    c1, c2 = amplitudes(p, path.times)
    states = (
        path.eigenvectors[:, :, 0] * c1[:, np.newaxis]
        + path.eigenvectors[:, :, 1] * c2[:, np.newaxis]
    )
    return run_diagnostics(states, path, 0)


def rotate_gauge(path: SpectralPath, phases: np.ndarray) -> SpectralPath:
    """Apply per-level phase rotations e^{i phases[k, i]} and re-derive.

    ``phases`` has shape (K+1, dim). Derivatives are rebuilt with the
    library's own stencils (``tracking._fill_derivatives``), so that gauge
    tests run them on a rotated path and downstream gauge-covariant
    quantities see it consistently rotated.
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


def frame_changed(model: Model, w: np.ndarray) -> Model:
    """H → W H W† for a constant unitary W: the levels stay, the eigenvectors turn by W."""
    wh = w.conj().T
    return Model(
        dim=model.dim,
        hamiltonian=lambda t: w @ model.hamiltonian(t) @ wh,
        derivative=lambda t: w @ model.derivative(t) @ wh,
    )


def shifted(model: Model, a: float) -> Model:
    """H → H + a·1: every level moves by a, the eigenvectors and Ḣ stay."""
    shift = a * np.eye(model.dim)
    return Model(dim=model.dim, hamiltonian=lambda t: model.hamiltonian(t) + shift, derivative=model.derivative)


def one_string_csv(result) -> bytes:
    """A run's CSV bytes, one repr per float and the whole file as one string."""
    diag = result.pipeline.diagnostics
    n = diag.level
    table = {"t": diag.times}
    for i, c in enumerate(diag.c.T, 1):
        table |= {f"re_c_{i}": c.real, f"im_c_{i}": c.imag}
    for m in range(diag.dim):
        if m != n:
            k = m + 1
            table |= {f"abs_R_{k}": np.abs(diag.r[:, m]), f"qac_{k}": diag.qac[:, m]}
            table |= {f"residual_{k}": diag.residual[:, m]}
    table |= {f"beta_{n + 1}": diag.beta, "D_norm": diag.d_norm, "Ddot_norm": diag.ddot_norm}
    table |= {"lambda_residual": diag.lam, "norm_error": diag.norm_error}
    lines = [",".join(table)]
    lines += [",".join(map(repr, row)) for row in np.column_stack(list(table.values())).tolist()]
    return ("\n".join(lines) + "\n").encode("utf-8")
