"""Concrete time-dependent Hamiltonians and their closed-form companions.

The rotating-field two-level model is exactly solvable; its eigensystem,
eigenvector derivatives and transition amplitudes ship alongside the matrix
form and act as oracles for the numerical pipeline. Natural units are used
throughout (hbar = 1), so every frequency is an energy.

Every function of time takes a scalar or an array of times and stacks one
result per time in front (see ``Model``), so a whole grid is one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.typing import ArrayLike

__all__ = [
    "SchwingerParams",
    "Model",
    "effective_rabi_frequency",
    "schwinger_hamiltonian",
    "schwinger_hamiltonian_derivative",
    "schwinger_analytic_eigensystem",
    "schwinger_analytic_eigensystem_derivative",
    "schwinger_analytic_amplitudes",
    "schwinger_model",
    "custom_model",
    "random_smooth_model",
    "transformed_hamiltonian",
]

_FD_STEP = 1e-6  # central-difference step of custom_model's fallback derivative


@dataclass(frozen=True)
class SchwingerParams:
    """Rotating-field two-level model parameters.

    omega0: field strength (> 0), sets the constant +/- omega0/2 spectrum.
    omega:  rotation rate of the field about the z axis (>= 0).
    theta:  cone angle between field and z axis, in [0, pi].
    """

    omega0: float
    omega: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.omega0) and self.omega0 > 0.0):
            raise ValueError(f"omega0: must be positive and finite, got {self.omega0}")
        if not (math.isfinite(self.omega) and self.omega >= 0.0):
            raise ValueError(f"omega: must be nonnegative and finite, got {self.omega}")
        if not (math.isfinite(self.theta) and 0.0 <= self.theta <= math.pi):
            raise ValueError(f"theta: must lie in [0, pi], got {self.theta}")


def effective_rabi_frequency(p: SchwingerParams) -> float:
    """sqrt(omega0^2 + omega^2 - 2*omega0*omega*cos(theta)).

    Evaluated as sqrt((omega0 - omega)^2 + 4*omega0*omega*sin^2(theta/2)),
    which has no cancellation when omega ~ omega0 and theta ~ 0.
    """
    detuning = p.omega0 - p.omega
    return math.sqrt(detuning * detuning + 4.0 * p.omega0 * p.omega * _half_sin_sq(p.theta))


def _half_sin_sq(theta: float) -> float:
    # sin^2(theta/2) = (1 - cos(theta))/2 without the cancellation near 0.
    s = math.sin(0.5 * theta)
    return s * s


def _phase(x) -> np.ndarray:
    """e^{-ix} elementwise, built from real cosines and sines."""
    ph = np.empty(np.shape(x), dtype=np.complex128)
    ph.real = np.cos(x)
    ph.imag = -np.sin(x)
    return ph


def _two_by_two(a00, a01, a10, a11) -> np.ndarray:
    """Stack of 2x2 matrices [[a00, a01], [a10, a11]], broadcasting the entries."""
    entries = np.broadcast_arrays(a00, a01, a10, a11)
    return np.stack(entries, axis=-1, dtype=np.complex128).reshape(entries[0].shape + (2, 2))


def schwinger_hamiltonian(p: SchwingerParams, t) -> np.ndarray:
    """(omega0/2) * [[cos θ, sin θ e^{-iωt}], [sin θ e^{iωt}, -cos θ]]."""
    half = 0.5 * p.omega0
    off = half * math.sin(p.theta) * _phase(p.omega * t)
    diag = half * math.cos(p.theta)
    return _two_by_two(diag, off, off.conj(), -diag)


def schwinger_hamiltonian_derivative(p: SchwingerParams, t) -> np.ndarray:
    """Elementwise time derivative of the rotating-field Hamiltonian."""
    half = 0.5 * p.omega0
    rate = -1j * p.omega * half * math.sin(p.theta)
    doff = rate * _phase(p.omega * t)
    return _two_by_two(0.0, doff, doff.conj(), 0.0)


def schwinger_analytic_eigensystem(p: SchwingerParams, t) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenvalues (-omega0/2, +omega0/2) and eigenvector columns.

    The eigenvector phases carry e^{∓iωt/2} factors; this is the fixed gauge
    in which all closed-form amplitudes below are stated.
    """
    half_sin = math.sin(0.5 * p.theta)
    half_cos = math.cos(0.5 * p.theta)
    up = _phase(0.5 * p.omega * t)
    dn = up.conj()
    w = np.broadcast_to(np.array([-0.5 * p.omega0, 0.5 * p.omega0]), np.shape(t) + (2,)).copy()
    return w, _two_by_two(up * half_sin, up * half_cos, -dn * half_cos, dn * half_sin)


def schwinger_analytic_eigensystem_derivative(p: SchwingerParams, t) -> np.ndarray:
    """Time derivatives of the closed-form eigenvector columns (same gauge)."""
    half_sin = math.sin(0.5 * p.theta)
    half_cos = math.cos(0.5 * p.theta)
    up = np.exp(-0.5j * p.omega * t)
    dn = np.exp(0.5j * p.omega * t)
    rate = 0.5j * p.omega
    return _two_by_two(
        -rate * up * half_sin, -rate * up * half_cos, -rate * dn * half_cos, rate * dn * half_sin
    )


def schwinger_analytic_amplitudes(p: SchwingerParams, t):
    """Closed-form (c1, c2) for a run started in the lower eigenstate.

    c1 = cos(ω̃t/2) + i sin(ω̃t/2) (omega0 - omega cos θ)/ω̃
    c2 = i (omega/ω̃) sin θ sin(ω̃t/2)

    ``t`` may be a scalar or an array; |c1|^2 + |c2|^2 == 1 identically.
    """
    t = np.asarray(t, dtype=float)
    wt = effective_rabi_frequency(p)
    half = 0.5 * wt * t
    if wt > 1e-300:
        ratio = np.sin(half) / wt
    else:
        ratio = 0.5 * t  # sin(x)/x limit for a vanishing effective frequency
    # omega0 - omega cos(theta), written without cancellation.
    c1 = np.cos(half) + 1j * ((p.omega0 - p.omega) + 2.0 * p.omega * _half_sin_sq(p.theta)) * ratio
    c2 = 1j * p.omega * math.sin(p.theta) * ratio
    if t.ndim == 0:
        return complex(c1), complex(c2)
    return c1, c2


@dataclass(frozen=True)
class Model:
    """A time-dependent Hamiltonian with optional extras.

    Every callable takes a scalar or an array of times ``t`` and returns one
    result per time, shaped ``np.shape(t) + (dim, dim)``. ``hamiltonian``
    gives the Hermitian matrices and ``derivative``, when available, their
    elementwise time derivatives. Models with a closed-form eigensystem
    expose it through ``analytic_eigensystem`` (eigenvalues shaped
    ``np.shape(t) + (dim,)``) and its derivative, which the tracker can use
    as a phase reference.
    """

    dim: int
    hamiltonian: Callable[[ArrayLike], np.ndarray]
    derivative: Optional[Callable[[ArrayLike], np.ndarray]] = None
    analytic_eigensystem: Optional[Callable[[ArrayLike], tuple[np.ndarray, np.ndarray]]] = None
    analytic_eigensystem_derivative: Optional[Callable[[ArrayLike], np.ndarray]] = field(
        default=None, repr=False
    )


def schwinger_model(p: SchwingerParams) -> Model:
    """Rotating-field two-level model with all closed forms attached."""
    return Model(
        dim=2,
        hamiltonian=lambda t: schwinger_hamiltonian(p, t),
        derivative=lambda t: schwinger_hamiltonian_derivative(p, t),
        analytic_eigensystem=lambda t: schwinger_analytic_eigensystem(p, t),
        analytic_eigensystem_derivative=lambda t: schwinger_analytic_eigensystem_derivative(p, t),
    )


def _stacked(callback: Callable[[float], np.ndarray], dim: int) -> Callable[..., np.ndarray]:
    """Lift a one-time callback t -> (dim, dim) to a time array, checking each shape."""

    def stacked(t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        mats = []
        for s in t.ravel().tolist():
            m = np.asarray(callback(s))
            if m.shape != (dim, dim):
                raise ValueError(
                    f"model callback returned shape {m.shape} at t={s!r}; expected ({dim}, {dim})"
                )
            mats.append(m)
        return np.stack(mats).reshape(t.shape + (dim, dim))

    return stacked


def custom_model(
    hamiltonian: Callable[[float], np.ndarray],
    derivative: Optional[Callable[[float], np.ndarray]] = None,
    *,
    dim: int,
) -> Model:
    """Wrap a user-supplied H(t) callback that takes one time.

    The model calls it once per requested time. When no analytic derivative
    is given, a central difference with a fixed step of 1e-6 substitutes for
    it. A callback result that is not (dim, dim) raises ``ValueError``.
    """
    if dim < 2:
        raise ValueError("model dimension must be at least 2")
    h_stacked = _stacked(hamiltonian, dim)
    if derivative is None:

        def hdot_stacked(t) -> np.ndarray:
            return (h_stacked(t + _FD_STEP) - h_stacked(t - _FD_STEP)) / (2.0 * _FD_STEP)

    else:
        hdot_stacked = _stacked(derivative, dim)
    return Model(dim=dim, hamiltonian=h_stacked, derivative=hdot_stacked)


def random_smooth_model(
    dim: int,
    seed: int,
    *,
    base_gap: float = 1.0,
    drive: float = 0.05,
    frequency: float = 1.0,
) -> Model:
    """Seeded smooth Hermitian drive with a well-gapped static part.

    H(t) = D + A cos(frequency t) + B sin(frequency t), where D has diagonal
    0, base_gap, 2 base_gap, ... plus a small Hermitian perturbation, and A,
    B are random Hermitian matrices of magnitude ``drive``. Gaps stay well
    clear of degeneracy for drive << base_gap.
    """
    rng = np.random.default_rng(seed)

    def draw_hermitian(scale: float) -> np.ndarray:
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return scale * 0.5 * (m + m.conj().T)

    static = np.diag(base_gap * np.arange(dim, dtype=float)).astype(np.complex128)
    static += draw_hermitian(0.1 * drive)
    a = draw_hermitian(drive)
    b = draw_hermitian(drive)

    def cos_sin(t) -> tuple[np.ndarray, np.ndarray]:
        ft = (frequency * np.asarray(t, dtype=float))[..., np.newaxis, np.newaxis]
        return np.cos(ft), np.sin(ft)

    def hamiltonian(t) -> np.ndarray:
        c, s = cos_sin(t)
        return static + a * c + b * s

    def derivative(t) -> np.ndarray:
        c, s = cos_sin(t)
        return frequency * (-a * s + b * c)

    return Model(dim=dim, hamiltonian=hamiltonian, derivative=derivative)


def transformed_hamiltonian(u_at_t: np.ndarray, h_at_t: np.ndarray) -> np.ndarray:
    """-U† H U: the companion system driven by the propagator of H.

    ``u_at_t`` and ``h_at_t`` are one (d, d) matrix each or equal-shape
    stacks of them. The result is Hermitian whenever H is, regardless of how
    accurately U is unitary, since (U† H U)† = U† H U.
    """
    u_at_t = np.asarray(u_at_t)
    h_at_t = np.asarray(h_at_t)
    if u_at_t.shape != h_at_t.shape or u_at_t.ndim < 2:
        raise ValueError(
            f"dimension mismatch: propagator {u_at_t.shape} vs operator {h_at_t.shape}"
        )
    return -(np.swapaxes(u_at_t.conj(), -2, -1) @ h_at_t @ u_at_t)
