"""Concrete time-dependent Hamiltonians and their closed-form companions.

The rotating-field two-level model is exactly solvable. Its closed-form
eigensystem ships alongside the matrix form as the tracker's phase
reference in the analytic gauge. Its closed-form transition amplitudes are
not shipped: nothing on a run reads them, and the tests and the step-size
study take them from the test oracles. Eigenvector derivatives are not
shipped either: the tracker takes them from stencils. Natural units are used throughout
(hbar = 1), so every frequency is an energy.

Every function of time takes a scalar or an array of times and stacks one
result per time in front (see ``Model``), so a whole grid is one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.typing import ArrayLike

from adiab.linalg import require_finite_real, stack_matmul

__all__ = [
    "SchwingerParams",
    "Model",
    "schwinger_hamiltonian",
    "schwinger_hamiltonian_derivative",
    "schwinger_analytic_eigensystem",
    "schwinger_model",
    "custom_model",
    "random_smooth_model",
    "transformed_hamiltonian",
]

_FD_STEP = 1e-6  # central-difference step of custom_model's fallback derivative
_RANDOM_DRIVE = 0.05  # magnitude of random_smooth_model's drive matrices A and B


@dataclass(frozen=True)
class SchwingerParams:
    """Rotating-field two-level model parameters.

    omega0: field strength (> 0), sets the constant +/- omega0/2 spectrum.
    omega:  rotation rate of the field about the z axis (>= 0).
    theta:  cone angle between field and z axis, in [0, pi].

    Each is a real number, not a bool, and is stored as a plain ``float``;
    a rejected value raises ``ValueError`` naming its key.
    """

    omega0: float
    omega: float
    theta: float

    def __post_init__(self):
        for key in ("omega0", "omega", "theta"):
            object.__setattr__(self, key, require_finite_real(key, getattr(self, key)))
        if not self.omega0 > 0.0:
            raise ValueError(f"omega0: must be positive and finite, got {self.omega0}")
        if not self.omega >= 0.0:
            raise ValueError(f"omega: must be nonnegative and finite, got {self.omega}")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta: must lie in [0, pi], got {self.theta}")


def _phase(x) -> np.ndarray:
    """e^{-ix} elementwise, built from real cosines and sines."""
    cos = np.cos(x)
    ph = np.empty(cos.shape, dtype=np.complex128)
    ph.real = cos
    ph.imag = -np.sin(x)
    return ph


def _two_by_two(a00, a01, a10, a11) -> np.ndarray:
    """Stack of 2x2 matrices [[a00, a01], [a10, a11]], broadcasting the entries.

    The stack is time-contiguous (Fortran order), the layout rule of ``adiab.linalg``.
    """
    out = np.empty(np.broadcast(a00, a01, a10, a11).shape + (2, 2), dtype=np.complex128, order="F")
    out[..., 0, 0] = a00
    out[..., 0, 1] = a01
    out[..., 1, 0] = a10
    out[..., 1, 1] = a11
    return out


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
    in which the closed-form amplitudes of the test oracles are stated.
    """
    half_sin = math.sin(0.5 * p.theta)
    half_cos = math.cos(0.5 * p.theta)
    up = _phase(0.5 * p.omega * t)
    dn = up.conj()
    w = np.empty(up.shape + (2,))
    w[..., 0] = -0.5 * p.omega0
    w[..., 1] = 0.5 * p.omega0
    return w, _two_by_two(up * half_sin, up * half_cos, -dn * half_cos, dn * half_sin)


@dataclass(frozen=True)
class Model:
    """A time-dependent Hamiltonian and its time derivative.

    Every callable takes a scalar or an array of times ``t`` and returns one
    result per time, shaped ``np.shape(t) + (dim, dim)``. ``hamiltonian``
    gives the Hermitian matrices and ``derivative`` their elementwise time
    derivatives; every model has one, so every check of the report is
    measured (``custom_model`` differences H when no callback is given).
    Models with a closed-form eigensystem expose it through
    ``analytic_eigensystem`` (eigenvalues shaped ``np.shape(t) + (dim,)``),
    which the tracker can use as a phase reference.
    """

    dim: int
    hamiltonian: Callable[[ArrayLike], np.ndarray]
    derivative: Callable[[ArrayLike], np.ndarray]
    analytic_eigensystem: Optional[Callable[[ArrayLike], tuple[np.ndarray, np.ndarray]]] = None


def schwinger_model(p: SchwingerParams) -> Model:
    """Rotating-field two-level model with its closed-form eigensystem attached."""
    return Model(
        dim=2,
        hamiltonian=lambda t: schwinger_hamiltonian(p, t),
        derivative=lambda t: schwinger_hamiltonian_derivative(p, t),
        analytic_eigensystem=lambda t: schwinger_analytic_eigensystem(p, t),
    )


def _stacked(callback: Callable[[float], np.ndarray], dim: int) -> Callable[..., np.ndarray]:
    """Lift a one-time callback t -> (dim, dim) to a time array, checking each shape.

    The stack is allocated once in the layout rule of ``adiab.linalg``:
    time-contiguous (Fortran order) at dim 2, C order above.
    """

    def stacked(t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.empty((t.size, dim, dim), dtype=np.complex128, order="F" if dim == 2 else "C")
        for k, s in enumerate(t.ravel().tolist()):
            m = np.asarray(callback(s))
            if m.shape != (dim, dim):
                raise ValueError(
                    f"model callback returned shape {m.shape} at t={s!r}; expected ({dim}, {dim})"
                )
            out[k] = m
        return out.reshape(t.shape + (dim, dim))

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


def random_smooth_model(dim: int, seed: int) -> Model:
    """Seeded smooth Hermitian drive with a well-gapped static part.

    H(t) = D + A cos t + B sin t, where D has diagonal 0, 1, 2, ..., dim - 1
    plus a Hermitian perturbation of magnitude 0.005, and A, B are random
    Hermitian matrices of magnitude 0.05. Neighbouring levels stay about 1
    apart, well clear of degeneracy. ``dim`` must be at least 2.
    """
    if dim < 2:
        raise ValueError("model dimension must be at least 2")
    rng = np.random.default_rng(seed)

    def draw_hermitian(scale: float) -> np.ndarray:
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return scale * 0.5 * (m + m.conj().T)

    static = np.diag(np.arange(dim, dtype=float)).astype(np.complex128)
    static += draw_hermitian(0.1 * _RANDOM_DRIVE)
    a = draw_hermitian(_RANDOM_DRIVE)
    b = draw_hermitian(_RANDOM_DRIVE)

    def cos_sin(t) -> tuple[np.ndarray, np.ndarray]:
        t = np.asarray(t, dtype=float)[..., np.newaxis, np.newaxis]
        return np.cos(t), np.sin(t)

    def hamiltonian(t) -> np.ndarray:
        c, s = cos_sin(t)
        return static + a * c + b * s

    def derivative(t) -> np.ndarray:
        c, s = cos_sin(t)
        return -a * s + b * c

    return Model(dim=dim, hamiltonian=hamiltonian, derivative=derivative)


def transformed_hamiltonian(u_at_t: np.ndarray, h_at_t: np.ndarray) -> np.ndarray:
    """-U† H U: the companion system driven by the propagator of H.

    ``u_at_t`` and ``h_at_t`` are one (d, d) matrix each or equal-shape
    stacks of them. M = U† H U is Hermitian whenever H is, however accurately
    U is unitary, but only in exact arithmetic: the two products leave an
    anti-Hermitian rounding defect of about eps·‖H‖, 1.4e-12 for the shipped
    pair at omega0 = 1e4, past the 1e-12 Hermitian check. So the result is
    the Hermitian part -(M + M†)/2, exactly Hermitian in floating point.
    """
    u_at_t = np.asarray(u_at_t)
    h_at_t = np.asarray(h_at_t)
    if u_at_t.shape != h_at_t.shape or u_at_t.ndim < 2:
        raise ValueError(
            f"dimension mismatch: propagator {u_at_t.shape} vs operator {h_at_t.shape}"
        )
    m = stack_matmul(stack_matmul(u_at_t.conj().swapaxes(-2, -1), h_at_t), u_at_t)
    m += m.conj().swapaxes(-2, -1)
    m *= -0.5
    return m
