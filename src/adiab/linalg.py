"""Dense complex vector/matrix arithmetic for small Hermitian problems.

Everything operates on plain numpy arrays: state vectors are 1-D complex
arrays, operators are square 2-D complex arrays, eigenvectors are matrix
columns. The eigensolver and the exponential also take a (K, d, d) stack of
operators, one per time sample, and solve it in one LAPACK call. Intended
for dimensions 2..64; no sparsity, no large-N tricks.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ConvergenceError",
    "HERMITIAN_ATOL",
    "UNITARY_ATOL",
    "NORMALIZED_ATOL",
    "max_abs",
    "require_hermitian",
    "require_unitary",
    "require_normalized",
    "hermitian_eigendecompose",
    "unitary_exponential",
]

HERMITIAN_ATOL = 1e-12
UNITARY_ATOL = 1e-10
NORMALIZED_ATOL = 1e-9


class ConvergenceError(RuntimeError):
    """The Hermitian eigensolver failed to converge."""


def max_abs(a) -> float:
    """Largest elementwise magnitude."""
    return float(np.max(np.abs(np.asarray(a))))


def require_hermitian(h) -> np.ndarray:
    """Validate that ``h`` is a finite square Hermitian matrix, or a stack.

    ``h`` is one (d, d) matrix or a (K, d, d) stack, each checked on its own:
    elementwise |h[i,j] - conj(h[j,i])| must stay within ``HERMITIAN_ATOL``,
    which also bounds imaginary parts on the diagonal. An error about a stack
    names the first failing matrix. Returns ``h`` as an ndarray.
    """
    h = np.asarray(h)
    if h.ndim not in (2, 3) or h.shape[-1] != h.shape[-2]:
        raise ValueError("operator must be a square matrix or a stack of them")
    stack = h.reshape((-1,) + h.shape[-2:])
    finite = np.all(np.isfinite(stack), axis=(1, 2))
    if not np.all(finite):
        raise ValueError(f"operator{_which(h, finite)} contains non-finite entries")
    defects = np.max(np.abs(stack - np.swapaxes(stack.conj(), 1, 2)), axis=(1, 2), initial=0.0)
    ok = defects <= HERMITIAN_ATOL
    if not np.all(ok):
        defect = defects[np.argmin(ok)]
        raise ValueError(
            f"operator{_which(h, ok)} is not Hermitian "
            f"(defect {defect:.3e} > {HERMITIAN_ATOL:.1e})"
        )
    return h


def _which(h: np.ndarray, ok: np.ndarray) -> str:
    # Names the first failing matrix of a stack; a single matrix needs no name.
    return f" {int(np.argmin(ok))} of the stack" if h.ndim == 3 else ""


def require_unitary(u) -> np.ndarray:
    """Validate that U†U stays within ``UNITARY_ATOL`` of the identity (max-norm)."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("operator must be a square matrix")
    if not np.all(np.isfinite(u)):
        raise ValueError("operator contains non-finite entries")
    defect = max_abs(u.conj().T @ u - np.eye(u.shape[0]))
    if defect > UNITARY_ATOL:
        raise ValueError(f"operator is not unitary (defect {defect:.3e} > {UNITARY_ATOL:.1e})")
    return u


def require_normalized(v) -> np.ndarray:
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError("state must be a 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("state contains non-finite entries")
    defect = abs(np.linalg.norm(v) - 1.0)
    if defect > NORMALIZED_ATOL:
        raise ValueError(f"state is not normalized (defect {defect:.3e} > {NORMALIZED_ATOL:.1e})")
    return v


def hermitian_eigendecompose(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of a Hermitian matrix or stack.

    ``h`` is one (d, d) matrix or a (K, d, d) stack, solved by one LAPACK
    call. Returns ``(w, V)`` with ``w`` real ascending along the last axis
    and the columns of ``V`` the matching eigenvectors, so ``H @ V[..., i]``
    equals ``w[..., i] * V[..., i]``. A zero matrix gives ``(0, I)``.

    Raises ``ValueError`` for non-Hermitian or non-finite input and
    ``ConvergenceError`` when the solver does not converge.
    """
    h = np.asarray(require_hermitian(h), dtype=np.complex128)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Hermitian eigensolver did not converge: {exc}") from exc
    zero = ~np.any(h, axis=(-2, -1))
    if np.any(zero):
        w[zero] = 0.0
        v[zero] = np.eye(h.shape[-1])
    return w, v


def unitary_exponential(h, s: float) -> np.ndarray:
    """exp(-i * s * H) for one Hermitian H or a (K, d, d) stack of them."""
    w, v = hermitian_eigendecompose(h)
    return (v * np.exp(-1j * s * w)[..., np.newaxis, :]) @ np.swapaxes(v.conj(), -2, -1)
