"""Dense complex vector/matrix arithmetic for small Hermitian problems.

Everything operates on plain numpy arrays: state vectors are 1-D complex
arrays, operators are square 2-D complex arrays, eigenvectors are matrix
columns. The eigensolver and the exponential also take a (K, d, d) stack of
operators, one per time sample. Above d = 2 the eigensolver is one LAPACK
``eigh`` call per stack, and the exponential forms no eigenpair: it is a
scaled Taylor polynomial evaluated by stack products, so a run solves one
eigenproblem per time point. At d = 2 both are closed forms over the whole
stack, from the split H = a0·1 + M with M traceless: the eigenpairs a0 ± r
with M² = r²·1, and the SU(2) rotation. Intended for dimensions 2..64.

Every product of two matrix stacks in the package goes through one kernel,
``stack_matmul``: ``np.matmul`` above dimension 2, where the per-matrix cost
is arithmetic. At dimension 2 numpy's ``matmul`` pays a dispatch per matrix,
about 0.4 µs, so the kernel takes a whole-stack form chosen by the longer
operand's stack length: one ``np.einsum("...ij,...jk->...ik")`` call up to
256 matrices, two broadcast multiplies and one add above. A (K, 2, 2) by
(K, 2, 1) product crosses near K = 300, and one by a single (2, 1) vector
near 150. The forms differ only in the rounding of complex products.

Layout rule: a d = 2 stack is allocated time-contiguous (Fortran order,
``strides[0] == itemsize``) where it is created, in ``models._two_by_two``,
in the closed-form eigenpairs and in the closed-form exponential; every
other stack follows the layout of its input (``np.empty_like``). numpy runs
its inner loop over the innermost axis, so a C-order (K, 2, 2) or (K, 2)
stack loops over a length-2 level axis K times, while a time-contiguous one
loops once over K samples. On one core of a Xeon with numpy 2.4, at
K = 40 001 a (K, 2) ``np.linalg.norm(axis=1)`` takes 1 054 µs in C order
against 400 µs time-contiguous, bit for bit the same, and the (K, 2, 2) gap
broadcast ``w[:, :, None] - w[:, None, :]`` 1 020 µs against 122 µs; at
K = 1 001 a d = 2 ``stack_matmul`` takes 75 µs against 20 µs. Above d = 2
the stacks stay C order, as LAPACK and the Taylor exponential give them,
so ``np.matmul`` keeps its BLAS path. Layout changes only rounding: numpy's
complex multiply rounds differently in its contiguous loop.

Forks: a d = 2 or per-call shortcut folds into the general form when what the general
form adds is under 0.5 % of one round of every benchmark workload (about 7 µs of ``pair``,
65 of ``dense``, 230 of ``panels``) and of every shipped scenario's run. Kept, shortcut
against general form (shared 2-core host, numpy 2.4, timeit min, K = 251 unless stated):
- closed-form eigenpairs and exponential: 46 against 283 µs for LAPACK ``eigh`` alone;
- the layout rule above;
- ``stack_matmul``'s two forms: 3.1 against 6.3 µs at K = 4, 22.6 against 27.6 at K = 1 000;
- ``stack_matmul``'s length of two stacks from their first axes: 0.3 against 0.6 µs;
- ``stack_matmul``'s einsum form left in the operands' level order, not forced to Fortran
  order: ``order="F"`` took 9.7 against 7.8 µs for V†·B at K = 251, where a ``pair``
  operation makes 16 of its 42 calls, so forcing it would cost about 30 µs of that round;
  only time-contiguity is relied on, and both forms keep it;
- ``_hermitian_defects`` from three planes: 297 against 937 µs at K = 40 001;
- ``tracking._order_failure`` from four planes: 2.0 against 8.5 µs;
- ``runner._perturbation_residual``'s two off-diagonal entries: 87.6 against 100.0 µs at
  K = 249 interior samples, 93 against 123 µs at K = 999;
- ``tracking._default_phases`` from the first row: 3.5 against 9.3 µs per call. The 5.8 µs
  the general form adds fits under ``pair``'s 0.5 % (6.5 µs of a 1 299 µs round), but a
  ``dense`` round runs ``track`` 16 times, about 93 µs against its 65 µs limit;
- ``lattice_read``'s evenly spaced slice: 1.2 against 10.1 µs, as ``np.take`` copies the lattice;
- ``diagnostics._row_norms``'s ``hypot`` redo, for range not speed: past 1.3e154 it stays finite.
"""

from __future__ import annotations

import math
import numbers
import sys
from typing import Optional

import numpy as np

__all__ = [
    "ConvergenceError",
    "HERMITIAN_ATOL",
    "NORMALIZED_ATOL",
    "require_hermitian",
    "require_normalized",
    "require_finite_real",
    "hermitian_eigendecompose",
    "unitary_exponential",
    "stack_matmul",
]

HERMITIAN_ATOL = 1e-12
NORMALIZED_ATOL = 1e-9
# the longest d = 2 stack that stack_matmul multiplies by one einsum call
_EINSUM_MAX_STACK = 256


class ConvergenceError(RuntimeError):
    """The Hermitian eigensolver failed to converge."""


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
    # whole-stack tests first; the failing matrix is located only on failure
    if not np.isfinite(stack).all():
        finite = np.all(np.isfinite(stack), axis=(1, 2))
        raise ValueError(f"operator{_which(h, finite)} contains non-finite entries")
    defects = _hermitian_defects(stack)
    if not defects.max(initial=0.0) <= HERMITIAN_ATOL:
        ok = defects <= HERMITIAN_ATOL
        defect = defects[np.argmin(ok)]
        raise ValueError(
            f"operator{_which(h, ok)} is not Hermitian "
            f"(defect {defect:.3e} > {HERMITIAN_ATOL:.1e})"
        )
    return h


def _hermitian_defects(stack: np.ndarray) -> np.ndarray:
    """max_ij |h[i,j] - conj(h[j,i])| of each matrix of a finite (K, d, d) stack."""
    if stack.shape[-1] == 2:
        # Bit for bit the general form from three planes: |h_ii - conj h_ii| is
        # exactly 2|Im h_ii|, and the two off-diagonal defects are equal.
        return np.maximum(
            np.abs(stack[:, 0, 1] - stack[:, 1, 0].conj()),
            2 * np.maximum(np.abs(stack[:, 0, 0].imag), np.abs(stack[:, 1, 1].imag)),
        )
    return np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))


def _which(h: np.ndarray, ok: np.ndarray) -> str:
    # Names the first failing matrix of a stack; a single matrix needs no name.
    return f" {int(np.argmin(ok))} of the stack" if h.ndim == 3 else ""


def require_normalized(v) -> np.ndarray:
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError("state must be a 1-D vector")
    if not np.isfinite(v).all():
        raise ValueError("state contains non-finite entries")
    defect = abs(np.linalg.norm(v) - 1.0)
    if defect > NORMALIZED_ATOL:
        raise ValueError(f"state is not normalized (defect {defect:.3e} > {NORMALIZED_ATOL:.1e})")
    return v


def require_finite_real(key: str, value, error: type[ValueError] = ValueError) -> float:
    """``value`` as a plain ``float``; otherwise ``error``, whose message names ``key``.

    A bool or a non-real is refused, and so is a value outside the finite
    floats: NaN, an infinity, or an integer too large for a float. An integer
    is compared with the largest float, which Python does exactly for an int
    of any size, so it is refused without overflowing.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{key}: expected a number, got {value!r}")
    if isinstance(value, numbers.Integral) and abs(int(value)) > sys.float_info.max:
        raise error(f"{key}: must be finite, got an integer too large for a float")
    number = float(value)
    if not math.isfinite(number):
        raise error(f"{key}: must be finite, got {value!r}")
    return number


def hermitian_eigendecompose(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of a Hermitian matrix or stack.

    ``h`` is one (d, d) matrix or a (K, d, d) stack. Returns ``(w, V)`` with
    ``w`` real ascending along the last axis and the columns of ``V`` the
    matching eigenvectors, so ``H @ V[..., i]`` equals ``w[..., i] * V[..., i]``.
    It is the package's one eigensolver, and ``tracking.track`` its one caller
    in a run: ``unitary_exponential`` forms no eigenpair.

    Above d = 2 the stack is solved by one LAPACK call, and a zero matrix
    gives ``(0, I)``. At d = 2 it is the closed form, over the whole stack:
    with H = a0·1 + M, M = [[a_z, b], [b*, -a_z]], r = hypot(a_z, |b|) and
    p = r + |a_z|, the eigenvalues are (a0 - r, a0 + r) and
    V = [[α, β], [-β*, α*]] / hypot(p, |b|), where (α, β) = (b, p) for
    a_z ≥ 0 and (p, b) for a_z < 0. Choosing by the sign of a_z leaves nothing
    to cancel, and dividing by hypot(p, |b|) rather than sqrt(2 r p) keeps
    entries near 1e±150 finite. At r = 0, that is for every H = a·1, the
    zero matrix included, it gives ``(a, a)`` and exactly I.

    Raises ``ValueError`` for non-Hermitian or non-finite input and, only
    above d = 2, ``ConvergenceError`` when LAPACK does not converge.
    """
    h = np.asarray(require_hermitian(h), dtype=np.complex128)
    if h.shape[-1] == 2:
        return _eigh_2x2(h)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Hermitian eigensolver did not converge: {exc}") from exc
    return w, v


def _pauli_split(h: np.ndarray):
    # H = a0·1 + [[a_z, b], [b*, -a_z]]; returns a0, a_z, b, |b| and r = hypot(a_z, |b|)
    d0, d1 = h[..., 0, 0].real, h[..., 1, 1].real
    az = 0.5 * (d0 - d1)
    b = h[..., 0, 1]
    babs = np.abs(b)
    return 0.5 * (d0 + d1), az, b, babs, np.hypot(az, babs)


def _eigh_2x2(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a0, az, b, babs, r = _pauli_split(h)
    w = np.empty(r.shape + (2,), order="F")
    w[..., 0] = a0 - r
    w[..., 1] = a0 + r
    p = r + np.abs(az)
    # dead is 1 exactly where r = 0 (H = a·1), where p, b and the norm all
    # vanish; adding it there gives α = 1, β = 0 and norm 1, so V = I.
    # Elsewhere it adds an exact 0.
    dead = r == 0
    norm = np.hypot(p, babs) + dead
    up = az >= 0
    alpha = (np.where(up, b, p) + dead) / norm
    beta = np.where(up, p, b) / norm
    v = np.empty(h.shape, dtype=np.complex128, order="F")
    v[..., 0, 0] = alpha
    v[..., 0, 1] = beta
    v[..., 1, 0] = -beta.conj()
    v[..., 1, 1] = alpha.conj()
    return w, v


def unitary_exponential(h, s: float) -> np.ndarray:
    """exp(-i * s * H) for one Hermitian H or a (K, d, d) stack of them.

    No eigenpair is formed at any d. At d = 2, with H = a0·1 + M and
    M = [[a_z, b], [b*, -a_z]] traceless (a0, a_z from the real parts of the
    diagonal, b = H[0, 1]), M² = r²·1 for r = hypot(a_z, |b|), so the result
    is the Rabi rotation e^{-i s a0} [cos(s r)·1 - i (sin(s r)/r) M], with
    sin(s r)/r = s at r = 0.

    Above d = 2 it is e^{-i s μ}·[T_m(X)]^(2^j) with μ = tr H / d per matrix
    and X = -i s (H - μ·1) / 2^j, T_m the degree-m Taylor polynomial. With
    θ = |s|·max_k ‖H_k - μ_k·1‖₁ over the stack, j = max(0, ⌈log₂ θ⌉) and m
    is the smallest degree with θ'^(m+1)/(m+1)! / (1 - θ'/(m+2)) ≤ 2⁻⁵³ for
    θ' = θ/2^j, a bound on the truncated tail. T_m is evaluated in powers of
    X² (Paterson–Stockmeyer) and squared j times, all by ``stack_matmul``.
    One (j, m) serves the whole stack, so each matrix is accurate to a few
    eps·max(1, θ), θ set by the stack's largest member.

    The input is validated once by ``require_hermitian``; a non-finite ``s``,
    or one whose θ overflows, raises ``ValueError``.
    """
    if not math.isfinite(s):
        raise ValueError(f"time s of the exponential must be finite, got {s}")
    h = np.asarray(require_hermitian(h), dtype=np.complex128)
    if h.shape[-1] != 2:
        return _taylor_exponential(h, s)
    a0, az, b, _, r = _pauli_split(h)
    angle = s * r
    sinc = np.empty_like(r)
    sinc.fill(s)
    np.divide(np.sin(angle), r, out=sinc, where=r > 0)
    phase = np.exp(-1j * s * a0)
    cos = phase * np.cos(angle)
    isin = 1j * phase * sinc  # u = cos·1 - isin·M, both carrying the phase
    u = np.empty(h.shape, dtype=np.complex128, order="F")
    isin_az = isin * az
    np.subtract(cos, isin_az, out=u[..., 0, 0])
    np.add(cos, isin_az, out=u[..., 1, 1])
    minus_isin = -isin
    np.multiply(minus_isin, b, out=u[..., 0, 1])
    np.multiply(minus_isin, b.conj(), out=u[..., 1, 0])
    return u


def _taylor_degree(theta: float) -> int:
    # smallest m >= 1 whose tail bound theta^(m+1)/(m+1)! / (1 - theta/(m+2))
    # is at most the unit roundoff 2^-53; theta <= 1, so m <= 18
    m, term = 1, theta * theta / 2
    while term > 2.0**-53 * (1.0 - theta / (m + 2)):
        m += 1
        term *= theta / (m + 1)
    return m


def _diagonal(a: np.ndarray) -> np.ndarray:
    # a writeable view of the diagonal of each matrix in a
    return np.einsum("...ii->...i", a)


def _taylor_exponential(h: np.ndarray, s: float) -> np.ndarray:
    x = h.copy()
    diagonal = _diagonal(x)
    mu = diagonal.real.sum(axis=-1) / h.shape[-1]
    diagonal -= mu[..., np.newaxis]
    theta = abs(s) * float(np.abs(x).sum(axis=-2).max(initial=0.0))
    if not math.isfinite(theta):
        raise ValueError(f"time s = {s} overflows |s|·‖H‖₁ in the exponential")
    squarings = max(0, math.ceil(math.log2(theta))) if theta > 1 else 0
    m = _taylor_degree(math.ldexp(theta, -squarings))
    x *= -1j * math.ldexp(s, -squarings)
    # T_m(X) = u_0 for u_i = (2i+1)·1 + X + X² u_{i+1} / ((2i+2)(2i+3)), the
    # tail of T_m from X^(2i) times (2i+1)!, whose last u_q, q = (m-1)//2, is
    # (2q+1)·1 + X + X²/(2q+2) when m = 2q+2 and (2q+1)·1 + X when m = 2q+1
    q = (m - 1) // 2
    u, buf = x.copy(), np.empty_like(x)
    u_diagonal, buf_diagonal = _diagonal(u), _diagonal(buf)  # views, swapped along with u and buf
    u_diagonal += 2 * q + 1
    if m > 1:
        x2 = stack_matmul(x, x)
        if m % 2 == 0:
            u += np.multiply(x2, 1.0 / m, out=buf)
        for i in range(q - 1, -1, -1):
            stack_matmul(x2, u, out=buf)
            u, buf, u_diagonal, buf_diagonal = buf, u, buf_diagonal, u_diagonal
            u *= 1.0 / ((2 * i + 2) * (2 * i + 3))
            u += x
            u_diagonal += 2 * i + 1
    for _ in range(squarings):
        stack_matmul(u, u, out=buf)
        u, buf = buf, u
    u *= np.exp(-1j * s * mu)[..., np.newaxis, np.newaxis]
    return u


def stack_matmul(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``a @ b`` for matrices or stacks of them, broadcast as ``np.matmul`` does.

    Both operands have at least two dimensions. When the contracted dimension
    is 2 the product is one ``np.einsum`` call while the longer operand's
    stack holds at most 256 matrices, and ``a[..., :, 0:1] * b[..., 0:1, :] +
    a[..., :, 1:2] * b[..., 1:2, :]`` over the whole stack above that (see the
    module docstring's forks); otherwise it is ``np.matmul``. Writes into ``out``
    when given and returns it; on the dim-2 path ``out`` must not share memory
    with ``a`` or ``b``. A product of time-contiguous stacks is
    time-contiguous in both forms, and one of C-order stacks C order. The
    level axes follow the form: the broadcast form is Fortran order, where
    numpy left to itself would swap them, but the einsum form orders them
    as the operands' strides do, so V†·B of two Fortran-order stacks comes
    out time-contiguous and not Fortran order (see the module docstring's
    forks). A stack times one (2, 2) matrix, on either side, is allocated
    like the stack, where numpy would make it neither C order nor
    time-contiguous.
    """
    if a.shape[-1] != 2 or b.shape[-2] != 2:
        return np.matmul(a, b, out=out)
    if a.ndim == b.ndim == 3:  # two stacks, as nearly every product is
        longer = max(len(a), len(b))
    else:
        longer = max(math.prod(a.shape[:-2]), math.prod(b.shape[:-2]))
        if out is None and min(a.ndim, b.ndim) == 2 and a.ndim != b.ndim:
            stack = a if a.ndim > 2 else b
            out = np.empty_like(
                stack, dtype=np.result_type(a, b), shape=stack.shape[:-2] + (a.shape[-2], b.shape[-1])
            )
    if longer <= _EINSUM_MAX_STACK:
        return np.einsum("...ij,...jk->...ik", a, b, out=out)
    # Neither factor of a broadcast product has strides on both level axes, so
    # numpy would order those axes as in C; ``order`` keeps the stack's layout.
    stack = a if a.ndim >= b.ndim else b
    order = "F" if stack.strides[0] < stack.strides[-1] else "C"
    out = np.multiply(a[..., :, 0:1], b[..., 0:1, :], out=out, order=order)
    out += np.multiply(a[..., :, 1:2], b[..., 1:2, :], order=order)
    return out
