import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eigh_exponential, max_abs
from adiab.linalg import (
    _EINSUM_MAX_STACK,
    HERMITIAN_ATOL,
    ConvergenceError,
    _hermitian_defects,
    _pauli_split,
    hermitian_eigendecompose,
    require_hermitian,
    require_normalized,
    stack_matmul,
    unitary_exponential,
)


def random_hermitian(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


@st.composite
def complex_vector(draw, dim=3):
    parts = draw(
        st.lists(
            st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
            min_size=2 * dim,
            max_size=2 * dim,
        )
    )
    return np.array(parts[:dim]) + 1j * np.array(parts[dim:])


class TestEigendecompose:
    def test_diagonal_matrix(self):
        w, v = hermitian_eigendecompose(np.diag([-0.5, 0.5]).astype(complex))
        assert np.allclose(w, [-0.5, 0.5], atol=0)
        assert np.allclose(np.abs(v), np.eye(2), atol=0)

    def test_rotating_field_start_matrix(self):
        # field strength 1 at cone angle pi/3, t = 0: spectrum is +/- 1/2
        theta = math.pi / 3
        h = 0.5 * np.array(
            [[math.cos(theta), math.sin(theta)], [math.sin(theta), -math.cos(theta)]],
            dtype=complex,
        )
        w, v = hermitian_eigendecompose(h)
        assert w == pytest.approx([-0.5, 0.5], abs=1e-14)
        assert max_abs(h @ v - v * w) < 1e-14

    def test_random_4x4_residual_and_trace(self):
        h = random_hermitian(4, 42)
        w, v = hermitian_eigendecompose(h)
        scale = float(np.linalg.norm(h))
        assert max_abs(h @ v - v * w) <= 1e-10 * scale
        assert abs(np.trace(h).real - w.sum()) <= 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eigendecompose(np.ones((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            hermitian_eigendecompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_solver_failure_is_diagnosed(self, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(ConvergenceError, match="did not converge"):
            hermitian_eigendecompose(random_hermitian(4, 0))

    def test_zero_matrix(self):
        w, v = hermitian_eigendecompose(np.zeros((3, 3), dtype=complex))
        assert np.all(w == 0.0)
        assert np.array_equal(v, np.eye(3))

    def test_supported_dimension_cap(self):
        h = random_hermitian(64, 3)
        w, v = hermitian_eigendecompose(h)
        scale = float(np.linalg.norm(h))
        assert max_abs(h @ v - v * w) <= 1e-10 * scale
        assert max_abs(v.conj().T @ v - np.eye(64)) <= 1e-10

    @given(st.integers(2, 6), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_orthonormality_order(self, n, seed):
        h = random_hermitian(n, seed)
        w, v = hermitian_eigendecompose(h)
        scale = max(float(np.linalg.norm(h)), 1e-30)
        assert max_abs((v * w) @ v.conj().T - h) <= 1e-10 * scale
        assert max_abs(v.conj().T @ v - np.eye(n)) <= 1e-10
        assert np.all(np.diff(w) >= 0.0)


class TestStacks:
    def test_stack_matches_single_solves(self):
        stack = np.stack([random_hermitian(5, seed) for seed in range(7)])
        w, v = hermitian_eigendecompose(stack)
        assert w.shape == (7, 5) and v.shape == (7, 5, 5)
        for k in range(7):
            wk, vk = hermitian_eigendecompose(stack[k])
            assert max_abs(w[k] - wk) == 0.0
            assert max_abs(stack[k] @ v[k] - v[k] * w[k]) <= 1e-12

    def test_zero_matrix_inside_stack(self):
        stack = np.stack([random_hermitian(3, 1), np.zeros((3, 3)), random_hermitian(3, 2)])
        w, v = hermitian_eigendecompose(stack)
        assert np.all(w[1] == 0.0)
        assert np.array_equal(v[1], np.eye(3))

    def test_non_hermitian_member_named(self):
        stack = np.stack([random_hermitian(3, seed) for seed in range(6)])
        stack[4, 0, 2] += 1e-6
        with pytest.raises(ValueError, match="operator 4 of the stack is not Hermitian"):
            hermitian_eigendecompose(stack)
        # the closed-form d = 2 exponential validates the same way
        stack = np.stack([random_hermitian(2, seed) for seed in range(6)])
        stack[3, 1, 0] += 1e-6
        with pytest.raises(ValueError, match="operator 3 of the stack is not Hermitian"):
            unitary_exponential(stack, 0.1)

    @pytest.mark.parametrize(
        "entry, delta",
        [((0, 0), 3e-9j), ((1, 1), -7e-10j), ((0, 1), 2e-9 + 1e-9j), ((1, 0), -4e-9)],
        ids=["imag_diagonal_0", "imag_diagonal_1", "upper", "lower"],
    )
    def test_two_level_defect_is_the_general_formula(self, entry, delta):
        # the dim-2 check reads three planes; its defect, message and named matrix
        # must be those of max_ij |h_ij - conj h_ji|
        stack = np.stack([random_hermitian(2, seed) for seed in range(6)])
        stack[3][entry] += delta
        general = np.abs(stack - np.swapaxes(stack.conj(), 1, 2)).max(axis=(1, 2))
        assert np.array_equal(_hermitian_defects(stack), general)
        with pytest.raises(ValueError) as info:
            require_hermitian(stack)
        assert str(info.value) == (
            f"operator 3 of the stack is not Hermitian (defect {general[3]:.3e} > {HERMITIAN_ATOL:.1e})"
        )
        with pytest.raises(ValueError) as info:
            require_hermitian(stack[3])
        assert str(info.value) == f"operator is not Hermitian (defect {general[3]:.3e} > {HERMITIAN_ATOL:.1e})"

    def test_two_level_defects_match_the_general_formula_bit_for_bit(self):
        rng = np.random.default_rng(11)
        stack = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
        stack *= np.logspace(-300, 300, 200)[:, np.newaxis, np.newaxis]
        for layout in (stack, np.asfortranarray(stack)):
            general = np.abs(layout - np.swapaxes(layout.conj(), 1, 2)).max(axis=(1, 2))
            assert np.array_equal(_hermitian_defects(layout), general)

    def test_nonfinite_member_named(self):
        stack = np.stack([random_hermitian(2, seed) for seed in range(3)])
        stack[2, 1, 1] = np.inf
        with pytest.raises(ValueError, match="operator 2 of the stack contains non-finite"):
            unitary_exponential(stack, 0.1)
        stack = np.stack([random_hermitian(3, seed) for seed in range(4)])
        stack[1, 0, 2] = np.nan
        with pytest.raises(ValueError, match="operator 1 of the stack contains non-finite"):
            unitary_exponential(stack, 0.1)

    def test_exponential_stack_matches_single(self):
        for d in (4, 2):
            stack = np.stack([random_hermitian(d, seed) for seed in range(5)])
            us = unitary_exponential(stack, 0.3)
            for k in range(5):
                assert max_abs(us[k] - unitary_exponential(stack[k], 0.3)) <= 1e-14


def random_stack(shape, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def assert_matmul(got, a, b):
    want = np.matmul(a, b)
    assert got.shape == want.shape
    assert max_abs(got - want) <= 1e-13 * max_abs(want)


@pytest.mark.parametrize("d", [2, 3, 8])
class TestStackMatmul:
    """``stack_matmul`` is ``a @ b``: the dim-2 forms at d = 2, ``np.matmul`` above."""

    def test_matches_matmul(self, d):
        a, b = random_stack((17, d, d), 1), random_stack((17, d, d), 2)
        assert_matmul(stack_matmul(a, b), a, b)

    def test_conjugate_transpose_view_on_the_left(self, d):
        a, b = random_stack((17, d, d), 3), random_stack((17, d, d), 4)
        adag = np.swapaxes(a.conj(), -2, -1)
        assert_matmul(stack_matmul(adag, b), adag, b)

    def test_non_square_right_operand(self, d):
        a, b = random_stack((17, d, d), 5), random_stack((17, d, d + 3), 6)
        assert_matmul(stack_matmul(a, b), a, b)

    def test_single_matrix_broadcasts_against_a_stack(self, d):
        single, stack = random_stack((d, d), 7), random_stack((17, d, d), 8)
        assert_matmul(stack_matmul(single, stack), single, stack)
        assert_matmul(stack_matmul(stack, single), stack, single)

    def test_out_is_a_strided_slice_of_the_input_buffer(self, d):
        # the prefix-product pattern: even slots are written from odd ones
        a, buf = random_stack((9, d, d), 9), random_stack((18, d, d), 10)
        a_before, buf_before = a.copy(), buf.copy()
        out = buf[0::2]
        assert stack_matmul(a, buf[1::2], out=out) is out
        assert_matmul(buf[0::2], a_before, buf_before[1::2])
        assert np.array_equal(buf[1::2], buf_before[1::2])
        assert np.array_equal(a, a_before)


# d = 2 stack lengths on both sides of stack_matmul's einsum/broadcast choice
STACK_LENGTHS = [1, 17, _EINSUM_MAX_STACK, _EINSUM_MAX_STACK + 1, 1000]


def assert_layout(got, order):
    # a d = 2 product keeps its inputs' layout, level axes included; a
    # length-1 stack has no layout
    if order == "F":
        assert got.shape[0] == 1 or got.flags.f_contiguous, got.strides
    else:
        assert got.flags.c_contiguous, got.strides


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("k", STACK_LENGTHS)
class TestStackMatmulLengths:
    """Both dim-2 forms of ``stack_matmul``: one einsum call up to the boundary, broadcast above."""

    def test_matches_matmul(self, k, order):
        a = np.asarray(random_stack((k, 2, 2), 11), order=order)
        b = np.asarray(random_stack((k, 2, 2), 12), order=order)
        got = stack_matmul(a, b)
        assert_matmul(got, a, b)
        assert_layout(got, order)

    def test_non_square_right_operand(self, k, order):
        # the projection pattern, (K, 2, 2) by (K, 2, 4)
        a = np.asarray(random_stack((k, 2, 2), 19), order=order)
        b = np.asarray(random_stack((k, 2, 4), 20), order=order)
        got = stack_matmul(a, b)
        assert_matmul(got, a, b)
        assert_layout(got, order)

    def test_out_is_a_strided_slice_of_the_input_buffer(self, k, order):
        a = np.asarray(random_stack((k, 2, 2), 13), order=order)
        buf = np.asarray(random_stack((2 * k, 2, 2), 14), order=order)
        a_before, buf_before = a.copy(), buf.copy()
        out = buf[0::2]
        assert stack_matmul(a, buf[1::2], out=out) is out
        assert_matmul(buf[0::2], a_before, buf_before[1::2])
        assert np.array_equal(buf[1::2], buf_before[1::2])

    def test_single_matrix_broadcasts_against_a_stack(self, k, order):
        # on either side, in either form, the product keeps the stack's layout
        single = random_stack((2, 2), 15)
        stack = np.asarray(random_stack((k, 2, 2), 16), order=order)
        full = np.asarray(np.broadcast_to(single, stack.shape), order=order)
        for a, b, stacked in ((single, stack, (full, stack)), (stack, single, (stack, full))):
            got = stack_matmul(a, b)
            assert_matmul(got, a, b)
            assert_layout(got, order)
            if k > 1:  # the result's axes run in the stack's stride order
                assert list(np.argsort(got.strides)) == list(np.argsort(stack.strides))
            # into a given out, and against the single matrix stacked out, the same bits
            out = np.empty_like(stack)
            assert stack_matmul(a, b, out=out) is out and np.array_equal(out, got)
            assert np.array_equal(stack_matmul(*stacked), got)

    def test_stack_times_one_vector(self, k, order):
        stack = np.asarray(random_stack((k, 2, 2), 17), order=order)
        vector = random_stack((2, 1), 18)
        got = stack_matmul(stack, vector)
        assert got.shape == (k, 2, 1)
        assert_matmul(got, stack, vector)
        assert_layout(got, order)


@pytest.mark.parametrize("k", STACK_LENGTHS[1:])
def test_conjugate_transposed_product_is_time_contiguous(k):
    # V†·B, diagnostics' projection: the einsum form orders the level axes as the
    # operands' strides do, not in Fortran order, but in both forms the time axis
    # stays innermost, the layout the run's inner loops rely on
    v = np.asfortranarray(random_stack((k, 2, 2), 21))
    b = np.asfortranarray(random_stack((k, 2, 4), 22))
    vh = v.conj().swapaxes(-2, -1)
    got = stack_matmul(vh, b)
    assert_matmul(got, vh, b)
    assert got.strides[0] == got.itemsize, got.strides


def rabi_rotation_per_entry(h, s):
    """The d = 2 closed form, each entry formed on its own: the reference for its bits."""
    a0, az, b, _, r = _pauli_split(h)
    angle = s * r
    sinc = np.divide(np.sin(angle), r, out=np.full_like(r, s), where=r > 0)
    phase = np.exp(-1j * s * a0)
    cos = phase * np.cos(angle)
    isin = 1j * phase * sinc
    u = np.empty(h.shape, dtype=np.complex128, order="F")
    u[..., 0, 0] = cos - isin * az
    u[..., 1, 1] = cos + isin * az
    u[..., 0, 1] = -isin * b
    u[..., 1, 0] = -isin * b.conj()
    return u


class TestUnitaryExponential:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("k", [1, 17, 501])
    def test_two_level_bit_for_bit_the_per_entry_form(self, k, order):
        rng = np.random.default_rng(k)
        m = rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2))
        h = m + m.conj().swapaxes(1, 2)
        h[::5] = 0.3 * np.eye(2)  # r = 0, where sin(s r)/r is s
        h = np.asarray(h, order=order)
        for s in (0.01, -2.5, 0.0):
            for x in (h, h[0]):
                got = np.ascontiguousarray(unitary_exponential(x, s))
                want = np.ascontiguousarray(rabi_rotation_per_entry(x, s))
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_zero_time_is_identity(self):
        for d in (2, 3, 8):
            assert np.array_equal(unitary_exponential(random_hermitian(d, 5), 0.0), np.eye(d))
            stack = np.stack([random_hermitian(d, seed) for seed in range(4)])
            assert np.array_equal(unitary_exponential(stack, 0.0), np.broadcast_to(np.eye(d), stack.shape))

    def test_diagonal_exponential(self):
        u = unitary_exponential(np.diag([-0.5, 0.5]).astype(complex), math.pi)
        expected = np.diag([np.exp(0.5j * math.pi), np.exp(-0.5j * math.pi)])
        assert max_abs(u - expected) < 1e-14

    def test_pauli_x_closed_form(self):
        # exp(-i t (w0/2) sigma_x) = cos(w0 t/2) I - i sin(w0 t/2) sigma_x
        w0, t = 1.3, 0.7
        h = 0.5 * w0 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        arg = 0.5 * w0 * t
        expected = np.array(
            [[math.cos(arg), -1j * math.sin(arg)], [-1j * math.sin(arg), math.cos(arg)]]
        )
        assert max_abs(unitary_exponential(h, t) - expected) < 1e-14

    @given(st.floats(-5.0, 5.0, allow_nan=False), st.floats(-5.0, 5.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_group_property(self, s1, s2):
        for d in (3, 2):
            h = random_hermitian(d, 17)
            lhs = unitary_exponential(h, s1) @ unitary_exponential(h, s2)
            rhs = unitary_exponential(h, s1 + s2)
            assert max_abs(lhs - rhs) <= 1e-10

    @given(st.integers(0, 10**6), complex_vector())
    @settings(max_examples=30, deadline=None)
    def test_norm_preservation(self, seed, v):
        for d in (3, 2):
            u = unitary_exponential(random_hermitian(d, seed), 0.9)
            assert max_abs(u.conj().T @ u - np.eye(d)) <= 1e-10
            norm = np.linalg.norm(v[:d])
            assert np.linalg.norm(u @ v[:d]) == pytest.approx(norm, abs=1e-10 * (1 + norm))


def random_hermitian_stack(k: int, d: int, seed: int) -> np.ndarray:
    """``k`` Hermitian matrices, each scaled by its own factor in [1e-3, 1e3]."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=(k, 1, 1))
    return scales * 0.5 * (m + np.swapaxes(m.conj(), 1, 2))


class TestClosedFormExponential:
    """At d = 2 the exponential is the SU(2) rotation."""

    @pytest.mark.parametrize("s", [1e-3, 0.1, 3.0, 1e3])
    def test_matches_the_eigh_form_and_is_unitary(self, s):
        h = random_hermitian_stack(2000, 2, 11)
        u = unitary_exponential(h, s)
        scale = np.maximum(1.0, s * np.linalg.norm(h, ord=2, axis=(1, 2)))
        assert np.all(np.max(np.abs(u - eigh_exponential(h, s)), axis=(1, 2)) <= 1e-14 * scale)
        assert max_abs(np.swapaxes(u.conj(), 1, 2) @ u - np.eye(2)) <= 4e-15

    def test_scalar_matrices_are_exact_phases(self):
        values = np.array([0.0, 1.7, -3.2, 1e-300, 5e3])
        stack = values[:, np.newaxis, np.newaxis] * np.eye(2)
        stack = np.concatenate([stack, random_hermitian_stack(3, 2, 12)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # r = 0 must not divide by zero
            for s in (0.0, 1e-3, 0.7, 1e3):
                u = unitary_exponential(stack, s)
                for k, a in enumerate(values):
                    assert np.array_equal(u[k], np.exp(-1j * s * a) * np.eye(2))
                    assert np.array_equal(unitary_exponential(stack[k], s), u[k])


EPS = np.finfo(float).eps


class TestTaylorExponential:
    """Above d = 2 the exponential is a scaled Taylor polynomial, squared."""

    @pytest.mark.parametrize("s", [-1e-3, 0.1, 3.0, 1e3])
    @pytest.mark.parametrize("d", [3, 8, 16, 64])
    def test_matches_the_eigh_form_and_is_unitary(self, d, s):
        # one scaling serves a stack, so the error follows the stack's largest
        # |s|·‖H‖₁, the θ the degree and the squarings are chosen from
        def assert_close(h, u):
            bound = 32 * EPS * max(1.0, abs(s) * np.max(np.linalg.norm(h, ord=1, axis=(-2, -1))))
            assert max_abs(u - eigh_exponential(h, s)) <= bound
            assert max_abs(np.swapaxes(u.conj(), -2, -1) @ u - np.eye(d)) <= bound

        h = random_hermitian_stack(20 if d == 64 else 100, d, 14)
        assert_close(h, unitary_exponential(h, s))
        for k in range(0, h.shape[0], 9):  # alone, a matrix follows its own norm
            assert_close(h[k], unitary_exponential(h[k], s))

    @pytest.mark.parametrize("d", [3, 8])
    def test_scalar_matrices_are_phases(self, d):
        values = np.array([0.0, 1.7, -3.2, 1e-300, 5e3])
        stack = values[:, np.newaxis, np.newaxis] * np.eye(d)
        for s in (1e-3, 0.7, 1e3):
            u = unitary_exponential(stack, s)
            assert np.count_nonzero(u * (1 - np.eye(d))) == 0
            phases = np.exp(-1j * s * values)[:, np.newaxis, np.newaxis] * np.eye(d)
            bound = 4 * EPS * np.maximum(1.0, np.abs(s * values))
            assert np.all(np.max(np.abs(u - phases), axis=(1, 2)) <= bound)

    @pytest.mark.parametrize("d", [2, 3])
    def test_empty_stack(self, d):
        u = unitary_exponential(np.zeros((0, d, d)), 0.3)
        assert u.shape == (0, d, d)

    def test_forms_no_eigenpair(self, monkeypatch):
        def no_lapack(a):
            raise AssertionError("LAPACK eigh reached by the exponential")

        h = random_hermitian_stack(30, 8, 15)
        want = eigh_exponential(h, 0.3)
        monkeypatch.setattr(np.linalg, "eigh", no_lapack)
        assert max_abs(unitary_exponential(h, 0.3) - want) <= 1e-9

    @pytest.mark.parametrize("s", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("d", [2, 3])
    def test_nonfinite_time_rejected(self, d, s):
        with pytest.raises(ValueError, match="time s"):
            unitary_exponential(random_hermitian(d, 16), s)

    def test_overflowing_time_rejected(self):
        with pytest.raises(ValueError, match="time s = 1e.308 overflows"):
            unitary_exponential(np.diag([1.0, 2.0, 5.0]), 1e308)


def pauli_stack(az, b, a0) -> np.ndarray:
    """2×2 Hermitian matrices a0·1 + [[a_z, b], [b*, -a_z]], one per entry."""
    az, b, a0 = np.broadcast_arrays(np.asarray(az, float), np.asarray(b, complex), a0)
    h = np.empty(az.shape + (2, 2), dtype=complex)
    h[..., 0, 0], h[..., 1, 1] = a0 + az, a0 - az
    h[..., 0, 1], h[..., 1, 0] = b, b.conj()
    return h


def assert_eigenpairs(h, w, v):
    """Ascending w, |HV - VW| <= 8·eps·‖H‖ per matrix and V†V = 1."""
    norms = np.linalg.norm(h, ord=2, axis=(-2, -1))
    assert np.all(np.isfinite(w)) and np.all(np.isfinite(v))
    assert np.all(w[..., 0] <= w[..., 1])
    defect = np.max(np.abs(h @ v - v * w[..., np.newaxis, :]), axis=(-2, -1))
    assert np.all(defect <= 8 * EPS * norms)
    assert max_abs(np.swapaxes(v.conj(), -2, -1) @ v - np.eye(2)) <= 4e-15


class TestClosedFormEigensolver:
    """At d = 2 the eigenpairs are the closed form; above, LAPACK ``eigh``."""

    def test_matches_lapack(self):
        h = random_hermitian_stack(2000, 2, 21)
        w, v = hermitian_eigendecompose(h)
        wl, vl = np.linalg.eigh(h)
        norms = np.linalg.norm(h, ord=2, axis=(1, 2))
        assert_eigenpairs(h, w, v)
        # LAPACK's own eigenvalues sit up to about 5·eps·‖H‖ from the exact ones
        assert np.all(np.max(np.abs(w - wl), axis=1) <= 8 * EPS * norms)
        # columns agree up to a phase, to the eps·‖H‖/gap both solvers are held to
        gap = w[:, 1] - w[:, 0]
        resolved = gap >= 1e-6 * norms
        assert np.count_nonzero(resolved) > 1900
        overlap = np.einsum("kji,kji->ki", vl.conj(), v)
        aligned = vl * (overlap / np.abs(overlap))[:, np.newaxis, :]
        defect = np.max(np.abs(v - aligned), axis=(1, 2))
        assert np.all(defect[resolved] <= 16 * EPS * norms[resolved] / gap[resolved])

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS, reason="needs extended precision")
    def test_eigenvalues_are_within_eps_of_exact(self):
        h = random_hermitian_stack(2000, 2, 22)
        w, _ = hermitian_eigendecompose(h)
        x = h.astype(np.clongdouble)
        a0 = (x[:, 0, 0].real + x[:, 1, 1].real) / 2
        az = (x[:, 0, 0].real - x[:, 1, 1].real) / 2
        r = np.sqrt(az * az + np.abs(x[:, 0, 1]) ** 2)
        exact = np.stack([a0 - r, a0 + r], axis=-1)
        norms = np.linalg.norm(h, ord=2, axis=(1, 2))
        assert np.all(np.max(np.abs(w - exact), axis=1) <= 4 * EPS * norms)

    @pytest.mark.parametrize(
        "az, b",
        [(0.7, 0.2 - 0.4j), (-0.7, 0.2 - 0.4j), (0.0, 0.3 + 0.1j), (0.7, 0.0), (-0.7, 0.0),
         (1e-9, 1.0), (-1e-9, 1.0), (1.0, 1e-9j)],
        ids=["az>0", "az<0", "az=0", "b=0,az>0", "b=0,az<0", "az~0+", "az~0-", "b~0"],
    )
    def test_every_branch(self, az, b):
        a0 = np.array([-1.3, 0.0, 2.5])
        h = pauli_stack(az, b, a0)
        w, v = hermitian_eigendecompose(h)
        assert_eigenpairs(h, w, v)
        r = math.hypot(az, abs(b))
        exact = a0[:, np.newaxis] + np.array([-r, r])
        assert np.all(np.abs(w - exact) <= 4 * EPS * np.linalg.norm(h, ord=2, axis=(1, 2))[:, np.newaxis])

    def test_scalar_matrices_give_the_identity(self):
        values = np.array([0.0, 1.7, -3.2, 1e-300, 5e3, -1e150])
        stack = values[:, np.newaxis, np.newaxis] * np.eye(2)
        stack = np.concatenate([stack, random_hermitian_stack(3, 2, 23)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # r = 0 must not divide by zero
            w, v = hermitian_eigendecompose(stack)
            for k, a in enumerate(values):
                assert np.array_equal(w[k], [a, a])
                assert np.array_equal(v[k], np.eye(2))
                wk, vk = hermitian_eigendecompose(stack[k])
                assert np.array_equal(wk, [a, a]) and np.array_equal(vk, np.eye(2))

    @pytest.mark.parametrize("scale", [1e150, 1e-150, 1e160, 1e-160])
    def test_extreme_entries_stay_finite(self, scale):
        # at 1e±160 the squares under sqrt(2 r p) would overflow or underflow
        h = scale * random_hermitian_stack(200, 2, 24)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, v = hermitian_eigendecompose(h)
        assert_eigenpairs(h, w, v)

    def test_single_matrix_is_its_stack_member(self):
        h = random_hermitian_stack(40, 2, 25)
        w, v = hermitian_eigendecompose(h)
        for k in range(40):
            wk, vk = hermitian_eigendecompose(h[k])
            assert np.array_equal(wk, w[k]) and np.array_equal(vk, v[k])

    @pytest.mark.parametrize("d", [3, 8])
    def test_above_dim_2_is_lapack(self, d):
        h = random_hermitian_stack(50, d, 26)
        w, v = hermitian_eigendecompose(h)
        wl, vl = np.linalg.eigh(h)
        assert np.array_equal(w, wl) and np.array_equal(v, vl)


class TestValidators:
    def test_require_hermitian_accepts_and_returns(self):
        h = random_hermitian(3, 1)
        assert require_hermitian(h) is not None

    def test_defect_at_the_tolerance_passes(self):
        h = np.zeros((3, 2, 2))
        h[1, 0, 1] = HERMITIAN_ATOL
        assert require_hermitian(h) is h
        h[1, 0, 1] = 2 * HERMITIAN_ATOL
        with pytest.raises(ValueError, match=r"operator 1 of the stack is not Hermitian \(defect 2\.000e-12"):
            require_hermitian(h)

    def test_require_normalized(self):
        require_normalized(np.array([1.0, 0.0], dtype=complex))
        with pytest.raises(ValueError, match="normalized"):
            require_normalized(np.array([1.0, 1.0], dtype=complex))
