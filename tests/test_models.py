import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import max_abs
from adiab.linalg import hermitian_eigendecompose, require_hermitian
from adiab.models import (
    SchwingerParams,
    custom_model,
    random_smooth_model,
    schwinger_analytic_eigensystem,
    schwinger_hamiltonian,
    schwinger_hamiltonian_derivative,
    schwinger_model,
    transformed_hamiltonian,
)
from adiab.propagate import TimeGrid, marzlin_sanders_model
from adiab.runner import run_pipeline

params_strategy = st.builds(
    SchwingerParams,
    omega0=st.floats(0.1, 10.0, allow_nan=False),
    omega=st.floats(0.0, 10.0, allow_nan=False),
    theta=st.floats(0.0, math.pi, allow_nan=False),
)


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"omega0": 0.0, "omega": 1.0, "theta": 0.5},
            {"omega0": -1.0, "omega": 1.0, "theta": 0.5},
            {"omega0": 1.0, "omega": -0.1, "theta": 0.5},
            {"omega0": 1.0, "omega": 1.0, "theta": 4.0},
            {"omega0": math.nan, "omega": 1.0, "theta": 0.5},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SchwingerParams(**kwargs)

    @pytest.mark.parametrize("value", [True, "1", 10**400, math.nan], ids=["True", "1", "10**400", "nan"])
    @pytest.mark.parametrize("key", ["omega0", "omega", "theta"])
    def test_non_numbers_rejected_naming_the_key(self, key, value):
        kwargs = dict({"omega0": 1.0, "omega": 1.0, "theta": 0.5}, **{key: value})
        with pytest.raises(ValueError, match=f"^{key}: "):
            SchwingerParams(**kwargs)

    def test_values_stored_as_plain_floats(self):
        params = SchwingerParams(np.float32(1.0), 0, np.float64(0.5))
        assert [type(x) for x in (params.omega0, params.omega, params.theta)] == [float] * 3


class TestHamiltonian:
    def test_aligned_field_is_diagonal(self):
        p = SchwingerParams(2.0, 0.7, 0.0)
        h = schwinger_hamiltonian(p, 3.1)
        assert max_abs(h - np.diag([1.0, -1.0])) == 0.0

    def test_equatorial_start(self):
        p = SchwingerParams(1.0, 0.1, math.pi / 2)
        h = schwinger_hamiltonian(p, 0.0)
        assert max_abs(h - np.array([[0.0, 0.5], [0.5, 0.0]])) < 1e-16

    def test_rotated_off_diagonal_phase(self):
        p = SchwingerParams(1.0, 0.1, math.pi / 2)
        h = schwinger_hamiltonian(p, math.pi)
        assert h[0, 1] == pytest.approx(0.5 * cmath.exp(-0.1j * math.pi), abs=1e-15)
        assert h[1, 0] == pytest.approx(0.5 * cmath.exp(0.1j * math.pi), abs=1e-15)
        w, _ = hermitian_eigendecompose(h)
        assert w == pytest.approx([-0.5, 0.5], abs=1e-14)

    @given(params_strategy, st.floats(-20.0, 20.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_always_hermitian(self, p, t):
        require_hermitian(schwinger_hamiltonian(p, t))


class TestHamiltonianDerivative:
    def test_aligned_field_is_static(self):
        p = SchwingerParams(1.0, 2.0, 0.0)
        assert max_abs(schwinger_hamiltonian_derivative(p, 1.0)) == 0.0

    def test_no_rotation_is_static(self):
        p = SchwingerParams(1.0, 0.0, 1.0)
        assert max_abs(schwinger_hamiltonian_derivative(p, 1.0)) == 0.0

    @pytest.mark.parametrize("t", [0.0, 0.8, 5.0])
    def test_matches_central_difference(self, t):
        p = SchwingerParams(1.0, 0.1, math.pi / 2)
        step = 1e-5
        fd = (schwinger_hamiltonian(p, t + step) - schwinger_hamiltonian(p, t - step)) / (2 * step)
        assert max_abs(schwinger_hamiltonian_derivative(p, t) - fd) < 1e-8


class TestAnalyticEigensystem:
    def test_aligned_field_vectors(self):
        p = SchwingerParams(1.0, 0.5, 0.0)
        w, v = schwinger_analytic_eigensystem(p, 0.0)
        assert np.allclose(w, [-0.5, 0.5], atol=0)
        assert np.allclose(v[:, 0], [0.0, -1.0], atol=0)
        assert np.allclose(v[:, 1], [1.0, 0.0], atol=0)

    @given(params_strategy, st.floats(-10.0, 10.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_eigen_equation_residual(self, p, t):
        h = schwinger_hamiltonian(p, t)
        w, v = schwinger_analytic_eigensystem(p, t)
        assert max_abs(h @ v - v * w) <= 1e-12 * max(1.0, p.omega0)

    @given(params_strategy, st.floats(-10.0, 10.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_numerical_solver_agrees_up_to_phase(self, p, t):
        w_num, v_num = hermitian_eigendecompose(schwinger_hamiltonian(p, t))
        w_ana, v_ana = schwinger_analytic_eigensystem(p, t)
        assert np.allclose(w_num, w_ana, atol=1e-10 * max(1.0, p.omega0))
        for i in range(2):
            z = np.vdot(v_ana[:, i], v_num[:, i])
            aligned = v_num[:, i] * np.conj(z) / abs(z)
            assert max_abs(aligned - v_ana[:, i]) <= 1e-10

    def test_derivative_matches_hand_formula_and_fd(self):
        # the oracle's hand-written derivatives of both columns
        p = SchwingerParams(1.0, 0.3, 1.1)
        t = 2.4
        dv = oracles.eigvec_derivatives(p, t)
        step = 1e-6
        _, vp = schwinger_analytic_eigensystem(p, t + step)
        _, vm = schwinger_analytic_eigensystem(p, t - step)
        assert max_abs(dv - (vp - vm) / (2 * step)) < 1e-8


class TestAnalyticAmplitudes:
    """The one copy of the closed-form amplitudes, the test oracle's."""

    def test_initial_condition(self):
        p = SchwingerParams(1.0, 0.4, 0.9)
        c1, c2 = oracles.amplitudes(p, 0.0)
        assert c1 == 1.0
        assert c2 == 0.0

    def test_fast_drive_peak(self):
        p = SchwingerParams(1.0, 10.0, 0.1)
        ts = np.linspace(0.0, 40.0, 200001)
        _, c2 = oracles.amplitudes(p, ts)
        assert oracles.rabi_frequency(p) == pytest.approx(9.00555, abs=1e-5)
        assert np.max(np.abs(c2)) == pytest.approx(0.11086, abs=1e-4)

    def test_slow_drive_peak(self):
        p = SchwingerParams(1.0, 0.1, math.pi / 2)
        ts = np.linspace(0.0, 200.0, 200001)
        _, c2 = oracles.amplitudes(p, ts)
        assert np.max(np.abs(c2)) == pytest.approx(0.1 / math.sqrt(1.01), abs=1e-6)
        assert np.max(np.abs(c2)) == pytest.approx(0.09950, abs=1e-4)

    @given(params_strategy, st.floats(0.0, 50.0, allow_nan=False))
    @example(SchwingerParams(8.25, 8.149158305408857, 0.0), 14.0)  # cancels in cos form
    @settings(max_examples=50, deadline=None)
    def test_normalization(self, p, t):
        c1, c2 = oracles.amplitudes(p, t)
        assert abs(c1) ** 2 + abs(c2) ** 2 == pytest.approx(1.0, abs=1e-12)

    @given(params_strategy)
    @settings(max_examples=50, deadline=None)
    def test_rabi_frequency_limits(self, p):
        aligned = SchwingerParams(p.omega0, p.omega, 0.0)
        opposed = SchwingerParams(p.omega0, p.omega, math.pi)
        assert oracles.rabi_frequency(aligned) == pytest.approx(
            abs(p.omega0 - p.omega), abs=1e-12 * (1 + p.omega0 + p.omega)
        )
        assert oracles.rabi_frequency(opposed) == pytest.approx(
            p.omega0 + p.omega, abs=1e-12 * (1 + p.omega0 + p.omega)
        )

    def test_aligned_field_never_transitions(self):
        p = SchwingerParams(1.0, 3.0, 0.0)
        _, c2 = oracles.amplitudes(p, np.linspace(0, 30, 500))
        assert np.max(np.abs(c2)) == 0.0


class TestTransformed:
    def test_identity_propagator_negates(self):
        h = schwinger_hamiltonian(SchwingerParams(1.0, 0.1, 0.7), 0.0)
        assert max_abs(transformed_hamiltonian(np.eye(2), h) + h) == 0.0

    def test_spectrum_negated_and_reversed(self):
        p = SchwingerParams(1.0, 0.3, 0.9)
        u = np.array([[0.6, 0.8j], [0.8j, 0.6]], dtype=complex)  # a unitary by hand
        for t in (0.0, 1.3, 4.0):
            h = schwinger_hamiltonian(p, t)
            w_a, _ = hermitian_eigendecompose(h)
            w_b, _ = hermitian_eigendecompose(transformed_hamiltonian(u, h))
            assert np.allclose(w_b, -w_a[::-1], atol=1e-10)

    def test_derivative_zero_when_static(self):
        u = np.eye(2, dtype=complex)
        assert max_abs(transformed_hamiltonian(u, np.zeros((2, 2)))) == 0.0

    def test_derivative_at_start(self):
        p = SchwingerParams(1.0, 0.5, 1.0)
        hdot = schwinger_hamiltonian_derivative(p, 0.0)
        assert max_abs(transformed_hamiltonian(np.eye(2), hdot) + hdot) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            transformed_hamiltonian(np.eye(3), np.eye(2))


class TestModelWrappers:
    def test_custom_model_fd_fallback(self):
        p = SchwingerParams(1.0, 0.2, 0.8)
        model = custom_model(lambda t: schwinger_hamiltonian(p, t), dim=2)
        exact = schwinger_hamiltonian_derivative(p, 1.7)
        assert max_abs(model.derivative(1.7) - exact) < 1e-8

    def test_custom_model_validation(self):
        with pytest.raises(ValueError, match="dimension"):
            custom_model(lambda t: np.eye(1), dim=1)
        for dim in (1, 0):
            with pytest.raises(ValueError, match="model dimension must be at least 2"):
                random_smooth_model(dim, seed=3)

    def test_custom_model_rejects_wrong_callback_shape(self):
        model = custom_model(lambda t: np.eye(3, dtype=complex), dim=2)
        with pytest.raises(ValueError, match=r"shape \(3, 3\) at t=0\.25; expected \(2, 2\)"):
            model.hamiltonian(0.25)
        with pytest.raises(ValueError, match=r"shape \(3, 3\) at t=0\.0; expected \(2, 2\)"):
            run_pipeline(model, TimeGrid(0.0, 1.0, 10), n=0)

    @pytest.mark.parametrize("with_derivative", [True, False], ids=["callback", "fd"])
    def test_custom_model_stacks_in_the_linalg_layout(self, with_derivative):
        p = SchwingerParams(1.0, 0.3, 1.1)
        ts = np.linspace(0.0, 3.0, 31)

        # C-order callback matrices, as a user's np.array gives them
        def h(t):
            return np.ascontiguousarray(schwinger_hamiltonian(p, t))

        def hdot(t):
            return np.ascontiguousarray(schwinger_hamiltonian_derivative(p, t))

        model = custom_model(h, hdot if with_derivative else None, dim=2)
        for stack in (model.hamiltonian(ts), model.derivative(ts)):
            assert stack.dtype == np.complex128
            assert stack.strides[0] == stack.itemsize  # time-contiguous at dim 2
        assert max_abs(model.hamiltonian(ts) - schwinger_hamiltonian(p, ts)) == 0.0
        dense = random_smooth_model(4, seed=2)
        wrapped = custom_model(dense.hamiltonian, dense.derivative if with_derivative else None, dim=4)
        for stack in (wrapped.hamiltonian(ts), wrapped.derivative(ts)):
            assert stack.flags.c_contiguous  # C order above dim 2
        assert max_abs(wrapped.hamiltonian(ts) - dense.hamiltonian(ts)) == 0.0

    def test_random_smooth_model_is_hermitian_and_reproducible(self):
        m1 = random_smooth_model(4, seed=42)
        m2 = random_smooth_model(4, seed=42)
        for t in (0.0, 0.9, 2.2):
            require_hermitian(m1.hamiltonian(t))
            assert max_abs(m1.hamiltonian(t) - m2.hamiltonian(t)) == 0.0

    def test_random_smooth_model_derivative_matches_fd(self):
        m = random_smooth_model(4, seed=7)
        t, step = 1.3, 1e-6
        fd = (m.hamiltonian(t + step) - m.hamiltonian(t - step)) / (2 * step)
        assert max_abs(m.derivative(t) - fd) < 1e-8

    def test_schwinger_model_bundles_closed_forms(self):
        model = schwinger_model(SchwingerParams(1.0, 0.1, 0.5))
        assert model.dim == 2
        assert model.analytic_eigensystem is not None


def _pair_on_lattice():
    grid = TimeGrid(0.0, 2.0, 40)
    model_b, _ = marzlin_sanders_model(schwinger_model(SchwingerParams(1.0, 0.1, 0.7)), grid)
    return model_b, grid.refined().samples


def _custom_with_fd_fallback():
    p = SchwingerParams(1.0, 0.3, 1.1)
    return custom_model(lambda t: schwinger_hamiltonian(p, t), dim=2), np.linspace(0.0, 3.0, 31)


PROTOCOL_MODELS = {
    "schwinger": lambda: (schwinger_model(SchwingerParams(1.0, 0.3, 1.1)), np.linspace(-2, 9, 45)),
    "random_smooth": lambda: (random_smooth_model(5, seed=3), np.linspace(0.0, 7.0, 29)),
    "custom": _custom_with_fd_fallback,
    "marzlin_sanders": _pair_on_lattice,
}


class TestStackedProtocol:
    """Every Model callable maps a time array to the stack of its per-time results."""

    @staticmethod
    def _callables(model):
        out = {"hamiltonian": model.hamiltonian, "derivative": model.derivative}
        if model.analytic_eigensystem is not None:
            out["eigenvalues"] = lambda t: model.analytic_eigensystem(t)[0]
            out["eigenvectors"] = lambda t: model.analytic_eigensystem(t)[1]
        return out

    @pytest.mark.parametrize("name", sorted(PROTOCOL_MODELS))
    def test_array_call_equals_stacked_scalar_calls(self, name):
        model, ts = PROTOCOL_MODELS[name]()
        for what, f in self._callables(model).items():
            per_time = np.stack([f(float(t)) for t in ts])
            stacked = f(ts)
            assert stacked.shape == per_time.shape, what
            assert stacked.dtype == per_time.dtype, what
            # bitwise, signed zeros included
            assert np.ascontiguousarray(stacked).tobytes() == per_time.tobytes(), what

    def test_rotating_field_matches_one_time_reference(self):
        # the midpoints of the fast_theta_pi4 panel, bit for bit
        p = SchwingerParams(1.0, 10.0, math.pi / 4)
        grid = TimeGrid(0.0, 4.0, 40000)
        mids = grid.samples[:-1] + 0.5 * grid.h
        reference = np.stack([oracles.hamiltonian(p, float(t)) for t in mids])
        assert schwinger_hamiltonian(p, mids).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("name", sorted(PROTOCOL_MODELS))
    def test_result_shapes(self, name):
        model, ts = PROTOCOL_MODELS[name]()
        d = model.dim
        grid2d = ts[: 2 * (len(ts) // 2)].reshape(2, -1)
        for what, f in self._callables(model).items():
            tail = (d,) if what == "eigenvalues" else (d, d)
            assert f(float(ts[3])).shape == tail, what
            assert f(ts).shape == ts.shape + tail, what
            assert f(grid2d).shape == grid2d.shape + tail, what
