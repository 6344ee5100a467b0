import math

import numpy as np
import pytest

import oracles
from adiab.linalg import max_abs
from adiab.models import (
    SchwingerParams,
    custom_model,
    schwinger_analytic_eigensystem,
    schwinger_model,
)
from adiab.propagate import TimeGrid
from adiab.runner import _perturbation_residual
from adiab.tracking import (
    DegeneracyError,
    GaugeError,
    LevelCrossingError,
    analytic_path,
    berry_phase,
    qac_ratios,
    rotate_gauge,
    track,
)

SLOW = SchwingerParams(1.0, 0.1, math.pi / 2)
TILTED = SchwingerParams(1.0, 0.1, math.pi / 4)


@pytest.fixture(scope="module")
def slow_analytic_path():
    return track(schwinger_model(SLOW), TimeGrid(0.0, 20.0, 2000), gauge="analytic")


@pytest.fixture(scope="module")
def tilted_analytic_path():
    return track(schwinger_model(TILTED), TimeGrid(0.0, 20.0, 2000), gauge="analytic")


@pytest.fixture(scope="module")
def static_model():
    h = np.diag([-0.7, 0.4]).astype(complex)
    return custom_model(lambda t: h, lambda t: np.zeros_like(h), dim=2)


@pytest.fixture(scope="module")
def static_path(static_model):
    return track(static_model, TimeGrid(0.0, 5.0, 100))


class TestTrack:
    def test_rotating_field_eigenvalues_constant(self, slow_analytic_path):
        assert np.max(np.abs(slow_analytic_path.eigenvalues[:, 0] + 0.5)) < 1e-12
        assert np.max(np.abs(slow_analytic_path.eigenvalues[:, 1] - 0.5)) < 1e-12

    def test_transport_with_reference_matches_closed_forms_at_equator(self):
        # at theta = pi/2 the fixed-phase gauge is transport-flat, and frame 0's
        # default phases match the closed form, so transport reproduces the
        # closed-form vectors along the whole run
        model = schwinger_model(SLOW)
        grid = TimeGrid(0.0, 20.0, 2000)
        path = track(model, grid, gauge="transport")
        worst = 0.0
        for k in range(0, path.n_samples, 97):
            _, va = schwinger_analytic_eigensystem(SLOW, float(path.times[k]))
            worst = max(worst, max_abs(path.eigenvectors[k] - va))
        assert worst <= 1e-6

    def test_analytic_gauge_matches_closed_forms_at_any_angle(self, tilted_analytic_path):
        path = tilted_analytic_path
        for k in (0, 711, path.n_samples - 1):
            _, va = schwinger_analytic_eigensystem(TILTED, float(path.times[k]))
            assert max_abs(path.eigenvectors[k] - va) <= 1e-10

    def test_static_hamiltonian_frames_identical(self, static_path):
        assert max_abs(static_path.eigenvectors - static_path.eigenvectors[0]) == 0.0

    def test_gauge_continuity(self, slow_analytic_path):
        v = slow_analytic_path.eigenvectors
        overlaps = np.einsum("kji,kji->ki", v[:-1].conj(), v[1:])
        assert np.min(overlaps.real) > 0.0

    def test_degenerate_spectrum_reported_with_sample(self):
        model = custom_model(lambda t: np.eye(2, dtype=complex), dim=2)
        with pytest.raises(DegeneracyError, match="sample 0"):
            track(model, TimeGrid(0.0, 1.0, 10))

    def test_level_crossing_reported(self):
        def h(t):
            return np.diag([t - 1.0, 1.0 - t]).astype(complex)

        model = custom_model(h, dim=2)
        with pytest.raises(LevelCrossingError):
            track(model, TimeGrid(0.0, 2.0, 11))  # samples straddle the crossing

    def test_level_crossing_names_its_sample_pair(self):
        model = custom_model(lambda t: np.diag([t - 1.0, 1.0 - t]).astype(complex), dim=2)
        # samples 5 and 6 sit at t = 10/11 and 12/11, either side of t = 1
        with pytest.raises(LevelCrossingError, match="between samples 5 and 6"):
            track(model, TimeGrid(0.0, 2.0, 11))

    def test_interior_degeneracy_names_its_sample(self):
        def h(t):
            return np.diag([1.0, 1.0 + (t - 0.5) ** 2]).astype(complex)

        model = custom_model(h, lambda t: np.zeros((2, 2), dtype=complex), dim=2)
        with pytest.raises(DegeneracyError, match=r"sample 5 \(t=0\.5\)"):
            track(model, TimeGrid(0.0, 1.0, 10))

    def test_transport_overlap_floor_failure_located(self):
        # From t = 0.35 the eigenbasis jumps by a reflection whose first
        # column keeps level 0 the best match (0.48 against 0.44) but below
        # the 0.5 overlap floor: the order check passes, the floor must not.
        u = np.sqrt(np.array([0.26, 0.185, 0.185, 0.185, 0.185]))
        jump = np.eye(5) - 2.0 * np.outer(u, u)
        spectrum = np.diag(np.arange(5.0)).astype(complex)

        def h(t):
            basis = jump if t > 0.35 else np.eye(5)
            return basis @ spectrum @ basis.conj().T

        model = custom_model(h, lambda t: np.zeros((5, 5), dtype=complex), dim=5)
        floor = r"level 0 continuity: overlap magnitude 0\.480 .* sample 4"
        with pytest.raises(LevelCrossingError, match=floor):
            track(model, TimeGrid(0.0, 1.0, 10))

    def test_non_hermitian_sample_rejected(self):
        def h(t):
            out = np.diag([0.0, 1.0]).astype(complex)
            if abs(t - 0.3) < 1e-12:
                out[0, 1] = 1e-6  # no matching lower entry
            return out

        model = custom_model(h, lambda t: np.zeros((2, 2), dtype=complex), dim=2)
        with pytest.raises(ValueError, match="operator 3 of the stack is not Hermitian"):
            track(model, TimeGrid(0.0, 1.0, 10))

    @pytest.mark.parametrize(
        "flat_at, error, where",
        [
            (0.8, LevelCrossingError, "between samples 2 and 3"),
            (0.1, DegeneracyError, "sample 1"),
        ],
    )
    def test_earliest_failure_wins(self, flat_at, error, where):
        # levels cross between t = 0.2 and 0.3; H is degenerate at t = flat_at
        def h(t):
            if abs(t - flat_at) < 1e-9:
                return np.eye(2, dtype=complex)
            return np.diag([t - 0.25, 0.25 - t]).astype(complex)

        model = custom_model(h, dim=2)
        with pytest.raises(error, match=where):
            track(model, TimeGrid(0.0, 1.0, 10))

    def test_unknown_gauge_rejected(self):
        with pytest.raises(ValueError, match="gauge"):
            track(schwinger_model(SLOW), TimeGrid(0.0, 1.0, 10), gauge="nope")

    def test_analytic_gauge_needs_closed_forms(self):
        model = custom_model(lambda t: np.diag([0.0, 1.0]).astype(complex), dim=2)
        with pytest.raises(ValueError, match="closed-form"):
            track(model, TimeGrid(0.0, 1.0, 10), gauge="analytic")

    def test_analytic_path_no_solver(self):
        grid = TimeGrid(0.0, 5.0, 500)
        path = analytic_path(schwinger_model(TILTED), grid)
        k = 123
        _, va = schwinger_analytic_eigensystem(TILTED, float(path.times[k]))
        assert max_abs(path.eigenvectors[k] - va) == 0.0
        assert max_abs(path.derivatives[k][:, 0] - oracles.lower_eigvec_derivative(TILTED, float(path.times[k]))) == 0.0


class TestEigenvectorDerivatives:
    def test_static_derivative_vanishes(self, static_path):
        assert max_abs(static_path.derivatives) == 0.0

    def test_interior_coupling_matches_closed_form(self, slow_analytic_path):
        # <E_2|Ė_1> = -(i omega/2) sin theta in the fixed-phase gauge
        path = slow_analytic_path
        expected = -0.5j * SLOW.omega * math.sin(SLOW.theta)
        for k in (1, 500, path.n_samples - 2):
            coupling = np.vdot(path.eigenvectors[k, :, 1], path.derivatives[k, :, 0])
            assert abs(coupling - expected) <= 1e-6

    def test_endpoints_use_one_sided_stencils(self, slow_analytic_path):
        path = slow_analytic_path
        v = path.eigenvectors
        h = path.grid.h
        one_sided = {
            0: (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h),
            path.n_samples - 1: (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h),
        }
        expected = -0.5j * SLOW.omega * math.sin(SLOW.theta)
        for k, stencil in one_sided.items():
            assert max_abs(path.derivatives[k] - stencil) == 0.0
            coupling = np.vdot(path.eigenvectors[k, :, 1], path.derivatives[k, :, 0])
            assert abs(coupling - expected) <= 1e-5

    def test_fd_agrees_with_perturbation_route(self, tilted_analytic_path):
        # stencil derivatives of a tracked path against <E_m|Hdot|E_i>/(E_i - E_m)
        assert _perturbation_residual(schwinger_model(TILTED), tilted_analytic_path) <= 1e-6

    def test_perturbation_zero_drive(self, static_model, static_path):
        assert _perturbation_residual(static_model, static_path) == 0.0

    def test_perturbation_reproduces_hand_derivative(self):
        # closed-form derivatives leave only rounding in the coupling identity
        model = schwinger_model(TILTED)
        path = analytic_path(model, TimeGrid(0.0, 20.0, 2000))
        assert _perturbation_residual(model, path) <= 1e-8

    def test_derivative_couplings_antisymmetric(self, tilted_analytic_path):
        # <Ė_m|E_n> = -<E_m|Ė_n>, from differentiating orthonormality
        path = tilted_analytic_path
        for k in (50, 900, 1500):
            d0 = path.derivatives[k, :, 0]
            d1 = path.derivatives[k, :, 1]
            v0 = path.eigenvectors[k, :, 0]
            v1 = path.eigenvectors[k, :, 1]
            assert abs(np.vdot(d1, v0) + np.vdot(v1, d0)) <= 1e-8
            assert abs(np.vdot(d0, v1) + np.vdot(v0, d1)) <= 1e-8

    def test_diagonal_coupling_purely_imaginary(self, tilted_analytic_path):
        path = tilted_analytic_path
        diag = np.einsum("kji,kji->ki", path.eigenvectors.conj(), path.derivatives)
        assert np.max(np.abs(diag.real)) <= 1e-9


class TestBerryPhase:
    def test_static_phase_is_minus_energy_times_time(self, static_path):
        acc = berry_phase(static_path, 0)
        assert acc.values[0] == 0.0
        assert np.max(np.abs(acc.values - 0.7 * static_path.times)) <= 1e-12
        assert acc.imag_residue <= 1e-12

    def test_closed_form_at_tilted_angle(self, tilted_analytic_path):
        acc = berry_phase(tilted_analytic_path, 0)
        expected = oracles.beta1(TILTED, tilted_analytic_path.times)
        assert np.max(np.abs(acc.values - expected)) <= 1e-6
        assert acc.imag_residue <= 1e-9

    def test_equatorial_value_at_t_pi(self):
        grid = TimeGrid(0.0, math.pi, 1000)
        path = track(schwinger_model(SLOW), grid, gauge="analytic")
        acc = berry_phase(path, 0)
        assert acc.values[-1] == pytest.approx(math.pi / 2, abs=1e-6)

    def test_broken_gauge_is_rejected(self, slow_analytic_path):
        # jagged per-sample phases wreck <E_n|Ė_n>; the quadrature must notice
        rng = np.random.default_rng(0)
        phases = rng.uniform(-1.0, 1.0, size=(slow_analytic_path.n_samples, 2))
        jagged = rotate_gauge(slow_analytic_path, phases)
        with pytest.raises(GaugeError, match="gauge"):
            berry_phase(jagged, 0)


class TestCouplingRatio:
    def test_static_ratio_zero(self, static_path):
        assert qac_ratios(static_path, 0)[10, 1] == 0.0

    def test_slow_equatorial_value(self, slow_analytic_path):
        ratios = qac_ratios(slow_analytic_path, 0)[:, 1]
        assert np.max(np.abs(ratios - 0.05)) <= 1e-8

    def test_fast_small_angle_value(self):
        p = SchwingerParams(1.0, 10.0, 0.1)
        path = track(schwinger_model(p), TimeGrid(0.0, 2.0, 4000), gauge="analytic")
        interior = qac_ratios(path, 0)[1:-1, 1]
        assert np.max(np.abs(interior - 0.499167)) <= 1e-4

    def test_nan_on_tracked_column(self, slow_analytic_path):
        ratios = qac_ratios(slow_analytic_path, 0)
        assert np.all(np.isnan(ratios[:, 0]))
        assert not np.any(np.isnan(ratios[:, 1]))

    def test_invariant_under_smooth_gauge_rotation(self):
        model = schwinger_model(TILTED)
        grid = TimeGrid(0.0, 10.0, 4000)
        path = track(model, grid)
        rng = np.random.default_rng(11)
        amps = rng.uniform(0.005, 0.02, size=2)
        freqs = rng.uniform(0.1, 0.25, size=2)
        rel = path.times - path.times[0]
        phases = np.stack([a * np.sin(f * rel) for a, f in zip(amps, freqs)], axis=1)
        rotated = rotate_gauge(path, phases)
        base = qac_ratios(path, 0)[:, 1]
        turned = qac_ratios(rotated, 0)[:, 1]
        assert np.max(np.abs(base - turned)) <= 1e-9


class TestRotateGauge:
    def test_shape_validation(self, static_path):
        with pytest.raises(ValueError, match="shape"):
            rotate_gauge(static_path, np.zeros((3, 2)))

    def test_rotation_changes_vectors_but_not_spectrum(self, slow_analytic_path):
        phases = np.full((slow_analytic_path.n_samples, 2), 0.3)
        rotated = rotate_gauge(slow_analytic_path, phases)
        assert max_abs(rotated.eigenvalues - slow_analytic_path.eigenvalues) == 0.0
        assert max_abs(rotated.eigenvectors - slow_analytic_path.eigenvectors) > 0.01
