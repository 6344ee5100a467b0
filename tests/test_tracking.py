import math
import warnings

import numpy as np
import pytest

import oracles
from oracles import max_abs, rotate_gauge
from adiab.diagnostics import GaugeError, run_diagnostics
from adiab.linalg import hermitian_eigendecompose, stack_matmul
from adiab.models import (
    SchwingerParams,
    custom_model,
    random_smooth_model,
    schwinger_analytic_eigensystem,
    schwinger_model,
)
from adiab.propagate import TimeGrid
from adiab.runner import _perturbation_residual
from adiab.tracking import (
    DegeneracyError,
    LevelCrossingError,
    _default_phases,
    _fill_derivatives,
    _order_failure,
    _unit,
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

    @pytest.mark.parametrize("omega0", [1e155, 1e160])
    def test_huge_static_field_is_not_degenerate(self, omega0):
        # the degeneracy scale is max |E_i|; a Frobenius norm's squares overflow
        # past ‖H‖ ~ 1.3e154, and every sample then read as degenerate
        model = schwinger_model(SchwingerParams(omega0, 0.0, 1.5707963))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = track(model, TimeGrid(0.0, 2.0, 50))
        assert np.allclose(path.eigenvalues, [-0.5 * omega0, 0.5 * omega0], rtol=1e-15, atol=0)


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
        path = oracles.closed_form_path(TILTED, TimeGrid(0.0, 20.0, 2000))
        assert _perturbation_residual(schwinger_model(TILTED), path) <= 1e-8

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


def diagnosed(path, n):
    """Diagnostics along a path; beta and qac read no state, so any stack serves."""
    return run_diagnostics(path.eigenvectors[:, :, n], path, n)


def diagnosed_qac(path, n):
    return diagnosed(path, n).qac


class TestBerryPhase:
    def test_static_phase_is_minus_energy_times_time(self, static_path):
        diag = diagnosed(static_path, 0)
        assert diag.beta[0] == 0.0
        assert np.max(np.abs(diag.beta - 0.7 * static_path.times)) <= 1e-12
        assert diag.beta_imag_residue <= 1e-12

    def test_closed_form_at_tilted_angle(self, tilted_analytic_path):
        diag = diagnosed(tilted_analytic_path, 0)
        expected = oracles.beta1(TILTED, tilted_analytic_path.times)
        assert np.max(np.abs(diag.beta - expected)) <= 1e-6
        assert diag.beta_imag_residue <= 1e-9

    def test_equatorial_value_at_t_pi(self):
        grid = TimeGrid(0.0, math.pi, 1000)
        path = track(schwinger_model(SLOW), grid, gauge="analytic")
        assert diagnosed(path, 0).beta[-1] == pytest.approx(math.pi / 2, abs=1e-6)

    def test_broken_gauge_is_rejected(self, slow_analytic_path):
        # jagged per-sample phases wreck <E_n|Ė_n>; the quadrature must notice
        rng = np.random.default_rng(0)
        phases = rng.uniform(-1.0, 1.0, size=(slow_analytic_path.n_samples, 2))
        jagged = rotate_gauge(slow_analytic_path, phases)
        with pytest.raises(GaugeError, match="gauge"):
            diagnosed(jagged, 0)


class TestCouplingRatio:
    def test_static_ratio_zero(self, static_path):
        assert diagnosed_qac(static_path, 0)[10, 1] == 0.0

    def test_slow_equatorial_value(self, slow_analytic_path):
        ratios = diagnosed_qac(slow_analytic_path, 0)[:, 1]
        assert np.max(np.abs(ratios - 0.05)) <= 1e-8

    def test_fast_small_angle_value(self):
        p = SchwingerParams(1.0, 10.0, 0.1)
        path = track(schwinger_model(p), TimeGrid(0.0, 2.0, 4000), gauge="analytic")
        interior = diagnosed_qac(path, 0)[1:-1, 1]
        assert np.max(np.abs(interior - 0.499167)) <= 1e-4

    def test_nan_on_tracked_column(self, slow_analytic_path):
        ratios = diagnosed_qac(slow_analytic_path, 0)
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
        base = diagnosed_qac(path, 0)[:, 1]
        turned = diagnosed_qac(rotated, 0)[:, 1]
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


def argmax_order_failure(pairs, ts):
    """The general order check: the first sample where some row's largest overlap is off the diagonal."""
    broken = (np.argmax(np.abs(pairs), axis=2) != np.arange(pairs.shape[1])).any(axis=1)
    if not broken.any():
        return None
    k = int(np.argmax(broken))
    return k + 1, (
        f"eigenvalue order broke between samples {k} and {k + 1} (t={ts[k + 1]:.6g}); "
        "suspected level crossing"
    )


def as_found(failure):
    return None if failure is None else (failure[0], str(failure[1]))


def tied_overlaps(k, rng):
    """(k, 2, 2) overlaps near the identity, some rows tied in magnitude, in both phases."""
    pairs = np.empty((k, 2, 2), dtype=complex)
    pairs[:, 0, 0] = pairs[:, 1, 1] = 0.8 + 0.6j
    pairs[:, 0, 1] = pairs[:, 1, 0] = 0.1 + 0.2j
    # equal moduli, different phases: hypot is symmetric and sign-blind
    ties = [
        (0, 1, [0.6 + 0.8j, -0.8 + 0.6j, 0.8 - 0.6j]),
        (1, 0, [0.6 - 0.8j, -0.6 - 0.8j, 0.8 + 0.6j]),
    ]
    for row, other, values in ties:
        at = rng.choice(k, size=3, replace=False)
        for j, value in zip(at, values):
            pairs[j, row, other] = value
            assert abs(pairs[j, row, other]) == abs(pairs[j, row, row])
    return pairs


class TestOrderCheck:
    """The d = 2 order check from planes names what ``argmax``'s first-index rule names."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("row", [0, 1, None])
    def test_exact_magnitude_ties(self, order, row):
        # a tie on row 0 keeps level 0 (argmax takes index 0), on row 1 breaks it
        rng = np.random.default_rng(3 if row is None else row)
        pairs = tied_overlaps(40, rng)
        if row is not None:  # only that row's ties
            other = 1 - row
            keep = np.abs(pairs[:, other, row]) == np.abs(pairs[:, other, other])
            pairs[keep, other, row] = 0.1 + 0.2j
        pairs = np.asarray(pairs, order=order)
        ts = np.linspace(0.0, 1.0, 41)
        expected = argmax_order_failure(pairs, ts)
        assert as_found(_order_failure(np.abs(pairs), ts)) == expected
        if row == 0:
            assert expected is None
        else:
            assert expected is not None

    @pytest.mark.parametrize("seed", range(6))
    def test_random_stacks(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 600))
        pairs = rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2))
        pairs[:, [0, 1], [0, 1]] *= 3.0  # mostly ordered, so failures land anywhere
        pairs = np.asarray(pairs, order="F" if seed % 2 else "C")
        ts = np.linspace(-1.0, 2.0, k + 1)
        assert as_found(_order_failure(np.abs(pairs), ts)) == argmax_order_failure(pairs, ts)
        ordered = pairs.copy()
        ordered[:, [0, 1], [0, 1]] = 10.0
        assert _order_failure(np.abs(ordered), ts) is None

    def test_general_dim_keeps_argmax(self):
        rng = np.random.default_rng(9)
        pairs = rng.normal(size=(50, 3, 3)) + 1j * rng.normal(size=(50, 3, 3))
        pairs[:, [0, 1, 2], [0, 1, 2]] *= 4.0
        ts = np.linspace(0.0, 1.0, 51)
        assert as_found(_order_failure(np.abs(pairs), ts)) == argmax_order_failure(pairs, ts)


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestTransportBitForBit:
    """The stencils and transport phases in fewer passes give the former per-part bits."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_stencils(self, order, dim):
        rng = np.random.default_rng(dim)
        v = rng.normal(size=(30, dim, dim)) + 1j * rng.normal(size=(30, dim, dim))
        v[:, 0, 0] = 0.0  # exact zeros, in every part, keep their signs
        v[5:, 1, 0] = -0.0j
        v = np.asarray(v, order=order)
        h = 0.0137
        expected = np.empty_like(v)
        expected[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        expected[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        expected[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
        got = _fill_derivatives(v, h)
        assert np.array_equal(bits(got), bits(expected))
        assert got.strides == expected.strides

    @pytest.mark.parametrize("dim", [2, 3])
    def test_default_phases(self, dim):
        rng = np.random.default_rng(dim)
        frame = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for f in (frame, np.asfortranarray(frame)):  # the first row names every phase
            assert np.array_equal(bits(_default_phases(f)), bits(_unit(f[0]).conj()))
        frame[0, 0] = 1e-13  # below the 1e-12 floor: the next entry names the phase
        for f in (frame, np.asfortranarray(frame)):
            first = np.argmax(np.abs(f) > 1e-12, axis=0)
            z = f[first, np.arange(dim)]
            assert np.array_equal(bits(_default_phases(f)), bits(_unit(z).conj()))
        frame[:, 1] = 0.0  # an all-zero column keeps phase 1
        z = frame[np.argmax(np.abs(frame) > 1e-12, axis=0), np.arange(dim)]
        expected = np.ones(dim, dtype=np.complex128)
        expected[z != 0] = _unit(z[z != 0]).conj()
        assert np.array_equal(bits(_default_phases(frame)), bits(expected))

    @pytest.mark.parametrize("which", ["tilted", "dim3"])
    def test_transport_phases(self, which):
        # the whole transport gauge against the former chain of whole-array steps
        model = schwinger_model(TILTED) if which == "tilted" else random_smooth_model(3, seed=5)
        grid = TimeGrid(0.0, 3.0, 300)
        w, raw = hermitian_eigendecompose(model.hamiltonian(grid.samples))
        steps = np.diagonal(stack_matmul(raw[:-1].conj().swapaxes(-2, -1), raw[1:]), axis1=1, axis2=2)
        phases = np.empty_like(w, dtype=np.complex128)
        phases[0] = _unit(raw[0][np.argmax(np.abs(raw[0]) > 1e-12, axis=0), np.arange(model.dim)]).conj()
        phases[1:] = phases[0] * np.cumprod(_unit(steps).conj(), axis=0)
        phases = _unit(phases)
        expected = raw * phases[:, np.newaxis, :]
        assert np.array_equal(bits(track(model, grid).eigenvectors), bits(expected))
