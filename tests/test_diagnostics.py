import math
import warnings

import numpy as np
import pytest

import oracles
from adiab.diagnostics import run_diagnostics
from adiab.linalg import max_abs
from adiab.models import Model, SchwingerParams, custom_model, schwinger_model
from adiab.propagate import TimeGrid, evolve
from adiab.runner import (
    RunResult,
    _build_report,
    _criteria_fractions,
    _perturbation_residual,
    run_pipeline,
)
from adiab.scenario import Scenario
from adiab.tracking import track

SLOW = SchwingerParams(1.0, 0.1, math.pi / 2)
FAST = SchwingerParams(1.0, 10.0, 0.1)


@pytest.fixture(scope="module")
def zero_energy_run():
    """A static model whose tracked level sits exactly at zero energy, with its report.

    Any warning while the report is built fails the fixture.
    """
    h = np.diag([0.0, 1.0]).astype(complex)
    model = custom_model(lambda t: h, lambda t: np.zeros_like(h), dim=2)
    scenario = Scenario(
        name="zero_energy",
        model_kind="schwinger",  # the report's label only; the model above is what runs
        params=SchwingerParams(1.0, 0.0, 0.0),
        t_start=0.0,
        t_end=2.0,
        steps=50,
        level=1,
    )
    pipe = run_pipeline(model, TimeGrid(0.0, 2.0, 50), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = _build_report(scenario, pipe)
    return RunResult(scenario=scenario, pipeline=pipe, report=report)


class TestAmplitudes:
    def test_initial_sample_is_pure(self, slow_run):
        c0 = slow_run.pipeline.diagnostics.c[0]
        assert abs(c0[0] - 1.0) <= 1e-12
        assert abs(c0[1]) <= 1e-12

    def test_slow_drive_tracks_closed_form(self, slow_run):
        diag = slow_run.pipeline.diagnostics
        _, c2 = oracles.amplitudes(SLOW, diag.times)
        assert np.max(np.abs(diag.c[:, 1] - c2)) <= 1e-6

    def test_fast_drive_peak_amplitude(self, fast_run):
        diag = fast_run.pipeline.diagnostics
        assert np.max(np.abs(diag.c[:, 1])) == pytest.approx(0.11086, abs=1e-3)

    def test_probability_conserved(self, slow_run, fast_run):
        for run in (slow_run, fast_run):
            assert np.max(run.pipeline.diagnostics.probability_defect) <= 1e-8


class TestAdiabaticState:
    def test_initial_state_matches_eigenvector(self, slow_run):
        # psi - D is the phase-dressed eigenstate; beta starts at zero
        pipe = slow_run.pipeline
        adi = pipe.trajectory.states - pipe.diagnostics.d_vectors
        assert pipe.diagnostics.beta[0] == 0.0
        assert max_abs(adi[0] - pipe.path.eigenvectors[0, :, 0]) <= 1e-15

    def test_static_case_is_stationary_phase(self, static_run):
        pipe = static_run.pipeline
        diag = pipe.diagnostics
        k = 321
        e_n = pipe.path.eigenvalues[k, 0]
        expected = np.exp(-1j * e_n * diag.times[k]) * pipe.path.eigenvectors[k, :, 0]
        adi = pipe.trajectory.states[k] - diag.d_vectors[k]
        assert max_abs(adi - expected) <= 1e-12

    def test_slow_drive_fidelity_stays_high(self, slow_run):
        assert np.min(slow_run.pipeline.diagnostics.fidelity()) >= 0.99


class TestDifferenceVector:
    def test_matched_initial_conditions(self, slow_run):
        assert slow_run.pipeline.diagnostics.d_norm[0] <= 1e-12

    def test_static_case_vanishes(self, static_run):
        assert np.max(static_run.pipeline.diagnostics.d_norm) <= 1e-10

    def test_norm_squared_basis_expansion(self, slow_run):
        # ||D||^2 = |c_n - e^{i beta}|^2 + sum_{m != n} |c_m|^2
        diag = slow_run.pipeline.diagnostics
        lhs = diag.d_norm**2
        rhs = np.abs(diag.c[:, 0] - np.exp(1j * diag.beta)) ** 2 + np.abs(diag.c[:, 1]) ** 2
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestDifferenceVectorDerivative:
    def test_static_case_vanishes(self, static_run):
        assert np.max(static_run.pipeline.diagnostics.ddot_norm) <= 1e-10

    def test_matches_finite_difference_of_d(self, slow_run):
        diag = slow_run.pipeline.diagnostics
        h = slow_run.pipeline.grid.h
        fd = (diag.d_vectors[2:] - diag.d_vectors[:-2]) / (2.0 * h)
        assert np.max(np.abs(fd - diag.ddot_vectors[1:-1])) <= 1e-5

    def test_tracked_level_projection_identity(self, slow_run, fast_run):
        for run in (slow_run, fast_run):
            assert np.max(run.pipeline.diagnostics.lam) <= 1e-7


class TestQTerm:
    def test_static_case_vanishes(self, static_run):
        assert np.nanmax(np.abs(static_run.pipeline.diagnostics.q)) <= 1e-12

    def test_closed_form(self, slow_run):
        diag = slow_run.pipeline.diagnostics
        expected = oracles.q2(SLOW, diag.times)
        assert np.max(np.abs(diag.q[:, 1] - expected)) <= 1e-6

    def test_magnitude_equals_coupling_ratio(self, slow_run):
        diag = slow_run.pipeline.diagnostics
        assert np.max(np.abs(np.abs(diag.q[:, 1]) - diag.qac[:, 1])) <= 1e-12
        assert np.max(np.abs(np.abs(diag.q[:, 1]) - 0.05)) <= 1e-6


class TestRTerm:
    def test_zero_difference_gives_zero(self, static_run):
        # the static run keeps D and Ḋ at rounding level, and R with them
        assert np.nanmax(np.abs(static_run.pipeline.diagnostics.r)) <= 1e-10

    def test_closed_form(self, slow_run):
        diag = slow_run.pipeline.diagnostics
        expected = oracles.r2(SLOW, diag.times)
        assert np.max(np.abs(diag.r[:, 1] - expected)) <= 1e-6

    def test_fast_drive_cancellation_magnitude(self, fast_run):
        r = fast_run.pipeline.diagnostics.r[:, 1]
        assert np.max(np.abs(r)) >= 0.388


class TestDecomposition:
    def test_exact_on_closed_form_inputs(self):
        diag = oracles.analytic_diagnostics(SLOW, 20.0, 2000)
        assert np.nanmax(diag.residual) <= 1e-10

    def test_exact_on_numerical_pipeline(self, slow_run, fast_run):
        for run in (slow_run, fast_run):
            assert np.nanmax(run.pipeline.diagnostics.residual) <= 1e-7

    def test_reduces_to_coupling_term_when_d_vanishes(self, slow_run):
        # the residual departs from |c_m - Q_m| by at most |R_m|, which
        # vanishes with D and Ḋ
        diag = slow_run.pipeline.diagnostics
        departure = np.abs(diag.residual[:, 1] - np.abs(diag.c[:, 1] - diag.q[:, 1]))
        assert np.all(departure <= np.abs(diag.r[:, 1]) + 1e-15)


class TestCriteria:
    def test_static_case_all_true(self, static_run):
        diag = static_run.pipeline.diagnostics
        flags = diag.criteria_flags(static_run.scenario.thresholds.margin)
        assert np.all(flags[:, 1, :])

    def test_conjunction_implies_combined(self, slow_run, fast_run, static_run):
        # ratio_c <= ratio_a + ratio_b, so (a) and (b) below 0.1 puts (c) below 0.2
        for run in (slow_run, fast_run, static_run):
            ratios = run.pipeline.diagnostics.criteria_ratios[:, 1, :]
            both = (ratios[:, 0] < 0.1) & (ratios[:, 1] < 0.1)
            assert np.all(ratios[both, 2] < 0.2)

    def test_fast_drive_combined_criterion_fails_while_adiabatic(self, fast_run):
        diag = fast_run.pipeline.diagnostics
        ratios_c = diag.criteria_ratios[:, 1, 2]
        assert np.any(ratios_c >= 0.1)
        assert np.max(np.abs(diag.c[:, 1])) <= 0.12
        assert fast_run.report.summary["criteria_true_fraction"]["c"] < 1.0

    def test_zero_tracked_energy_reported_undefined(self, zero_energy_run):
        diag = zero_energy_run.pipeline.diagnostics
        assert not np.any(diag.criteria_defined)
        margin = zero_energy_run.scenario.thresholds.margin
        flags = diag.criteria_flags(margin)
        assert not np.any(flags[:, :, 0])
        assert np.all(flags[:, 1, 1])
        fractions = _criteria_fractions(diag, margin)
        assert fractions["a"] is None
        assert fractions["b"] == 1.0
        # ratios are still emitted
        assert np.isfinite(diag.criteria_ratios[5, 1, 1])


class TestEquivalence:
    def test_static_case_vanishes(self, static_run):
        assert np.max(static_run.pipeline.diagnostics.equivalence) <= 1e-10

    def test_positive_whenever_correction_is(self, slow_run):
        diag = slow_run.pipeline.diagnostics
        big_r = np.abs(diag.r[:, 1]) > 1e-6
        assert np.any(big_r)
        assert np.all(diag.equivalence[big_r] > 0.0)

    def test_projection_consistency(self, slow_run):
        # |<E_m|(i Ḋ - E_n D)>| = |E_m - E_n| |R_m|
        pipe = slow_run.pipeline
        diag = pipe.diagnostics
        for k in (3, 77, 1999):
            vm = pipe.path.eigenvectors[k, :, 1]
            gap = pipe.path.eigenvalues[k, 1] - pipe.path.eigenvalues[k, 0]
            e_n = pipe.path.eigenvalues[k, 0]
            combo = 1j * diag.ddot_vectors[k] - e_n * diag.d_vectors[k]
            assert abs(np.vdot(vm, combo)) == pytest.approx(
                abs(gap) * abs(diag.r[k, 1]), abs=1e-8
            )


class TestReconstruction:
    def test_static_case_recovers_unit_modulus(self, static_run):
        diag = static_run.pipeline.diagnostics
        assert np.nanmax(diag.cn_residual) <= 1e-10
        assert np.max(np.abs(np.abs(diag.c[:, 0]) - 1.0)) <= 1e-10

    def test_matches_direct_amplitude(self, slow_run, fast_run):
        for run in (slow_run, fast_run):
            assert np.nanmax(run.pipeline.diagnostics.cn_residual) <= 1e-7

    def test_zero_energy_undefined(self, zero_energy_run):
        assert np.all(np.isnan(zero_energy_run.pipeline.diagnostics.cn_residual))

    def test_zero_energy_check_left_out(self, zero_energy_run):
        report = zero_energy_run.report
        assert "cn_reconstruction" not in report.checks
        assert report.summary["max_cn_reconstruction_residual"] is None
        assert report.passed
        assert report.first_failure() is None


class TestStillnessConsequence:
    def test_static_run_bound(self, static_run):
        # max ||Ḋ|| <= eps forces ||D|| and off-level |c| under 10 eps t_span
        diag = static_run.pipeline.diagnostics
        eps = np.max(diag.ddot_norm)
        span = diag.times[-1] - diag.times[0]
        assert np.max(diag.d_norm) <= 10.0 * eps * span
        assert np.max(np.abs(diag.c[:, 1])) <= 10.0 * eps * span

    def test_near_static_drive_bound(self):
        p = SchwingerParams(1.0, 1e-4, math.pi / 2)
        model = schwinger_model(p)
        grid = TimeGrid(0.0, 10.0, 2000)
        path = track(model, grid, gauge="analytic")
        traj = evolve(model, path.eigenvectors[0, :, 0], grid)
        diag = run_diagnostics(traj, path, 0)
        eps = np.max(diag.ddot_norm)
        span = grid.t_end - grid.t_start
        assert 10.0 * eps * span < 2.0  # the bound is not vacuous here
        assert np.max(diag.d_norm) <= 10.0 * eps * span
        assert np.max(np.abs(diag.c[:, 1])) <= 10.0 * eps * span


class TestDriverSurface:
    def test_four_level_pipeline(self):
        from adiab.models import random_smooth_model

        model = random_smooth_model(4, seed=5)
        pipe = run_pipeline(model, TimeGrid(0.0, 2.0, 400), n=0)
        diag = pipe.diagnostics
        assert diag.dim == 4
        assert np.nanmax(diag.residual) <= 1e-7
        assert np.max(diag.lam) <= 1e-7
        assert np.max(diag.probability_defect) <= 1e-8
        # the tracked column carries the not-applicable marker, and only it
        for off_level in (diag.q, diag.r, diag.qac):
            assert np.all(np.isnan(off_level[:, 0]))
            assert not np.any(np.isnan(off_level[:, 1:]))
        assert diag.criteria_ratios.shape == (401, 4, 3)

    def test_pipeline_evaluates_h_once_per_sample_and_midpoint(self):
        base = schwinger_model(SLOW)
        calls = []

        def hamiltonian(t):
            calls.append(t)
            return base.hamiltonian(t)

        grid = TimeGrid(0.0, 3.0, 60)
        run_pipeline(custom_model(hamiltonian, base.derivative, dim=2), grid, n=0)
        # track reads every sample, evolve every midpoint; diagnostics reuse the path's stack
        assert len(calls) == (grid.steps + 1) + grid.steps

    def test_pipeline_calls_each_model_callable_once_per_stack(self):
        base = schwinger_model(SLOW)
        calls = {}

        def counted(name):
            def f(t):
                calls[name] = calls.get(name, 0) + 1
                return getattr(base, name)(t)

            return f

        names = ("hamiltonian", "derivative", "analytic_eigensystem")
        model = Model(dim=2, **{n: counted(n) for n in names})
        pipe = run_pipeline(model, TimeGrid(0.0, 3.0, 60), n=0, gauge="analytic")
        _perturbation_residual(model, pipe.path)
        # samples and midpoints; the closed forms and Hdot each over one stack
        assert calls == {"hamiltonian": 2, "analytic_eigensystem": 1, "derivative": 1}

    def test_requires_states(self, slow_run):
        from adiab.propagate import Trajectory

        pipe = slow_run.pipeline
        with pytest.raises(ValueError, match="states"):
            run_diagnostics(Trajectory(grid=pipe.grid), pipe.path, 0)

    def test_level_range_checked(self, slow_run):
        pipe = slow_run.pipeline
        with pytest.raises(ValueError, match="level"):
            run_diagnostics(pipe.trajectory, pipe.path, 5)
