import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import adiab.diagnostics
import adiab.runner
import oracles
from oracles import max_abs
from adiab.diagnostics import run_diagnostics
from adiab.models import (
    Model,
    SchwingerParams,
    custom_model,
    random_smooth_model,
    schwinger_hamiltonian,
    schwinger_hamiltonian_derivative,
    schwinger_model,
)
from adiab.propagate import TimeGrid, evolve
from adiab.runner import (
    RunResult,
    _build_report,
    _criteria_fractions,
    _perturbation_residual,
    _unitarity_drift,
    run_pipeline,
    run_scenario,
)
from adiab.scenario import Scenario, parse_scenario
from adiab.tracking import track

SLOW = SchwingerParams(1.0, 0.1, math.pi / 2)
FAST = SchwingerParams(1.0, 10.0, 0.1)
SHIPPED_PAIR = Path(__file__).resolve().parent.parent / "scenarios" / "marzlin_sanders.json"


def difference_vectors(pipe):
    """D = psi - e^{i beta_0}|E_0>, formed from the public fields of a level-0 run."""
    phase = np.exp(1j * pipe.diagnostics.beta)[:, np.newaxis]
    return pipe.trajectory.states - phase * pipe.path.eigenvectors[:, :, 0]


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
        # beta starts at zero, so D(0) = psi(0) - E_n(0) vanishes; ||D|| is d_norm
        pipe = slow_run.pipeline
        d = difference_vectors(pipe)
        assert pipe.diagnostics.beta[0] == 0.0
        assert max_abs(d[0]) <= 1e-15
        assert max_abs(np.linalg.norm(d, axis=1) - pipe.diagnostics.d_norm) <= 1e-15

    def test_static_case_is_stationary_phase(self, static_run):
        pipe = static_run.pipeline
        diag = pipe.diagnostics
        k = 321
        e_n = pipe.path.eigenvalues[k, 0]
        expected = np.exp(-1j * e_n * diag.times[k]) * pipe.path.eigenvectors[k, :, 0]
        adi = pipe.trajectory.states[k] - difference_vectors(pipe)[k]
        assert max_abs(adi - expected) <= 1e-12

    def test_slow_drive_fidelity_stays_high(self, slow_run):
        diag = slow_run.pipeline.diagnostics
        assert np.min(np.abs(diag.c[:, diag.level])) >= 0.99


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

    def test_matches_finite_difference_of_d(self, slow_run, fast_run):
        # a central difference of D, fed through the definitions of R_1, ||Ḋ|| and
        # lambda, against the values the library forms from the composed Ḋ
        for run in (slow_run, fast_run):
            pipe = run.pipeline
            diag = pipe.diagnostics
            d = difference_vectors(pipe)
            ddot = (d[2:] - d[:-2]) / (2.0 * pipe.path.grid.h)
            d, v, w = d[1:-1], pipe.path.eigenvectors[1:-1], pipe.path.eigenvalues[1:-1]
            proj_d = np.einsum("kjm,kj->km", v.conj(), d)
            proj_ddot = np.einsum("kjm,kj->km", v.conj(), ddot)
            r = (-w[:, 0] * proj_d[:, 1] + 1j * proj_ddot[:, 1]) / (w[:, 1] - w[:, 0])
            lam = np.abs(proj_ddot[:, 0] + 1j * w[:, 0] * proj_d[:, 0])
            assert np.max(np.abs(r - diag.r[1:-1, 1])) <= 1e-5
            assert np.max(np.abs(np.linalg.norm(ddot, axis=1) - diag.ddot_norm[1:-1])) <= 1e-5
            assert np.max(np.abs(lam - diag.lam[1:-1])) <= 1e-5

    def test_tracked_level_projection_identity(self, slow_run, fast_run):
        for run in (slow_run, fast_run):
            assert np.max(run.pipeline.diagnostics.lam) <= 1e-7


def plain_norms(x):
    # the squares alone, as np.linalg.norm takes them, overflow and all
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(np.add.reduce((x.conj() * x).real, axis=1))


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dim", [2, 3])
def test_fused_norms_equal_each_column_alone(order, dim):
    rng = np.random.default_rng(dim)
    x = np.asarray(rng.normal(size=(300, dim, 5)) + 1j * rng.normal(size=(300, dim, 5)), order=order)
    norms = adiab.diagnostics._row_norms(x)
    assert norms.shape == (300, 5)
    for i in range(5):
        column = np.ascontiguousarray(x[:, :, i]) if order == "C" else np.asfortranarray(x[:, :, i])
        assert np.array_equal(bits(norms[:, i]), bits(np.linalg.norm(column, axis=1)))


def test_fused_norms_redo_only_the_overflowing_column():
    # one column at 1e200: its squares overflow, so only its norms are taken
    # again by hypot; the other four keep the plain bits
    rng = np.random.default_rng(7)
    x = np.asfortranarray(rng.normal(size=(251, 2, 5)) + 1j * rng.normal(size=(251, 2, 5)))
    x[:, :, 3] *= 1e200
    plain = plain_norms(x)
    assert np.isinf(plain[:, 3]).all() and np.isfinite(np.delete(plain, 3, axis=1)).all()
    norms = adiab.diagnostics._row_norms(x)
    assert np.array_equal(bits(np.delete(norms, 3, axis=1)), bits(np.delete(plain, 3, axis=1)))
    oracle = 1e200 * np.linalg.norm(x[:, :, 3] / 1e200, axis=1)
    assert max_abs(norms[:, 3] / oracle - 1.0) <= 1e-15  # a few ulps
    # a non-finite entry stays non-finite, in its own norm only
    x[5, 1, 0] = np.nan
    x[9, 0, 2] = np.inf
    norms = adiab.diagnostics._row_norms(x)
    assert np.isnan(norms[5, 0]) and np.isinf(norms[9, 2])
    assert np.isfinite(np.delete(norms[5], 0)).all() and np.isfinite(np.delete(norms[9], 2)).all()


@pytest.mark.parametrize("steps", [200, 600])
def test_fused_projections(steps):
    # one product V† [psi D Ḋ Ė_n]: the einsum form at most 256 samples is the
    # former per-vector einsum bit for bit; the broadcast form above moves a few ulps
    pipe = run_pipeline(schwinger_model(SLOW), TimeGrid(0.0, steps * 0.01, steps), 0)
    diag, path = pipe.diagnostics, pipe.path
    v = path.eigenvectors
    c = np.einsum("kjm,kj->km", v.conj(), pipe.trajectory.states)
    coupling = np.einsum("kjm,kj->km", v.conj(), path.derivatives[:, :, 0])
    gap = path.eigenvalues - path.eigenvalues[:, :1]
    qac = np.abs(coupling[:, 1]) / np.abs(gap[:, 1])
    if steps + 1 <= 256:
        assert np.array_equal(bits(diag.c), bits(c))
        assert np.array_equal(bits(diag.qac[:, 1]), bits(qac))
    else:
        assert max_abs(diag.c - c) <= 2e-15
        assert max_abs(diag.qac[:, 1] - qac) <= 1e-14
    # the d = 2 probability sum from planes is einsum's sum from zero
    total = np.einsum("km->k", np.abs(diag.c) ** 2)
    assert np.array_equal(bits(diag.probability_defect), bits(np.abs(total - 1.0)))
    for name in ("c", "q", "r", "qac", "residual"):  # time-contiguous at d = 2
        assert getattr(diag, name).strides[0] == getattr(diag, name).itemsize, name


@pytest.mark.parametrize("omega0", [1e155, 1e300])
def test_huge_static_field_norms_are_finite(omega0):
    # Past entries of about 1.3e154 the squares in ||Ḋ|| and ||i Ḋ - E_n D||
    # overflow. For a static field Ė_n = 0 and beta_dot = -E_n, so in the
    # eigenbasis Ḋ = -i (E_m (c_m - δ_mn e^{i beta}))_m and
    # i Ḋ - E_n D = ((E_m - E_n) c_m)_m; the oracle takes both norms of the
    # entries divided by omega0, then scales back.
    p = SchwingerParams(omega0, 0.0, math.pi / 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pipe = run_pipeline(schwinger_model(p), TimeGrid(0.0, 2.0, 50), 0)
    diag = pipe.diagnostics
    w = pipe.path.eigenvalues / omega0
    gaps = diag.c.copy()
    gaps[:, 0] -= np.exp(1j * diag.beta)
    for value in (diag.d_norm, diag.ddot_norm, diag.equivalence):
        assert np.isfinite(value).all()
    assert np.max(diag.ddot_norm) > 1e154  # the plain squares would overflow
    assert max_abs(diag.d_norm - np.linalg.norm(gaps, axis=1)) <= 1e-12
    assert max_abs(diag.ddot_norm - omega0 * np.linalg.norm(w * gaps, axis=1)) <= 1e-12 * omega0
    equivalence = omega0 * np.linalg.norm((w - w[:, :1]) * diag.c, axis=1)
    assert max_abs(diag.equivalence - equivalence) <= 1e-12 * omega0


def _gauge_free(diag) -> dict:
    return {
        "|c|": np.abs(diag.c), "|Q|": np.abs(diag.q), "|R|": np.abs(diag.r), "qac": diag.qac,
        "residual": diag.residual, "||D||": diag.d_norm, "lambda": diag.lam,
    }


@pytest.mark.parametrize("dim", [3, 8])
def test_split_invariant_under_frame_change_and_shift(dim):
    # No closed form above d = 2: a constant frame change H → W H W† and a shift
    # H → H + a·1 must leave every gauge-free magnitude alone, in transport gauge.
    # The bound is 50x the worst move, 2.0e-12, that ROADMAP's baseline records.
    model = random_smooth_model(dim, seed=3)
    grid = TimeGrid(0.0, 0.004 * 200, 200)
    rng = np.random.default_rng(11)
    w, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    for n in (0, dim - 1):
        base = _gauge_free(run_pipeline(model, grid, n).diagnostics)
        for transformed in (oracles.frame_changed(model, w), oracles.shifted(model, 3.7)):
            moved = _gauge_free(run_pipeline(transformed, grid, n).diagnostics)
            for name, values in base.items():
                assert np.array_equal(np.isnan(values), np.isnan(moved[name])), (n, name)
                assert np.nanmax(np.abs(values - moved[name])) <= 1e-10, (n, name)


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
        assert np.all(diag.criteria_ratios < static_run.scenario.thresholds.margin)

    def test_conjunction_implies_combined(self, slow_run, fast_run, static_run):
        # ratio_c <= ratio_a + ratio_b, so (a) and (b) below 0.1 puts (c) below 0.2
        for run in (slow_run, fast_run, static_run):
            ratios = run.pipeline.diagnostics.criteria_ratios
            both = (ratios[:, 0] < 0.1) & (ratios[:, 1] < 0.1)
            assert np.all(ratios[both, 2] < 0.2)

    def test_fast_drive_combined_criterion_fails_while_adiabatic(self, fast_run):
        diag = fast_run.pipeline.diagnostics
        ratios_c = diag.criteria_ratios[:, 2]
        assert np.any(ratios_c >= 0.1)
        assert np.max(np.abs(diag.c[:, 1])) <= 0.12
        assert fast_run.report.summary["criteria_true_fraction"]["c"] < 1.0

    def test_zero_tracked_energy_reported_undefined(self, zero_energy_run):
        ratios = zero_energy_run.pipeline.diagnostics.criteria_ratios
        assert np.all(np.isnan(ratios[:, 0]))
        assert np.all(np.isfinite(ratios[:, 1:]))
        margin = zero_energy_run.scenario.thresholds.margin
        assert np.all(ratios[:, 1] < margin)
        fractions = _criteria_fractions(ratios, margin)
        assert fractions["a"] is None
        assert fractions["b"] == 1.0


class TestEquivalence:
    def test_static_case_vanishes(self, static_run):
        assert np.max(static_run.pipeline.diagnostics.equivalence) <= 1e-10

    def test_positive_whenever_correction_is(self, slow_run):
        diag = slow_run.pipeline.diagnostics
        big_r = np.abs(diag.r[:, 1]) > 1e-6
        assert np.any(big_r)
        assert np.all(diag.equivalence[big_r] > 0.0)

    def test_projection_consistency(self, slow_run, fast_run):
        # |<E_m|(i Ḋ - E_n D)>| = |E_m - E_n| |R_m| off the tracked level and
        # lambda on it, so ||i Ḋ - E_n D||^2 = |E_1 - E_0|^2 |R_1|^2 + lambda^2
        for run in (slow_run, fast_run):
            pipe = run.pipeline
            diag = pipe.diagnostics
            gap = pipe.path.eigenvalues[:, 1] - pipe.path.eigenvalues[:, 0]
            expected = np.hypot(np.abs(gap) * np.abs(diag.r[:, 1]), diag.lam)
            assert np.max(np.abs(diag.equivalence - expected)) <= 1e-8


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
        diag = run_diagnostics(traj.states, path, 0)
        eps = np.max(diag.ddot_norm)
        span = grid.t_end - grid.t_start
        assert 10.0 * eps * span < 2.0  # the bound is not vacuous here
        assert np.max(diag.d_norm) <= 10.0 * eps * span
        assert np.max(np.abs(diag.c[:, 1])) <= 10.0 * eps * span


class TestDriverSurface:
    def test_four_level_pipeline(self):
        model = random_smooth_model(4, seed=5)
        for n in (0, 1, 3):
            pipe = run_pipeline(model, TimeGrid(0.0, 2.0, 400), n=n)
            diag = pipe.diagnostics
            assert diag.dim == 4
            assert np.nanmax(diag.residual) <= 1e-7
            assert np.max(diag.lam) <= 1e-7
            assert np.max(diag.probability_defect) <= 1e-8
            # the tracked column carries the not-applicable marker, and only it
            tracked = np.arange(4) == n
            for off_level in (diag.q, diag.r, diag.qac, diag.residual):
                assert np.array_equal(np.isnan(off_level), np.broadcast_to(tracked, off_level.shape))
            # each criterion over every off-level gap; the stored ratio is the worst level
            w = pipe.path.eigenvalues
            e_n = w[:, n]
            gaps = np.abs(np.delete(w, n, axis=1) - e_n[:, np.newaxis])
            norms = np.stack([diag.d_norm * np.abs(e_n), diag.ddot_norm, diag.equivalence], axis=1)
            per_level = norms[:, np.newaxis, :] / gaps[:, :, np.newaxis]
            assert diag.criteria_ratios.shape == (401, 3)
            assert np.array_equal(diag.criteria_ratios, np.max(per_level, axis=1))
            # a criterion holds at a sample when it holds on every off level
            for margin in (0.05, 1.0):
                holds = np.all(per_level < margin, axis=1)
                expected = {key: float(np.mean(holds[:, i])) for i, key in enumerate("abc")}
                assert _criteria_fractions(diag.criteria_ratios, margin) == expected
                if margin == 0.05:
                    assert any(0.0 < f < 1.0 for f in expected.values())

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

    def test_level_range_checked(self, slow_run):
        pipe = slow_run.pipeline
        with pytest.raises(ValueError, match="level"):
            run_diagnostics(pipe.trajectory.states, pipe.path, 5)

    @pytest.mark.parametrize("n", [3, -1])
    def test_pipeline_rejects_level_before_any_work(self, monkeypatch, n):
        def no_track(*args, **kwargs):
            raise AssertionError("the path was tracked")

        monkeypatch.setattr(adiab.runner, "track", no_track)
        model = random_smooth_model(3, seed=1)
        with pytest.raises(ValueError, match=f"tracked level {n} out of range for dim 3"):
            run_pipeline(model, TimeGrid(0.0, 1.0, 20), n)


def _dense_pipeline():
    return run_pipeline(random_smooth_model(16, seed=3), TimeGrid(0.0, 0.2, 50), n=0)


def _shipped_pair_pipeline():
    # system B of the shipped pair over its first 200 steps, at the shipped step
    doc = dict(json.loads(SHIPPED_PAIR.read_text()), steps=200, t_end=0.2)
    return run_scenario(parse_scenario(json.dumps(doc))).pipeline


def _panel_pipeline():
    # the fast_theta_pi2 panel over its first 1000 steps: the dim-2 closed form
    return run_pipeline(schwinger_model(SchwingerParams(1.0, 10.0, math.pi / 2)), TimeGrid(0.0, 0.1, 1000), 0)


@pytest.mark.parametrize(
    "make",
    [_dense_pipeline, _shipped_pair_pipeline, _panel_pipeline],
    ids=["dim16", "pair", "panel"],
)
def test_report_checks_match_their_einsum_forms(make):
    pipe = make()
    residual = _perturbation_residual(pipe.model, pipe.path)
    assert abs(residual - oracles.perturbation_residual(pipe.model, pipe.path)) <= 1e-12
    drift = _unitarity_drift(pipe.trajectory)
    assert abs(drift - oracles.unitarity_drift(pipe.trajectory.propagators)) <= 1e-12


def test_results_do_not_depend_on_layout():
    # A vectorised Model may return C-order stacks, as np.ascontiguousarray or a
    # user's np.array gives them; schwinger_model's stacks are time-contiguous.
    # One panel run both ways must agree.
    p = SchwingerParams(1.0, 10.0, math.pi / 4)
    grid = TimeGrid(0.0, 4.0, 1000)
    wrapped = Model(
        dim=2,
        hamiltonian=lambda t: np.ascontiguousarray(schwinger_hamiltonian(p, t)),
        derivative=lambda t: np.ascontiguousarray(schwinger_hamiltonian_derivative(p, t)),
    )
    c_order = run_pipeline(wrapped, grid, 0)
    time_contiguous = run_pipeline(schwinger_model(p), grid, 0)
    assert c_order.path.hamiltonians.flags.c_contiguous
    assert time_contiguous.path.hamiltonians.strides[0] == time_contiguous.path.hamiltonians.itemsize
    np.testing.assert_allclose(
        c_order.trajectory.states, time_contiguous.trajectory.states, rtol=0, atol=1e-12
    )
    for field in dataclasses.fields(c_order.diagnostics):
        expected = getattr(time_contiguous.diagnostics, field.name)
        actual = getattr(c_order.diagnostics, field.name)
        np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12, err_msg=field.name)
