"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s`` or in
captured output on failure) and then asserts, so the suite both documents
and enforces the gate.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import math

import numpy as np

import oracles
from adiab.diagnostics import run_diagnostics
from adiab.models import Model, SchwingerParams, random_smooth_model, schwinger_model
from adiab.propagate import TimeGrid, evolve
from adiab.runner import emit_csv, run_pipeline, run_scenario
from adiab.scenario import Scenario
from adiab.tracking import analytic_path, qac_ratios, rotate_gauge, track

SLOW = SchwingerParams(1.0, 0.1, math.pi / 2)
FAST = SchwingerParams(1.0, 10.0, 0.1)


def _line(cid: str, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {cid} {name}: {detail}")


def _check(cid: str, name: str, ok: bool, detail: str) -> None:
    _line(cid, name, ok, detail)
    assert ok, f"{cid} {name}: {detail}"


PANEL_PARAMS = {
    ("slow", "0.1"): SchwingerParams(1.0, 0.1, 0.1),
    ("slow", "pi4"): SchwingerParams(1.0, 0.1, math.pi / 4),
    ("slow", "pi2"): SLOW,
    ("fast", "0.1"): FAST,
    ("fast", "pi4"): SchwingerParams(1.0, 10.0, math.pi / 4),
    ("fast", "pi2"): SchwingerParams(1.0, 10.0, math.pi / 2),
}


def test_criterion_1_exact_decomposition(panel_runs):
    worst_numerical = 0.0
    worst_analytic = 0.0
    for key, params in PANEL_PARAMS.items():
        run = panel_runs[key]
        worst_numerical = max(worst_numerical, float(np.nanmax(run.pipeline.diagnostics.residual)))
        analytic = oracles.analytic_diagnostics(params, t_end=10.0, steps=1000)
        worst_analytic = max(worst_analytic, float(np.nanmax(analytic.residual)))
    ok = worst_numerical <= 1e-7 and worst_analytic <= 1e-10
    _check(
        "C1",
        "exact decomposition c2 = Q2 + R2",
        ok,
        f"numerical max |c2-Q2-R2| = {worst_numerical:.3e} (tol 1e-7), "
        f"closed-form-input max = {worst_analytic:.3e} (tol 1e-10)",
    )


def test_criterion_2_analytic_oracle_propagation_and_order():
    model = schwinger_model(SLOW)
    errors = {}
    for steps in (40000, 80000):  # 1000 steps per unit time, then halved h
        grid = TimeGrid(0.0, 40.0, steps)
        _, v0 = model.analytic_eigensystem(0.0)
        traj = evolve(model, v0[:, 0], grid)
        path = analytic_path(model, grid)
        c = np.einsum("kji,kj->ki", path.eigenvectors.conj(), traj.states)
        c1, c2 = oracles.amplitudes(SLOW, grid.samples)
        errors[steps] = max(
            float(np.max(np.abs(c[:, 0] - c1))), float(np.max(np.abs(c[:, 1] - c2)))
        )
    # the same comparison through the tracked (numerical) frames
    grid = TimeGrid(0.0, 40.0, 40000)
    tracked = track(model, grid, gauge="analytic")
    traj = evolve(model, tracked.eigenvectors[0, :, 0], grid)
    c_tracked = np.einsum("kji,kj->ki", tracked.eigenvectors.conj(), traj.states)
    c1, c2 = oracles.amplitudes(SLOW, grid.samples)
    tracked_err = max(
        float(np.max(np.abs(c_tracked[:, 0] - c1))), float(np.max(np.abs(c_tracked[:, 1] - c2)))
    )
    ratio = errors[40000] / errors[80000]
    ok = errors[40000] <= 1e-6 and tracked_err <= 1e-6 and 3.5 <= ratio <= 4.5
    _check(
        "C2",
        "closed-form propagation oracle",
        ok,
        f"max |c - closed form| = {errors[40000]:.3e} (tol 1e-6, tracked frames "
        f"{tracked_err:.3e}), halving h scales error by {ratio:.3f} (window [3.5, 4.5])",
    )


def test_criterion_3_fast_drive_regime(fast_run):
    report = fast_run.report
    max_c2 = report.summary["max_abs_c"]["2"]
    ratio = report.summary["max_qac"]["2"]
    holds = report.regime["adiabatic_approximation_holds"]
    violated = report.regime["qac_violated"]
    ok = abs(max_c2 - 0.11086) <= 1e-3 and abs(ratio - 0.49917) <= 1e-4 and holds and violated
    _check(
        "C3",
        "fast drive: coupling ratio large, amplitudes small",
        ok,
        f"max |c2| = {max_c2:.5f} (0.11086 +/- 1e-3), ratio = {ratio:.5f} "
        f"(0.49917 +/- 1e-4), report flags: adiabatic holds = "
        f"{holds}, ratio condition violated = {violated}",
    )


def test_criterion_4_slow_drive_regime(slow_run):
    report = slow_run.report
    max_c2 = report.summary["max_abs_c"]["2"]
    max_q2 = report.summary["max_abs_q"]["2"]
    ok = abs(max_c2 - 0.09950) <= 1e-3 and abs(max_q2 - 0.05) <= 1e-4
    _check(
        "C4",
        "slow drive amplitudes",
        ok,
        f"max |c2| = {max_c2:.5f} (0.09950 +/- 1e-3), max |Q2| = {max_q2:.6f} (0.05 +/- 1e-4)",
    )


def test_criterion_5_tracked_level_projection_identity(panel_runs):
    worst = max(float(np.max(run.pipeline.diagnostics.lam)) for run in panel_runs.values())
    ok = worst <= 1e-7
    _check(
        "C5",
        "tracked-level projection identity",
        ok,
        f"max |<E1|Ddot> + i E1 <E1|D>| = {worst:.3e} (tol 1e-7)",
    )


def _perturbation_identity_residual(model: Model, path) -> float:
    v = path.eigenvectors[1:-1]
    dv = path.derivatives[1:-1]
    w = path.eigenvalues[1:-1]
    hdots = model.derivative(path.times[1:-1])
    mats = np.einsum("kjm,kjl,kli->kmi", v.conj(), hdots, v)
    couplings = np.einsum("kjm,kji->kmi", v.conj(), dv)
    gaps = w[:, :, np.newaxis] - w[:, np.newaxis, :]
    off = ~np.eye(path.dim, dtype=bool)
    return float(np.max(np.abs(mats[:, off] / gaps[:, off] + couplings[:, off])))


def test_criterion_6_coupling_identity_both_models(slow_run):
    schwinger_residual = slow_run.report.summary["max_perturbation_residual"]
    random_model = random_smooth_model(4, seed=42)
    path = track(random_model, TimeGrid(0.0, 6.0, 3000))
    random_residual = _perturbation_identity_residual(random_model, path)
    ok = schwinger_residual <= 1e-6 and random_residual <= 1e-6
    _check(
        "C6",
        "matrix-element/derivative coupling identity",
        ok,
        f"rotating field max = {schwinger_residual:.3e}, seeded 4x4 max = "
        f"{random_residual:.3e} (tol 1e-6)",
    )


def test_criterion_7_transformed_pair(ms_run):
    ms = ms_run.report.marzlin_sanders
    ok = (
        ms["max_inverse_residual"] <= 1e-6
        and ms["min_fidelity_system_b"] < 0.9
        and ms["min_fidelity_system_a"] > 0.99
    )
    _check(
        "C7",
        "transformed companion system",
        ok,
        f"max |U_B U_A - 1| = {ms['max_inverse_residual']:.3e} (tol 1e-6), "
        f"min fidelity B = {ms['min_fidelity_system_b']:.4f} (< 0.9), "
        f"min fidelity A = {ms['min_fidelity_system_a']:.4f} (> 0.99)",
    )


def _magnitude_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(np.abs(a) - np.abs(b))))


def _shifted_model(params: SchwingerParams, shift, shift_rate) -> Model:
    base = schwinger_model(params)
    eye = np.eye(2, dtype=complex)
    return Model(
        dim=2,
        hamiltonian=lambda t: base.hamiltonian(t) + np.asarray(shift(t))[..., None, None] * eye,
        derivative=lambda t: base.derivative(t) + np.asarray(shift_rate(t))[..., None, None] * eye,
    )


def test_criterion_8a_energy_shift_invariance():
    params = SchwingerParams(1.0, 0.1, math.pi / 4)
    grid = TimeGrid(0.0, 20.0, 2000)
    base = run_pipeline(schwinger_model(params), grid, 0)
    worst = 0.0
    for shift, rate in [
        (lambda t: 0.37, lambda t: 0.0),
        (lambda t: 0.25 + 0.05 * t, lambda t: 0.05),
    ]:
        shifted = run_pipeline(_shifted_model(params, shift, rate), grid, 0)
        a, b = base.diagnostics, shifted.diagnostics
        worst = max(
            worst,
            _magnitude_gap(a.c, b.c),
            _magnitude_gap(a.q[:, 1], b.q[:, 1]),
            _magnitude_gap(a.r[:, 1], b.r[:, 1]),
            float(np.max(np.abs(a.residual[:, 1] - b.residual[:, 1]))),
        )
    ok = worst <= 1e-8
    _check(
        "C8a",
        "global energy shift leaves magnitudes alone",
        ok,
        f"max change in |c|, |Q|, |R|, residual = {worst:.3e} (tol 1e-8)",
    )


def test_criterion_8b_gauge_rotation_invariance():
    params = SchwingerParams(1.0, 0.1, math.pi / 4)
    grid = TimeGrid(0.0, 10.0, 4000)
    model = schwinger_model(params)
    base = run_pipeline(model, grid, 0)
    rng = np.random.default_rng(3)
    amps = rng.uniform(0.005, 0.02, size=2)
    freqs = rng.uniform(0.1, 0.25, size=2)
    rel = base.path.times - base.path.times[0]
    phases = np.stack([a * np.sin(f * rel) for a, f in zip(amps, freqs)], axis=1)
    rotated_path = rotate_gauge(base.path, phases)
    rotated = run_diagnostics(base.trajectory, rotated_path, 0)
    a, b = base.diagnostics, rotated
    worst = max(
        _magnitude_gap(a.c, b.c),
        _magnitude_gap(a.q[:, 1], b.q[:, 1]),
        _magnitude_gap(a.r[:, 1], b.r[:, 1]),
        float(np.max(np.abs(a.d_norm - b.d_norm))),
        float(np.max(np.abs(a.residual[:, 1] - b.residual[:, 1]))),
    )
    qac_gap = float(
        np.max(np.abs(qac_ratios(base.path, 0)[:, 1] - qac_ratios(rotated_path, 0)[:, 1]))
    )
    ok = worst <= 1e-8 and qac_gap <= 1e-9
    _check(
        "C8b",
        "smooth gauge rotation leaves magnitudes alone",
        ok,
        f"max change in |c|, |Q|, |R|, ||D||, residual = {worst:.3e} (tol 1e-8); "
        f"coupling-ratio change = {qac_gap:.3e} (tol 1e-9)",
    )


def test_criterion_8c_static_scenario_exact(static_run):
    diag = static_run.pipeline.diagnostics
    worst_residual = max(
        float(np.nanmax(diag.residual)),
        float(np.max(diag.lam)),
        float(np.max(diag.equivalence)),
        float(np.nanmax(diag.cn_residual)),
        static_run.report.summary["max_unitarity_drift"],
        static_run.report.summary["max_norm_error"],
    )
    d_max = float(np.max(diag.d_norm))
    flags = diag.criteria_flags(static_run.scenario.thresholds.margin)
    all_true = bool(np.all(flags[:, 1, :]))
    ok = worst_residual <= 1e-10 and d_max <= 1e-10 and all_true
    _check(
        "C8c",
        "static drive is exact",
        ok,
        f"worst residual = {worst_residual:.3e} (tol 1e-10), max ||D|| = {d_max:.3e}, "
        f"all smallness criteria true = {all_true}",
    )


def test_criterion_8d_determinism(tmp_path):
    scenario = Scenario(
        name="det",
        model_kind="schwinger",
        params=SLOW,
        t_start=0.0,
        t_end=5.0,
        steps=500,
        level=1,
        gauge="analytic-reference",
    )
    first = emit_csv(run_scenario(scenario), tmp_path / "first.csv").read_bytes()
    second = emit_csv(run_scenario(scenario), tmp_path / "second.csv").read_bytes()
    ok = first == second
    _check(
        "C8d",
        "byte-identical reruns",
        ok,
        f"CSV files identical = {ok} ({len(first)} bytes)",
    )
