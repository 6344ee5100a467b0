import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import max_abs
import adiab.linalg
import adiab.propagate
import adiab.runner
import adiab.tracking
from adiab.diagnostics import run_diagnostics
from adiab.linalg import stack_matmul
from adiab.models import (
    Model,
    SchwingerParams,
    custom_model,
    random_smooth_model,
    schwinger_model,
    transformed_hamiltonian,
)
from adiab.propagate import (
    TimeGrid,
    _accumulate,
    evolve,
    marzlin_sanders_model,
)
from adiab.runner import run_pipeline, run_scenario
from adiab.scenario import parse_scenario
from adiab.tracking import track

SHIPPED_PAIR = Path(__file__).resolve().parent.parent / "scenarios" / "marzlin_sanders.json"

SLOW = SchwingerParams(1.0, 0.1, math.pi / 2)


def static_model(diag=(-0.5, 0.5)):
    h = np.diag(diag).astype(complex)
    return custom_model(lambda t: h, lambda t: np.zeros_like(h), dim=len(diag))


class TestTimeGrid:
    def test_samples_inclusive_and_uniform(self):
        grid = TimeGrid(0.0, 1.0, 4)
        assert np.allclose(grid.samples, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0)
        assert grid.h == 0.25

    def test_samples_formed_once_and_read_only(self):
        grid = TimeGrid(-1.0, 2.0, 7)
        assert grid.samples is grid.samples
        assert np.array_equal(grid.samples, np.linspace(-1.0, 2.0, 8))
        with pytest.raises(ValueError, match="read-only"):
            grid.samples[3] = 0.0

    @pytest.mark.parametrize(
        "args",
        [
            (0.0, 12.0, 250),
            (0.0, 12.0, 500),
            (0.0, 40.0, 40000),
            (-3.7, 2.2, 977),
            (-5.0, -1.0, 3),
            (1e3, 1e3 + 1.0, 12345),
        ],
    )
    def test_samples_bit_for_bit_linspace(self, args):
        assert np.array_equal(TimeGrid(*args).samples, np.linspace(args[0], args[1], args[2] + 1))

    def test_refined(self):
        grid = TimeGrid(0.0, 2.0, 10).refined()
        assert grid.steps == 20
        assert grid.h == pytest.approx(0.1)

    @pytest.mark.parametrize(
        "args",
        [
            (0.0, 1.0, 0),
            (0.0, 1.0, -3),
            (1.0, 1.0, 5),
            (2.0, 1.0, 5),
            (0.0, math.inf, 5),
            (-1e308, 1e308, 10),  # h overflows to inf
            (0.0, 1e-320, 10),  # subnormal h
            (1e16, 1e16 + 2.0, 10),  # h below the float spacing of the endpoints
        ],
    )
    def test_invalid_rejected(self, args):
        with pytest.raises(ValueError):
            TimeGrid(*args)

    def test_numpy_integers_accepted_as_plain_int(self):
        grid = TimeGrid(0.0, 1.0, np.int64(10))
        assert grid.steps == 10 and type(grid.steps) is int

    def test_booleans_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            TimeGrid(0.0, 1.0, True)


class TestEvolve:
    def test_stationary_eigenstate_acquires_pure_phase(self):
        model = static_model()
        grid = TimeGrid(0.0, 5.0, 500)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        traj = evolve(model, psi0, grid)
        expected = np.exp(0.5j * grid.samples)  # energy -1/2 on the first level
        assert max_abs(traj.states[:, 0] - expected) < 1e-12
        assert max_abs(traj.states[:, 1]) == 0.0

    def test_slow_drive_matches_closed_forms(self, slow_run):
        diag = slow_run.pipeline.diagnostics
        c1, c2 = oracles.amplitudes(SLOW, diag.times)
        assert np.max(np.abs(diag.c[:, 0] - c1)) <= 1e-6
        assert np.max(np.abs(diag.c[:, 1] - c2)) <= 1e-6

    def test_norm_conserved_without_rescaling(self, slow_run):
        states = slow_run.pipeline.trajectory.states
        norms = np.linalg.norm(states, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-10

    def test_rejects_unnormalized_state(self):
        model = static_model()
        with pytest.raises(ValueError, match="normalized"):
            evolve(model, np.array([1.0, 1.0], dtype=complex), TimeGrid(0.0, 1.0, 10))

    def test_rejects_dimension_mismatch(self):
        model = static_model()
        with pytest.raises(ValueError, match="dimension"):
            evolve(model, np.array([1.0, 0.0, 0.0], dtype=complex), TimeGrid(0.0, 1.0, 10))

    def test_composition_of_half_spans(self):
        model = schwinger_model(SLOW)
        full = evolve(model, _ground(model), TimeGrid(0.0, 8.0, 800))
        first = evolve(model, _ground(model), TimeGrid(0.0, 4.0, 400))
        second = evolve(model, first.states[-1] / np.linalg.norm(first.states[-1]),
                        TimeGrid(4.0, 8.0, 400))
        assert max_abs(full.states[-1] - second.states[-1]) <= 1e-12


def _random_unitaries(k, dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, dim, dim)) + 1j * rng.standard_normal((k, dim, dim))
    q, _ = np.linalg.qr(a)
    return q


def _sequential_products(unitaries):
    """Reference: out[0] = I, out[k + 1] = U_k out[k], one product at a time."""
    out = [np.eye(unitaries.shape[-1], dtype=complex)]
    for u in unitaries:
        out.append(u @ out[-1])
    return np.array(out)


class TestAccumulate:
    # d = 2 takes the dim-2 forms of stack_matmul, d > 2 np.matmul; odd and
    # even K both reach the out= write of the even prefixes. At K = 600 the
    # first level multiplies 300 pairs, past the einsum boundary of 256, so one
    # scan runs the broadcast form there and the einsum form below
    @pytest.mark.parametrize("dim", [2, 3, 8, 16])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 64, 600])
    def test_matches_sequential_product(self, k, dim):
        us = _random_unitaries(k, dim, seed=100 * k + dim)
        out = _accumulate(us)
        assert out.shape == (k + 1, dim, dim)
        assert np.array_equal(out[0], np.eye(dim))
        assert max_abs(out - _sequential_products(us)) <= 1e-13
        grams = np.swapaxes(out.conj(), -2, -1) @ out
        assert max_abs(grams - np.eye(dim)) <= 1e-12

    def test_single_step_grid(self):
        model = schwinger_model(SLOW)
        grid = TimeGrid(0.0, 1.0, 1)
        psi0 = _ground(model)
        traj = evolve(model, psi0, grid)
        step = evolve(model, psi0, grid).propagators[1]
        assert traj.states.shape == (2, 2)
        assert np.array_equal(traj.propagators[0], np.eye(2))
        assert max_abs(traj.states[0] - psi0) == 0.0
        assert max_abs(traj.states[1] - step @ psi0) <= 1e-15


def _ground(model):
    _, v = model.analytic_eigensystem(0.0)
    return v[:, 0].copy()


class TestPropagatorMatrix:
    def test_zero_hamiltonian_gives_identity(self):
        model = custom_model(lambda t: np.zeros((2, 2), dtype=complex), dim=2)
        traj = evolve(model, np.array([1.0, 0.0], dtype=complex), TimeGrid(0.0, 1.0, 20))
        assert max_abs(traj.propagators - np.eye(2)) == 0.0

    def test_first_propagator_is_identity(self, slow_run):
        assert max_abs(slow_run.pipeline.trajectory.propagators[0] - np.eye(2)) == 0.0

    def test_evolve_equals_propagator_applied(self):
        model = schwinger_model(SLOW)
        grid = TimeGrid(0.0, 6.0, 600)
        psi0 = _ground(model)
        traj = evolve(model, psi0, grid)
        props = evolve(model, psi0, grid)
        applied = np.einsum("kij,j->ki", props.propagators, psi0)
        assert max_abs(traj.states - applied) <= 1e-12

    def test_states_read_off_propagators(self):
        model = schwinger_model(SLOW)
        psi0 = _ground(model)
        traj = evolve(model, psi0, TimeGrid(0.0, 6.0, 600))
        assert np.array_equal(traj.states, traj.propagators @ psi0)

    def test_unitarity_drift(self, slow_run):
        us = slow_run.pipeline.trajectory.propagators
        grams = np.einsum("kji,kjl->kil", us.conj(), us)
        assert np.max(np.abs(grams - np.eye(2))) <= 1e-9


class TestSecondOrderConvergence:
    def test_halving_h_quarters_the_error(self):
        model = schwinger_model(SLOW)
        errors = []
        for steps in (2000, 4000):
            grid = TimeGrid(0.0, 10.0, steps)
            traj = evolve(model, _ground(model), grid)
            path = track(model, grid, gauge="analytic")
            c = np.einsum("kji,kj->ki", path.eigenvectors.conj(), traj.states)
            c1, c2 = oracles.amplitudes(SLOW, grid.samples)
            errors.append(max(np.max(np.abs(c[:, 0] - c1)), np.max(np.abs(c[:, 1] - c2))))
        ratio = errors[0] / errors[1]
        assert 3.5 <= ratio <= 4.5


def _short_scenario(path=SHIPPED_PAIR, steps=250, **fields):
    """A shipped scenario over its first ``steps`` steps, at its own step size."""
    doc = json.loads(path.read_text())
    doc |= {"steps": steps, "t_end": doc["t_end"] * steps / doc["steps"], **fields}
    return parse_scenario(json.dumps(doc))


def _counting(monkeypatch, module, name, counts):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _solver_counts(monkeypatch) -> dict:
    """Count step stacks, eigensolves and Hermitian validations from here on."""
    counts = {"_step_unitaries": 0, "hermitian_eigendecompose": 0, "require_hermitian": 0}
    _counting(monkeypatch, adiab.propagate, "_step_unitaries", counts)
    # the eigensolver is looked up in linalg and in tracking
    for module in (adiab.linalg, adiab.tracking):
        _counting(monkeypatch, module, "hermitian_eigendecompose", counts)
    _counting(monkeypatch, adiab.linalg, "require_hermitian", counts)
    return counts


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_scenario(_short_scenario(SHIPPED_PAIR.parent / "slow_theta_pi2.json")),
        lambda: run_pipeline(random_smooth_model(8, seed=3), TimeGrid(0.0, 0.2, 50), 0),
    ],
    ids=["schwinger", "dim8"],
)
def test_eigensolves_and_validations_per_run(monkeypatch, run):
    # one track; the step exponential solves no eigenproblem at any d, and
    # each of the two stacks (the track's H(t), the midpoint H) is validated once
    counts = _solver_counts(monkeypatch)
    run()
    assert counts == {"_step_unitaries": 1, "hermitian_eigendecompose": 1, "require_hermitian": 2}


@pytest.mark.parametrize("name", ["marzlin_sanders", "fast_theta_pi4"])
def test_two_level_runs_call_no_lapack_solver(monkeypatch, name):
    def no_lapack(a):
        raise AssertionError("LAPACK eigh reached on a two-level run")

    monkeypatch.setattr(np.linalg, "eigh", no_lapack)
    assert run_scenario(_short_scenario(SHIPPED_PAIR.parent / f"{name}.json")).report.passed


def test_dim8_run_makes_one_lapack_solve(monkeypatch):
    # the track's, for the whole stack; the step exponential makes none
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    run_pipeline(random_smooth_model(8, seed=3), TimeGrid(0.0, 0.2, 50), 0)
    assert calls == [(51, 8, 8)]


# Every whole-grid stack of a two-level run, by the part of the pipeline that holds it.
_TIME_CONTIGUOUS = {
    "path": ("hamiltonians", "eigenvalues", "eigenvectors", "derivatives"),
    "trajectory": ("propagators", "states"),
    "diagnostics": ("c", "q", "r", "qac", "residual"),
}


@pytest.mark.parametrize("name", ["fast_theta_pi4", "marzlin_sanders"])
def test_two_level_stacks_are_time_contiguous(name):
    # time innermost, so every whole-grid operation at d = 2 runs one long inner loop
    pipeline = run_scenario(_short_scenario(SHIPPED_PAIR.parent / f"{name}.json")).pipeline
    for part, fields in _TIME_CONTIGUOUS.items():
        for field in fields:
            stack = getattr(getattr(pipeline, part), field)
            assert stack.strides[0] == stack.itemsize, f"{part}.{field}"


def test_dense_stacks_stay_c_order():
    # above d = 2 LAPACK and the Taylor exponential give C order, and matmul keeps its BLAS path
    pipeline = run_pipeline(random_smooth_model(8, seed=3), TimeGrid(0.0, 0.2, 50), 0)
    assert pipeline.path.hamiltonians.flags.c_contiguous
    assert pipeline.trajectory.propagators.flags.c_contiguous


class TestTransformedPair:
    def test_pair_run_propagates_system_a_once(self, monkeypatch):
        counts = _solver_counts(monkeypatch)
        assert run_scenario(_short_scenario()).report.passed
        # A on the half-step lattice and B on the grid; the d = 2 step exponentials
        # solve no eigenproblem and A's eigenvectors are its closed form, so only
        # B's track solves one; three stacks validated (A's midpoint H, B's H at
        # the samples and at the midpoints)
        assert counts == {
            "_step_unitaries": 2, "hermitian_eigendecompose": 1, "require_hermitian": 3
        }

    def test_pair_run_forms_each_operator_once(self, monkeypatch):
        # H_a once on the half-step lattice and once on its midpoints; H_b once
        # over the lattice and Ḣ_b once, for the report's interior samples; A's
        # closed-form eigensystem once, on the samples, for A's fidelity
        base = schwinger_model(_short_scenario().params)
        shapes = {"hamiltonian": [], "derivative": [], "analytic_eigensystem": []}

        def counted(name):
            def f(t):
                shapes[name].append(np.shape(t))
                return getattr(base, name)(t)

            return f

        model_a = Model(dim=2, **{name: counted(name) for name in shapes})
        monkeypatch.setattr(adiab.runner, "schwinger_model", lambda params: model_a)
        counts = {"transformed_hamiltonian": 0}
        _counting(monkeypatch, adiab.propagate, "transformed_hamiltonian", counts)
        assert run_scenario(_short_scenario()).report.passed
        # 250 steps: 501 lattice points, 500 fine midpoints, 251 samples
        assert shapes == {
            "hamiltonian": [(500,), (501,)], "derivative": [(249,)], "analytic_eigensystem": [(251,)]
        }
        assert counts == {"transformed_hamiltonian": 2}

    def test_lattice_operators_are_fortran_order(self):
        # 250 steps: a 501-point lattice, past stack_matmul's einsum form, whose
        # broadcast form must keep the lattice stacks' layout
        grid = TimeGrid(0.0, 2.5, 250)
        fine = grid.refined()
        model_a = schwinger_model(SLOW)
        model_b, lattice_a = marzlin_sanders_model(model_a, grid)
        us = lattice_a.propagators
        assert us.shape == (501, 2, 2) and us.flags.f_contiguous
        assert transformed_hamiltonian(us, model_a.hamiltonian(fine.samples)).flags.f_contiguous
        # a full read off the lattice is laid out as the lattice stack hs itself
        assert model_b.hamiltonian(fine.samples).flags.f_contiguous

    @pytest.mark.parametrize(
        "pick",
        [
            lambda lattice: float(lattice[37]),
            lambda lattice: lattice[[0, 3, 4, 10, 57, 200, 57]],
            lambda lattice: lattice,
            lambda lattice: lattice[::2],
            lambda lattice: lattice[1::2],
            lambda lattice: lattice[20:30:3].reshape(2, 2),
        ],
        ids=["scalar", "uneven", "lattice", "samples", "midpoints", "2d"],
    )
    def test_operators_match_per_call_construction(self, pick):
        # B's H and Ḣ against U_a read off the lattice and -U_a† H_a U_a formed per
        # call, for a two-level A and a three-level one, whose stacks are C order
        grid = TimeGrid(0.0, 1.0, 100)
        fine = grid.refined()
        t = pick(fine.samples)
        j = np.rint((np.asarray(t) - fine.t_start) / fine.h).astype(np.intp)
        for model_a in (schwinger_model(SLOW), random_smooth_model(3, seed=3)):
            model_b, lattice_a = marzlin_sanders_model(model_a, grid)
            us = lattice_a.propagators[j]
            dim = model_a.dim
            for name in ("hamiltonian", "derivative"):
                expected = transformed_hamiltonian(us, getattr(model_a, name)(t))
                actual = getattr(model_b, name)(t)
                assert actual.shape == np.shape(t) + (dim, dim)
                assert max_abs(actual - expected) <= 1e-15, (dim, name)
                if dim > 2:
                    assert actual.flags.c_contiguous, name
                elif np.ndim(t) == 1:
                    assert actual.strides[0] == actual.itemsize, name  # time-contiguous

    def test_three_level_pair_meets_the_runner_tolerances(self):
        # B tracked and diagnosed above d = 2, with each check the report makes
        model_a = random_smooth_model(3, seed=3)
        grid = TimeGrid(0.0, 0.25, 250)
        model_b, lattice_a = marzlin_sanders_model(model_a, grid)
        run = run_pipeline(model_b, grid, 0)
        diag = run.diagnostics
        assert np.nanmax(diag.residual) <= adiab.runner.DECOMPOSITION_TOL
        assert diag.lam.max() <= adiab.runner.LAMBDA_TOL
        assert adiab.runner._unitarity_drift(run.trajectory) <= adiab.runner.UNITARITY_TOL
        assert diag.norm_error.max() <= adiab.runner.NORM_TOL
        assert diag.probability_defect.max() <= adiab.runner.PROBABILITY_TOL
        assert np.nanmax(diag.cn_residual) <= adiab.runner.CN_TOL
        assert adiab.runner._perturbation_residual(model_b, run.path) <= adiab.runner.PERTURBATION_TOL
        products = stack_matmul(run.trajectory.propagators, lattice_a.propagators[::2])
        assert max_abs(products - np.eye(3)) <= adiab.runner.INVERSE_TOL

    @pytest.mark.parametrize("gauge", ["auto", "analytic-reference"])
    def test_system_a_matches_a_full_pipeline_on_the_lattice(self, monkeypatch, gauge):
        calls = []
        run_pipeline = adiab.runner.run_pipeline

        def recorded(*args, **kwargs):
            calls.append(args)
            return run_pipeline(*args, **kwargs)

        monkeypatch.setattr(adiab.runner, "run_pipeline", recorded)
        scenario = _short_scenario(gauge=gauge)
        result = run_scenario(scenario)
        assert len(calls) == 1  # system B only

        # the oracle: A tracked and diagnosed in full, its states read off the lattice
        n = scenario.level - 1
        model_a = schwinger_model(scenario.params)
        grid = TimeGrid(scenario.t_start, scenario.t_end, scenario.steps)
        _, lattice = marzlin_sanders_model(model_a, grid)
        propagators_a = lattice.propagators[::2]
        path = track(model_a, grid, "analytic" if gauge == "analytic-reference" else "transport")
        psi0 = path.eigenvectors[0, :, n] / np.linalg.norm(path.eigenvectors[0, :, n])
        diag_a = run_diagnostics(propagators_a @ psi0, path, n)
        fidelity = np.abs(diag_a.c[:, diag_a.level])
        block = result.report.marzlin_sanders
        assert abs(block["min_fidelity_system_a"] - float(np.min(fidelity))) <= 1e-15

        products = stack_matmul(result.pipeline.trajectory.propagators, propagators_a)
        assert block["max_inverse_residual"] == float(np.max(np.abs(products - np.eye(2))))

    @pytest.mark.parametrize("scale", [1.0, 1e4])
    def test_transformed_operators_are_exactly_hermitian(self, scale):
        # the shipped pair over its first 1000 steps, energies times scale, times over it
        p = SchwingerParams(scale, 0.1 * scale, math.pi / 2)
        grid = TimeGrid(0.0, 1.0 / scale, 1000)
        model_b, _ = marzlin_sanders_model(schwinger_model(p), grid)
        lattice = grid.refined().samples
        for operator in (model_b.hamiltonian(lattice), model_b.derivative(lattice)):
            assert np.array_equal(operator, np.swapaxes(operator.conj(), -2, -1))

    def test_inverse_and_oracle(self):
        model_a = schwinger_model(SLOW)
        grid = TimeGrid(0.0, 6.0, 3000)
        model_b, fine = marzlin_sanders_model(model_a, grid)

        psi0 = track(model_b, grid).eigenvectors[0, :, 0]
        traj_b = evolve(model_b, psi0, grid)
        traj_a = evolve(model_a, _ground(model_a), grid)

        products = np.einsum("kij,kjl->kil", traj_b.propagators, traj_a.propagators)
        assert np.max(np.abs(products - np.eye(2))) <= 1e-6

        # exact solution: psi_B(t) = U_a(t)† psi_B(0), from dU_a†/dt = -i H_b U_a†
        oracle = np.einsum("kji,j->ki", fine.propagators[::2].conj(), psi0)
        assert max_abs(traj_b.states - oracle) <= 1e-6

    def test_derivative_matches_lattice_difference(self):
        model_a = schwinger_model(SLOW)
        grid = TimeGrid(0.0, 1.0, 5000)  # half-step lattice spacing 1e-4
        model_b, _ = marzlin_sanders_model(model_a, grid)
        step = grid.refined().h
        for t in (0.2, 0.5, 0.8):
            fd = (model_b.hamiltonian(t + step) - model_b.hamiltonian(t - step)) / (2 * step)
            assert max_abs(model_b.derivative(t) - fd) <= 1e-6

    def test_off_lattice_time_rejected(self):
        model_b, _ = marzlin_sanders_model(schwinger_model(SLOW), TimeGrid(0.0, 1.0, 100))
        with pytest.raises(ValueError, match="lattice"):
            model_b.hamiltonian(0.0012345)
        ts = TimeGrid(0.0, 1.0, 200).samples.copy()  # the half-step lattice
        ts[37] = 0.18612345
        with pytest.raises(ValueError, match=r"lattice; got t=0\.18612345$"):
            model_b.hamiltonian(ts)

    @pytest.mark.parametrize("where", ["off", "before", "after"])
    def test_evenly_spaced_off_lattice_times_rejected(self, where):
        # one distance test covers the range too: the same error, naming the same time
        model_b, _ = marzlin_sanders_model(schwinger_model(SLOW), TimeGrid(0.0, 1.0, 100))
        fine = TimeGrid(0.0, 1.0, 200)
        hf = fine.h
        if where == "off":
            ts = fine.samples[::2] + 1e-3 * hf  # the samples, each off by 1e-3 of a step
            bad = ts[0]
        elif where == "before":
            ts = fine.samples[:50] - 10 * hf  # evenly spaced, the first ten before t_start
            bad = ts[0]
        else:
            ts = fine.samples[-50:] + 10 * hf  # the last ten past t_end
            bad = ts[40]
        assert np.allclose(np.diff(ts), np.diff(ts)[0], rtol=1e-9, atol=0)
        message = "defined only on its construction lattice; got t=" + re.escape(repr(float(bad))) + "$"
        for read in (model_b.hamiltonian, model_b.derivative):
            with pytest.raises(ValueError, match=message):
                read(ts)
            with pytest.raises(ValueError, match=message):
                read(float(bad))
        with pytest.raises(ValueError, match="lattice; got t=nan"):
            model_b.hamiltonian(np.array([0.0, math.nan]))

    @pytest.mark.parametrize(
        "pick",
        [
            lambda lattice: lattice[[0, 3, 4, 10, 57, 200, 57]],
            lambda lattice: lattice[[200, 100, 0]],
            lambda lattice: lattice[20:30:3].reshape(2, 2),
            lambda lattice: lattice[[5, 5, 5]],
            lambda lattice: lattice[[7]],
            lambda lattice: lattice[:0],
        ],
        ids=["uneven", "descending", "2d", "repeated", "one", "empty"],
    )
    def test_reads_equal_take(self, pick):
        model_b, _ = marzlin_sanders_model(schwinger_model(SLOW), TimeGrid(0.0, 1.0, 100))
        fine = TimeGrid(0.0, 1.0, 200)
        hs = model_b.hamiltonian(fine.samples)
        t = pick(fine.samples)
        j = np.rint((t - fine.t_start) / fine.h).astype(np.intp)
        assert np.array_equal(model_b.hamiltonian(t), np.take(hs, j, axis=0))

    def test_attached_closed_forms(self):
        model_a = schwinger_model(SLOW)
        grid = TimeGrid(0.0, 2.0, 200)
        model_b, _ = marzlin_sanders_model(model_a, grid)
        t = float(grid.samples[50])
        w_b, v_b = model_b.analytic_eigensystem(t)
        h_b = model_b.hamiltonian(t)
        assert np.all(np.diff(w_b) > 0)
        assert max_abs(h_b @ v_b - v_b * w_b) <= 1e-9

    def test_analytic_reference_gauge_agrees_with_transport(self):
        # the shipped pair, shortened; the analytic gauge aligns every frame
        # of B to U_a† times A's closed-form eigenvectors
        doc = dict(json.loads(SHIPPED_PAIR.read_text()), steps=1200, t_end=1.2)
        runs = {
            gauge: run_scenario(parse_scenario(json.dumps(dict(doc, gauge=gauge))))
            for gauge in ("auto", "analytic-reference")
        }
        for run in runs.values():
            assert run.report.passed, run.report.first_failure()
        auto, ref = (runs[g] for g in ("auto", "analytic-reference"))
        da, dr = auto.pipeline.diagnostics, ref.pipeline.diagnostics
        assert max_abs(np.abs(da.c) - np.abs(dr.c)) <= 1e-12
        ma, mr = auto.report.marzlin_sanders, ref.report.marzlin_sanders
        for key in ("min_fidelity_system_a", "min_fidelity_system_b"):
            assert abs(ma[key] - mr[key]) <= 1e-12
        assert ma["max_inverse_residual"] == mr["max_inverse_residual"]
        # the stencils differ between gauges, at about 1.25e-8 here
        assert max_abs(np.abs(da.q[:, 1]) - np.abs(dr.q[:, 1])) <= 1e-7
        assert max_abs(np.abs(da.r[:, 1]) - np.abs(dr.r[:, 1])) <= 1e-7
        assert max_abs(da.qac[:, 1] - dr.qac[:, 1]) <= 1e-7
        assert auto.report.regime == ref.report.regime

    @pytest.mark.parametrize("level", [1, 2])
    def test_system_b_fidelity_is_the_summary_min_fidelity(self, level):
        # the shipped pair, shortened: B's min |c_n| is formed once, by the summary,
        # and the pair block reads it from there, keys in their report order
        doc = dict(json.loads(SHIPPED_PAIR.read_text()), steps=1200, t_end=1.2, n=level)
        report = run_scenario(parse_scenario(json.dumps(doc))).report
        block, min_fidelity = report.marzlin_sanders, report.summary["min_fidelity"]
        assert list(block) == [
            "max_inverse_residual",
            "min_fidelity_system_a",
            "min_fidelity_system_b",
            "system_b_loses_adiabaticity",
            "system_a_stays_adiabatic",
        ]
        assert block["min_fidelity_system_b"] == min_fidelity
        assert block["system_b_loses_adiabaticity"] == (min_fidelity < 0.9)
        assert list(report.to_dict())[-1] == "marzlin_sanders"
