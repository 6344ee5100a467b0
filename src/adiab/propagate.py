"""Unitary integration of the time-dependent Schrödinger equation.

One step maps psi(t) to exp(-i h H(t + h/2)) psi(t): a midpoint exponential
rule, second order in h, with every step exactly unitary up to rounding.
States are never rescaled; norm conservation is by construction.

Each propagation makes one product pass: the running propagators U(t_k) are
accumulated once, and the states are read off that stack as U(t_k) psi0. The
pass is a log-depth pairwise prefix product (Blelloch, "Prefix sums and their
applications", 1990), two whole-stack ``linalg.stack_matmul`` products per
level.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from adiab.linalg import require_normalized, stack_matmul, unitary_exponential
from adiab.models import Model, transformed_hamiltonian

__all__ = [
    "TimeGrid",
    "Trajectory",
    "evolve",
    "marzlin_sanders_model",
]

_RESOLUTION = 1e-8  # largest float spacing at the endpoints, as a fraction of h


def _is_integral(value) -> bool:
    """Any integer type (Python or numpy) except ``bool``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with inclusive endpoints: steps + 1 samples.

    The step h must be finite and at least 1e8 float spacings (ulps) of the
    larger endpoint, so samples, midpoints and half-step lattices resolve.
    ``samples`` is ``np.linspace(t_start, t_end, steps + 1)``, formed once
    per grid and read-only, since every layer of a run shares the same
    array; copy it to change it.
    """

    t_start: float
    t_end: float
    steps: int

    def __post_init__(self):
        if not _is_integral(self.steps) or self.steps < 1:
            raise ValueError(f"steps must be a positive integer, got {self.steps!r}")
        object.__setattr__(self, "steps", int(self.steps))
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError("grid endpoints must be finite")
        if not self.t_end > self.t_start:
            raise ValueError(f"t_end ({self.t_end}) must exceed t_start ({self.t_start})")
        h = self.h
        ulp = math.ulp(max(abs(self.t_start), abs(self.t_end)))
        if not (math.isfinite(h) and ulp <= _RESOLUTION * h):
            raise ValueError(
                f"grid step {h!r} must be finite and at least 1e8 times the float "
                f"spacing {ulp!r} at the endpoints"
            )

    @property
    def h(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    @cached_property
    def samples(self) -> np.ndarray:
        ts = np.linspace(self.t_start, self.t_end, self.steps + 1)
        ts.flags.writeable = False
        return ts

    def refined(self) -> "TimeGrid":
        """Same span with twice as many steps."""
        return TimeGrid(self.t_start, self.t_end, 2 * self.steps)


@dataclass
class Trajectory:
    """Propagated samples along a grid, one per grid sample.

    ``propagators[k]`` is the accumulated U(t_k), with ``propagators[0] = I``;
    ``states[k]`` is psi(t_k) = U(t_k) psi0, read off that one stack, when a
    state was evolved. ``marzlin_sanders_model`` returns system A's half-step
    lattice stack with no state, so ``states`` is None there.
    """

    propagators: np.ndarray
    states: Optional[np.ndarray] = None


def _step_unitaries(model: Model, grid: TimeGrid) -> np.ndarray:
    """(K, dim, dim) midpoint unitaries exp(-i h H(t_k + h/2)), one batched solve."""
    h = grid.h
    mids = grid.samples[:-1] + 0.5 * h
    return unitary_exponential(model.hamiltonian(mids), h)


def _prefix_products(us: np.ndarray, out: np.ndarray) -> None:
    """Write the inclusive products out[k] = us[k] ... us[0] in log2(K) levels.

    Neighbours pair into one batched product, the scan of the pairs gives the
    odd prefixes, and one more batched product fills the even ones.
    """
    n = us.shape[0]
    out[0] = us[0]
    if n == 1:
        return
    _prefix_products(stack_matmul(us[1::2], us[0 : n - 1 : 2]), out[1::2])
    stack_matmul(us[2::2], out[1 : n - 1 : 2], out=out[2::2])


def _accumulate(unitaries: np.ndarray) -> np.ndarray:
    """Running propagators out[0] = I, out[k + 1] = U_k out[k]."""
    dim = unitaries.shape[-1]
    out = np.empty_like(unitaries, shape=(unitaries.shape[0] + 1, dim, dim))  # keeps the layout
    out[0] = np.eye(dim)
    _prefix_products(unitaries, out[1:])
    return out


def evolve(model: Model, psi0, grid: TimeGrid) -> Trajectory:
    """Propagate a normalized state over the grid.

    Returns the running propagators and the states read off them. Global
    error is O(h^2) against the exact flow. Raises for a non-normalized
    initial state or a dimension mismatch.
    """
    psi0 = require_normalized(psi0)
    if psi0.shape[0] != model.dim:
        raise ValueError(f"state dimension {psi0.shape[0]} does not match model dim {model.dim}")
    propagators = _accumulate(_step_unitaries(model, grid))
    states = stack_matmul(propagators, psi0[:, np.newaxis])[..., 0]
    return Trajectory(propagators=propagators, states=states)


def marzlin_sanders_model(model_a: Model, grid: TimeGrid) -> tuple[Model, Trajectory]:
    """Companion system H_b = -U_a† H_a U_a pinned to a grid.

    The propagator of ``model_a`` is accumulated on a half-step refinement of
    ``grid``, and H_b is formed once over that whole lattice, from one
    evaluation of H_a there: its even points are the grid samples and its
    odd points the midpoints the integrator visits. The returned model only
    accepts times on the lattice. Its ``hamiltonian`` reads H_b off the
    lattice; its ``derivative`` and closed-form eigensystem read U_a there
    at the times asked. Also returns A's lattice trajectory, propagators
    only (``states`` is None), which satisfy U_b(t) = U_a(t)† for the exact
    flow. Its even points, ``propagators[::2]``, are A's running propagators
    on ``grid`` itself, each the product of two half steps.
    """
    fine = grid.refined()
    traj_a = Trajectory(propagators=_accumulate(_step_unitaries(model_a, fine)))
    us = traj_a.propagators
    hs = transformed_hamiltonian(us, model_a.hamiltonian(fine.samples))
    t0 = fine.t_start
    hf = fine.h
    last = us.shape[0] - 1

    def lattice_read(stack: np.ndarray, t) -> np.ndarray:
        """``stack`` at each time of ``t``; every time must lie on the lattice."""
        t = np.asarray(t, dtype=float)
        j, miss = np.empty_like(t), np.empty_like(t)  # arrays even for a single time
        np.subtract(t, t0, out=j)
        j /= hf
        # Clipped into range, an index off the lattice's ends names an end point
        # at least half a step from t, so the one distance test also tests the range.
        np.rint(j, out=j).clip(0, last, out=j)
        np.multiply(j, hf, out=miss)
        miss += t0
        miss -= t
        if not np.abs(miss, out=miss).max(initial=0.0) <= 1e-6 * hf:  # NaN fails too
            raise ValueError(
                "transformed model is defined only on its construction lattice; "
                f"got t={float(t[~(miss <= 1e-6 * hf)].flat[0])!r}"
            )
        out = np.empty_like(stack, shape=j.shape + stack.shape[1:])  # keeps the stack's layout
        if j.ndim == 1 and j.size > 1:
            first, step = int(j[0]), int(j[1] - j[0])
            if step > 0 and (j[1:] - j[:-1] == step).all():
                # evenly spaced, as the samples and midpoints are: one strided copy,
                # where np.take would first copy a time-contiguous stack to C order
                out[...] = stack[first : int(j[-1]) + 1 : step]
                return out
        return np.take(stack, j.astype(np.intp), axis=0, out=out)

    def hamiltonian(t) -> np.ndarray:
        return lattice_read(hs, t)

    def derivative(t) -> np.ndarray:
        # -U† Hdot U: the U̇ = -iHU product-rule terms cancel.
        return transformed_hamiltonian(lattice_read(us, t), model_a.derivative(t))

    analytic_eigensystem = None
    if model_a.analytic_eigensystem is not None:
        # Eigenpairs of -U†HU are (-E_i, U† v_i); ascending order reverses.
        def analytic_eigensystem(t) -> tuple[np.ndarray, np.ndarray]:
            w, v = model_a.analytic_eigensystem(t)
            udag = lattice_read(us, t).conj().swapaxes(-2, -1)
            return -w[..., ::-1], stack_matmul(udag, v)[..., ::-1]

    return (
        Model(
            dim=model_a.dim,
            hamiltonian=hamiltonian,
            derivative=derivative,
            analytic_eigensystem=analytic_eigensystem,
        ),
        traj_a,
    )
