#!/usr/bin/env python3
"""Step-size study of the midpoint-exponential integrator.

Propagates the slow rotating-field drive against its closed-form solution
at a ladder of step counts and prints the worst amplitude error and the
error ratio between successive refinements (4.0 for a second-order rule).
The closed form is the test oracle's, ``tests/oracles.amplitudes``: the
script puts ``tests/`` on ``sys.path``, as pytest does, and imports it.

A practical default when picking step counts by hand: about 1000 steps per
unit of max(omega0, omega) * span keeps the amplitude error near 1e-6 on
desk-scale runs.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles import amplitudes
from adiab.models import SchwingerParams, schwinger_model
from adiab.propagate import TimeGrid, evolve


def amplitude_error(params: SchwingerParams, t_end: float, steps: int) -> float:
    model = schwinger_model(params)
    grid = TimeGrid(0.0, t_end, steps)
    _, v0 = model.analytic_eigensystem(0.0)
    traj = evolve(model, v0[:, 0], grid)
    vectors = model.analytic_eigensystem(grid.samples)[1]
    c = np.einsum("kji,kj->ki", vectors.conj(), traj.states)
    c1, c2 = amplitudes(params, grid.samples)
    return max(float(np.max(np.abs(c[:, 0] - c1))), float(np.max(np.abs(c[:, 1] - c2))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--omega0", type=float, default=1.0)
    parser.add_argument("--omega", type=float, default=0.1)
    parser.add_argument("--theta", type=float, default=math.pi / 2)
    parser.add_argument("--t-end", type=float, default=40.0)
    parser.add_argument("--base-steps", type=int, default=5000)
    parser.add_argument("--doublings", type=int, default=4)
    args = parser.parse_args(argv)

    params = SchwingerParams(args.omega0, args.omega, args.theta)
    print(f"{'steps':>10}{'h':>12}{'max error':>14}{'ratio':>9}")
    previous = None
    for k in range(args.doublings + 1):
        steps = args.base_steps * 2**k
        err = amplitude_error(params, args.t_end, steps)
        ratio = "" if previous is None else f"{previous / err:8.3f}"
        print(f"{steps:>10}{args.t_end / steps:>12.2e}{err:>14.3e}{ratio:>9}")
        previous = err
    return 0


if __name__ == "__main__":
    sys.exit(main())
