"""Plain references the tests hold the package to.

Each one is the straightforward form of something the package computes
another way: an exact rational energy, one search driven by a scalar
objective, one VQE run on its own.
"""

from fractions import Fraction

import numpy as np

from tspvqe import layouts
from tspvqe.vqe import OptimizerConfig, _search, run_lockstep


def energy_of_bitstring(ising, bits) -> Fraction:
    """Exact classical energy with s_i = 1 - 2*bit_i."""
    bits = layouts.coerce_bits(bits, ising.n)
    spins = [1 - 2 * b for b in bits]
    total = 0
    for key, c in ising.numerators.items():
        for i in key:
            c *= spins[i]
        total += c
    return Fraction(total, ising.denominator)


def optimize(objective, x0, config=None, seed=0, target=None, target_tol=0.0,
             restart_points=None):
    """Minimize ``objective`` by rotation descent, one vector at a time.

    Drives the ask/tell search that ``run_lockstep`` drives in batches.
    """
    search = _search(
        np.asarray(x0, dtype=float), config or OptimizerConfig(), seed, target, target_tol,
        restart_points,
    )
    request = next(search)
    while True:
        try:
            request = search.send([objective(x) for x in request])
        except StopIteration as done:
            return done.value


def run_vqe(ising, init, ansatz=None, optimizer=None, seed=0, ground_energy=None,
            convergence_tol=1e-6):
    """One VQE run from ``init``: a lockstep batch of one."""
    [trace] = run_lockstep(
        ising, [(init, seed)], ansatz, optimizer, ground_energy, convergence_tol
    )
    return trace
