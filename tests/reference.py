"""Plain references the tests hold the package to.

Each one is the straightforward form of something the package computes
another way: an exact rational energy, the exact energies of the DQES
landscape, one search driven by a scalar objective, one VQE run on its own.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np

from tspvqe import build_mubs_3q, layouts
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


def landscape_fractions(ising) -> list:
    """The exact energy of every DQES landscape record of ``ising``, in
    record order (triples lexicographic, then basis, then element).

    Each record weighs its triple's 8 support states, with the other qubits
    at 0, by the squared MUB amplitudes rounded to eighths (0 or 1 in basis
    0, 1/8 in bases 1-8), and their energies from ``energy_of_bitstring``.
    """
    probs = np.abs(np.array(build_mubs_3q().bases)) ** 2  # (basis, element, support)
    eighths = np.rint(8 * probs).astype(int)
    assert np.abs(probs - eighths / 8).max() < 1e-12
    rows = [tuple(row) for row in eighths.reshape(-1, 8).tolist()]
    energies = []
    for positions in combinations(range(ising.n), 3):
        support = []
        for m in range(8):
            bits = [0] * ising.n
            for k, q in enumerate(positions):
                bits[q] = (m >> k) & 1
            support.append(energy_of_bitstring(ising, bits))
        weighed = {row: sum(w * e for w, e in zip(row, support)) / 8 for row in set(rows)}
        energies += [weighed[row] for row in rows]
    return energies


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
