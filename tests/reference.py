"""Plain references the tests hold the package to.

Each one is the straightforward form of something the package computes
another way: an exact rational energy, a state spread from its held qubits
onto all of them, its expectation, the exact energies of the DQES
landscape, one search driven by a scalar objective, one VQE run on its own.
"""

import math
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


def spread(amplitudes, held, n) -> np.ndarray:
    """The 2^n amplitudes of a state held on the distinct qubits ``held``:
    bit i of an index into ``amplitudes`` is qubit ``held[i]``, and every
    other qubit is |0>."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    assert amplitudes.size == 1 << len(held) and len(set(held)) == len(held)
    assert all(0 <= q < n for q in held)
    local = np.arange(amplitudes.size)
    index = np.zeros(amplitudes.size, dtype=np.int64)
    for i, q in enumerate(held):
        index |= ((local >> i) & 1) << q
    full = np.zeros(1 << n, dtype=complex)
    full[index] = amplitudes
    return full


def expectation(ising, amplitudes) -> float:
    """<psi| H |psi> of a state given as all 2^n amplitudes: each nonzero
    probability times the exact energy of its basis state, summed with
    ``math.fsum``."""
    probabilities = np.abs(np.asarray(amplitudes)) ** 2
    assert probabilities.size == 1 << ising.n
    return math.fsum(
        float(p) * float(energy_of_bitstring(ising, layouts.index_to_bits(z, ising.n)))
        for z, p in enumerate(probabilities.tolist()) if p
    )


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
