"""Plain references the tests hold the package to.

Each one is the straightforward form of something the package computes
another way: an exact rational energy, the enumeration kernel's doubling
recurrence with one numpy call per pair of spins, a polynomial's exact value
at bits or at a cell table, a state spread from its held qubits onto all of them,
the qubits it occupies, its expectation, the Pauli classes and the 3-qubit
MUBs built as projector products, the exact energies of the DQES
landscape, one search driven by a scalar objective, one VQE run on its own.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from tspvqe import build_mubs_3q, layouts
from tspvqe.quantum import _MUB_GENERATORS
from tspvqe.vqe import _search, run_lockstep


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


def spin_energies(n, const, h, J, spins=None) -> np.ndarray:
    """``kernels.enumerate_spin_energies`` as the plain doubling recurrence:
    flipping spin k adds 2 G_k[z] for z < 2^k, and G_k is doubled from its
    value at the all +1 state one spin j < k at a time, a numpy call per
    pair j < k.  The same int64 sums, so the same bits."""
    h, J = np.asarray(h, dtype=np.int64), np.asarray(J, dtype=np.int64)
    columns = np.arange(n)[:, None] if spins is None else np.asarray(spins, dtype=np.int64).T
    gain = (-(h + J.sum(axis=1)))[columns]
    twice = 2 * J[columns[:, None], columns[None, :]]
    energies = np.empty((1 << len(columns), columns.shape[1]), dtype=np.int64)
    energies[0] = np.int64(const) + h.sum() + np.triu(J, 1).sum()
    for k in range(len(columns)):
        flip = energies[1 << k:2 << k]
        flip[0] = gain[k]
        for j in range(k):
            np.add(flip[:1 << j], twice[j, k], out=flip[1 << j:2 << j])
        flip *= 2
        flip += energies[:1 << k]
    return energies[:, 0] if spins is None else energies.T


def evaluate(poly, bits) -> Fraction:
    """Exact value of a pseudo-Boolean polynomial at a 0/1 assignment given
    in variable order."""
    bits = layouts.coerce_bits(bits, poly.n_vars)
    total = sum(c for key, c in poly.numerators.items() if all(bits[i] for i in key))
    return Fraction(total, poly.denominator)


def evaluate_table(poly, table) -> Fraction:
    """Exact value of ``poly`` at an assignment given as a {(v, t): 0/1}
    mapping."""
    return evaluate(poly, [table[var] for var in poly.variable_order])


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


def support(amplitudes) -> tuple:
    """The qubits on which a state is not exactly |0>, ascending: those set in
    the index of some nonzero amplitude."""
    mask = int(np.bitwise_or.reduce(np.flatnonzero(amplitudes), initial=0))
    return tuple(q for q in range(mask.bit_length()) if mask >> q & 1)


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


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# a Pauli as x bit | z bit << 1, so that the phase-free product is an XOR
_PAULI_CODE = {"I": 0, "X": 1, "Z": 2, "Y": 3}


def pauli_matrix(string: str) -> np.ndarray:
    """Dense matrix of a Pauli string (char k acts on qubit k)."""
    m = np.array([[1.0 + 0j]])
    for ch in reversed(string):
        m = np.kron(m, _PAULI[ch])
    return m


def class_operators(generators) -> tuple:
    """The 7 non-identity products of a generator triple, phase dropped.

    The product of generator subset m (bit i selects generator i) sits at
    index m - 1.
    """
    operators = []
    for m in range(1, 8):
        codes = [0, 0, 0]
        for i, g in enumerate(generators):
            if (m >> i) & 1:
                codes = [c ^ _PAULI_CODE[ch] for c, ch in zip(codes, g)]
        operators.append("".join("IXZY"[c] for c in codes))
    return tuple(operators)


def projector_mubs() -> np.ndarray:
    """The 9 MUBs as common eigenbases of ``quantum._MUB_GENERATORS``, a
    (9, 8, 8) array with element e of basis b at ``[b, e]``.

    Each element is a column of the rank-1 projector product of
    (I +/- G_i)/2 over the basis's three generators, minus where bit i of
    the element is set, normalised, with its first nonzero amplitude made
    real positive.
    """
    bases = []
    for triple in _MUB_GENERATORS:
        gens = [pauli_matrix(s) for s in triple]
        states = []
        for element in range(8):
            proj = np.eye(8, dtype=complex)
            for i, g in enumerate(gens):
                sign = -1.0 if (element >> i) & 1 else 1.0
                proj = proj @ (np.eye(8) + sign * g) / 2.0
            column = int(np.argmax(np.abs(np.diag(proj)).real))
            vec = proj[:, column]
            vec = vec / np.linalg.norm(vec)
            first = int(np.flatnonzero(np.abs(vec) > 1e-9)[0])
            vec = vec * (np.conj(vec[first]) / np.abs(vec[first]))
            states.append(vec)
        bases.append(states)
    return np.array(bases)


def landscape_fractions(ising) -> list:
    """The exact energy of every DQES landscape record of ``ising``, in
    record order (triples lexicographic, then basis, then element).

    Each record weighs its triple's 8 support states, with the other qubits
    at 0, by the squared MUB amplitudes rounded to eighths (0 or 1 in basis
    0, 1/8 in bases 1-8), and their energies from ``energy_of_bitstring``.
    """
    probs = np.abs(build_mubs_3q()) ** 2  # (basis, element, support)
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


def optimize(objective, x0, max_evals=2000, seed=0, target=None, target_tol=0.0,
             restart_points=None):
    """Minimize ``objective`` by rotation descent, one vector at a time.

    Drives the ask/tell search that ``run_lockstep`` drives in batches, and
    returns its record (``best_params``, ``best_value``, ``history``,
    ``n_evaluations``).
    """
    search = _search(
        np.asarray(x0, dtype=float), max_evals, seed, target, target_tol, restart_points,
    )
    request = next(search)
    while True:
        try:
            request = search.send([objective(x) for x in request])
        except StopIteration as done:
            return done.value


def run_vqe(ising, init, ansatz=None, max_evals=2000, seed=0, ground_energy=None):
    """One VQE run from ``init``: a lockstep batch of one."""
    [trace] = run_lockstep(ising, [(init, seed)], ansatz, max_evals, ground_energy)
    return trace
