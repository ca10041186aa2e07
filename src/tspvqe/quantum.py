"""Dense state vectors, gates, 3-qubit MUBs, and diagonal expectations.

Basis convention: bit k of a state index is qubit k (bit 0 least
significant), matching the encoder's variable order.  Pauli strings are
written with character k acting on qubit k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .ising import IsingPolynomial
from .layouts import SPIN_CAP

NORM_TOL = 1e-10

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_PAULI = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}


class QuantumState:
    """A unit-norm amplitude vector over n qubits."""

    __slots__ = ("n", "amplitudes")

    def __init__(self, amplitudes, check: bool = True):
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0 or amps.size & (amps.size - 1):
            raise ValidationError("amplitude vector length must be a power of two")
        self.n = int(amps.size).bit_length() - 1
        if self.n > SPIN_CAP:
            raise ValidationError(f"dense states are capped at {SPIN_CAP} qubits")
        if check and abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
            raise ValidationError("state is not normalized")
        self.amplitudes = amps

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def zero_state(n: int) -> QuantumState:
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return QuantumState(amps, check=False)


def basis_state(n: int, index: int) -> QuantumState:
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return QuantumState(amps, check=False)


def pauli_matrix(string: str) -> np.ndarray:
    """Dense matrix of a Pauli string (char k acts on qubit k)."""
    m = np.array([[1.0 + 0j]])
    for ch in reversed(string):
        m = np.kron(m, _PAULI[ch])
    return m


def _single_qubit(name, angle):
    if name == "H":
        return _H
    if name == "S":
        return _S
    if name == "X":
        return _X
    if name == "Ry":
        c, s = np.cos(angle / 2), np.sin(angle / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "Rz":
        return np.array(
            [[np.exp(-1j * angle / 2), 0], [0, np.exp(1j * angle / 2)]], dtype=complex
        )
    return None


def _two_qubit(name, angle):
    if name == "CX":
        m = np.eye(4, dtype=complex)
        # control = first qubit argument, target = second
        m[[2, 3]] = m[[3, 2]]
        return m
    if name == "CZ":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if name == "Rzz":
        ph = np.exp(np.array([-1, 1, 1, -1]) * 1j * angle / 2)
        return np.diag(ph)
    return None


def apply_gate(state: QuantumState, name: str, qubits, angle: float | None = None) -> QuantumState:
    """Apply a named gate; returns a new state (the input is not mutated)."""
    qubits = [qubits] if isinstance(qubits, int) else list(qubits)
    n = state.n
    for q in qubits:
        if not 0 <= q < n:
            raise ValidationError(f"qubit index {q} out of range for {n} qubits")
    if len(set(qubits)) != len(qubits):
        raise ValidationError("gate qubits must be distinct")
    mat = _single_qubit(name, angle) if len(qubits) == 1 else _two_qubit(name, angle)
    if mat is None:
        raise ValidationError(f"unknown gate {name!r} on {len(qubits)} qubit(s)")
    tensor = state.amplitudes.reshape((2,) * n)
    # axis n-1-q carries qubit q; tensordot over the gate's input axes
    axes = [n - 1 - q for q in qubits]
    k = len(qubits)
    gate = mat.reshape((2,) * (2 * k))
    moved = np.tensordot(gate, tensor, axes=(list(range(k, 2 * k)), axes))
    moved = np.moveaxis(moved, list(range(k)), axes)
    return QuantumState(moved.reshape(-1), check=False)


def embed_state(local, positions, n: int) -> QuantumState:
    """Place a small state on the given qubits; all other qubits stay |0>."""
    amps = local.amplitudes if isinstance(local, QuantumState) else np.asarray(local, complex)
    k = int(amps.size).bit_length() - 1
    positions = list(positions)
    if len(positions) != k or len(set(positions)) != k:
        raise ValidationError(f"need {k} distinct positions, got {positions}")
    if any(not 0 <= p < n for p in positions):
        raise ValidationError(f"positions {positions} out of range for {n} qubits")
    out = np.zeros(1 << n, dtype=complex)
    for m in range(1 << k):
        z = 0
        for bit_pos, p in enumerate(positions):
            if (m >> bit_pos) & 1:
                z |= 1 << p
        out[z] = amps[m]
    return QuantumState(out)


def expectation(ising: IsingPolynomial, state: QuantumState) -> float:
    """<state| H |state> for a diagonal Ising Hamiltonian.

    Classical energies are exact; only the probability-weighted
    accumulation is floating point.  Zero amplitudes are skipped.
    """
    if ising.n != state.n:
        raise ValidationError(
            f"Hamiltonian has {ising.n} spins but state has {state.n} qubits"
        )
    probs = state.probabilities()
    support = np.flatnonzero(probs > 0.0)
    energies = ising.energies_at(support)
    return float(probs[support] @ energies)


# -- mutually unbiased bases -------------------------------------------------


# generator triples of the 9 disjoint commuting classes of the 63
# non-identity Pauli strings (Lawrence, Brukner and Zeilinger 2002); their
# common eigenbases are the 9 MUBs, and basis 0 is the computational basis
_MUB_GENERATORS = (
    ("ZII", "IZI", "IIZ"),
    ("XII", "IXI", "IIX"),
    ("XZI", "ZXZ", "IZY"),
    ("YIZ", "IXZ", "ZZX"),
    ("YZZ", "ZXI", "ZIY"),
    ("XZZ", "ZYI", "ZIX"),
    ("XIZ", "IYZ", "ZZY"),
    ("YZI", "ZYZ", "IZX"),
    ("YII", "IYI", "IIY"),
)

# a Pauli as x bit | z bit << 1, so that the phase-free product is an XOR
_PAULI_CODE = {"I": 0, "X": 1, "Z": 2, "Y": 3}


def _class_operators(generators) -> tuple:
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


@dataclass(frozen=True)
class MubLibrary:
    """9 bases x 8 orthonormal 3-qubit states from commuting Pauli classes.

    ``bases[b][e]`` is the e-th state of basis b; element index bits encode
    the -1 eigenvalues of the basis's generator triple, so basis 0 is the
    computational basis with |111> as element 7.
    """

    bases: tuple
    operator_classes: tuple
    generators: tuple


@lru_cache(maxsize=1)
def build_mubs_3q() -> MubLibrary:
    """Construct the 9 MUBs as common eigenbases of ``_MUB_GENERATORS``.

    Each basis element is the rank-1 projector product of (I +/- G_i)/2 over
    the class's three generators; the global phase is fixed by making the
    first nonzero amplitude real positive.
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
        bases.append(np.array(states))
    return MubLibrary(
        bases=tuple(bases),
        operator_classes=tuple(_class_operators(t) for t in _MUB_GENERATORS),
        generators=_MUB_GENERATORS,
    )
