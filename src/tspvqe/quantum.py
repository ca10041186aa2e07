"""The nine 3-qubit mutually unbiased bases, built from their Pauli classes.

The DQES landscape scores them and the VQE MUB starts are built from them;
a state is held and measured only in ``vqe``.  Basis convention: bit k of a
state index is qubit k (bit 0 least significant), matching the encoder's
variable order.  Pauli strings are written with character k acting on
qubit k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}


def pauli_matrix(string: str) -> np.ndarray:
    """Dense matrix of a Pauli string (char k acts on qubit k)."""
    m = np.array([[1.0 + 0j]])
    for ch in reversed(string):
        m = np.kron(m, _PAULI[ch])
    return m


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
