"""The nine 3-qubit mutually unbiased bases, set in closed form from the
generator triples of their Pauli classes.

The DQES landscape scores them and the VQE MUB starts are built from them;
a state is held and measured only in ``vqe``.  Basis convention: bit k of a
state index is qubit k (bit 0 least significant), matching the encoder's
variable order.  Pauli strings are written with character k acting on
qubit k.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

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

# i^k / sqrt(8) at index k.  The real scalar leaves no negative zero, and
# 1 / np.sqrt(8) is one ulp below 8 ** -0.5: the tests pin the table's bits
_PHASES = np.array([1, 1j, -1, -1j]) * (1 / np.sqrt(8))


@lru_cache(maxsize=1)
def build_mubs_3q() -> np.ndarray:
    """The 9 MUBs as a read-only (9, 8, 8) complex array; ``[b, e]`` is the
    e-th state of basis b.

    Bit i of e is set when the state has eigenvalue -1 under generator i of
    ``_MUB_GENERATORS[b]``, so basis 0 is the computational basis with |111>
    as element 7.  In bases 1-8, generator i is i^(#Y) X^a Z^z with its
    x-part a on qubit i alone, so each amplitude follows from one set
    before it: psi(y | a) = (-1)^(e_i) i^(#Y) (-1)^|z & y| psi(y) for
    y < a, from psi(0) = 8^(-1/2).  The phases are counted in powers of i.
    """
    table = np.zeros((9, 8, 8), dtype=complex)
    table[0] = np.eye(8)
    for b, triple in enumerate(_MUB_GENERATORS[1:], 1):
        for e in range(8):
            power = [0] * 8
            for i, g in enumerate(triple):
                z = sum(1 << q for q, ch in enumerate(g) if ch in "ZY")
                step = 2 * (e >> i & 1) + g.count("Y")
                for y in range(1 << i):
                    power[y | 1 << i] = (power[y] + step + 2 * bin(z & y).count("1")) % 4
            table[b, e] = _PHASES[power]
    table.flags.writeable = False
    return table
