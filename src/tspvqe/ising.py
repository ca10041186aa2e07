"""Exact Ising form of pseudo-Boolean Hamiltonians and spectrum enumeration.

The transform substitutes x = (1 - s)/2 and keeps the constant term, so the
Ising ground energy equals the optimal Hamiltonian value (for safe penalties
that is B times the optimal tour cost).  Spin convention: s = +1 is bit 0,
matching the Pauli-Z eigenvalue of |0>.  Both forms are
``rationals.ExactPolynomial`` cores.  The transform walks the binary form's
``numerators`` dict and sums ints over 4 times its denominator into the
spin form's, keyed by the same indices; ``to_int_arrays`` reduces those by
one gcd to the int64 kernels' scale, and gives them in the one integer form
the enumeration kernel takes: ``(scale, const, h, J)``, the fields ``h`` and
the symmetric couplings ``J`` as dense int64 arrays.

Every 2^n step goes through ``energy_int_vector``, which refuses a form
above ``layouts.SPIN_CAP`` spins before it allocates anything.  Its minimum
has one home, ``IsingPolynomial.minimum``: the ground states, the penalty
audit and the ground energy of an experiment read it.  ``stable_order`` is
the one stable integer sort, of value and index packed into one unsigned
key where they fit: the spectrum's order and ``dqes.best_k``'s.  The
spectrum repeats each level's text over its run of rows.

``render_rows`` is the one block text renderer: the spectrum CSV, the ground
bitstrings and the landscape CSV of ``dqes`` are written by it, as ASCII
bytes that go to the output as they are.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import TYPE_CHECKING

import numpy as np

from . import kernels, layouts
from .errors import ValidationError
from .rationals import ExactPolynomial, exact_terms, rational_to_json

if TYPE_CHECKING:
    from .encoder import PseudoBooleanPolynomial


def scale_to_int64(denominator: int, numerators: dict, n: int):
    """(scale, const, h, J): the terms ``numerators`` (an ``ExactPolynomial``'s
    on n spins) over ``denominator``, as exact ints over their least common
    denominator ``scale``: the constant, the int64 fields ``h``, shape
    ``(n,)``, and the symmetric int64 couplings ``J``, shape ``(n, n)``, with
    a zero diagonal.

    ``scale`` is ``denominator`` divided by its gcd with every numerator.
    Raises ``ValidationError`` unless the scaled |const| + sum |h_i| +
    sum_{i<j} |J_ij| is below 2^62, the bound under which the int64 energy
    kernel is exact.
    """
    g = gcd(denominator, *numerators.values())
    if sum(map(abs, numerators.values())) >= g << 62:  # each numerator is g times its int
        raise ValidationError("coefficients overflow int64 kernels")
    h = np.zeros(n, dtype=np.int64)
    J = np.zeros((n, n), dtype=np.int64)
    for key, c in numerators.items():
        if len(key) == 2:
            J[key] = J[key[::-1]] = c // g
        elif key:
            h[key] = c // g
    return denominator // g, numerators.get((), 0) // g, h, J


class IsingPolynomial(ExactPolynomial):
    """constant + sum h_i s_i + sum J_ij s_i s_j over spins s in {-1,+1}.

    Diagonal as an operator in the computational basis.  The
    ``ExactPolynomial`` over spins 0..n-1: ``fields`` ({i: Fraction}) and
    ``couplings`` ({(i, j): Fraction}, i < j) are its terms as Fractions,
    built on first read.  The constructor takes Fractions or ints; a
    coupling given as (j, i) is stored as (i, j).
    """

    _arrays = None  # to_int_arrays(), filled on first call
    _int_energies = None  # energy_int_vector(), filled on first call

    def __init__(self, n, constant, fields, couplings, variable_order, layout, node_count):
        self.n = n
        self.variable_order = variable_order
        self.layout = layout
        self.node_count = node_count
        self.denominator, self.numerators = exact_terms(
            {i: i for i in range(n)}, constant, fields, couplings)

    @cached_property
    def fields(self) -> dict:
        return {i: h for (i,), h in self.fractions(1).items()}

    @cached_property
    def couplings(self) -> dict:
        return self.fractions(2)

    def to_int_arrays(self):
        """(scale, const, h, J) in int64: the fields ``h``, shape ``(n,)``, and
        the symmetric couplings ``J``, shape ``(n, n)``, with a zero diagonal,
        over their least common denominator ``scale`` (``scale_to_int64``).
        The arrays are read-only.
        """
        if self._arrays is None:
            self._arrays = scale_to_int64(self.denominator, self.numerators, self.n)
            for array in self._arrays[2:]:
                array.flags.writeable = False
        return self._arrays

    def energy_int_vector(self) -> np.ndarray:
        """Scaled int64 energies of all 2^n basis states, enumerated once; the
        array is read-only."""
        if self._int_energies is None:
            layouts.check_spins(self.n, "energy vector")
            self._int_energies = kernels.enumerate_spin_energies(self.n, *self.to_int_arrays()[1:])
            self._int_energies.flags.writeable = False
        return self._int_energies

    def minimum(self):
        """(minimum energy as a Fraction, the ascending indices of the basis
        states that reach it), from the enumerated energies."""
        ints = self.energy_int_vector()
        low = ints.min()
        return Fraction(int(low), self.to_int_arrays()[0]), np.flatnonzero(ints == low)

    def energy_float_vector(self) -> np.ndarray:
        """float64 energies of all 2^n basis states, scaled from the int64 ones."""
        ints = self.energy_int_vector()
        return ints.astype(np.float64) / self.to_int_arrays()[0]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "constant": rational_to_json(self.constant),
            "fields": [[i, rational_to_json(h)] for (i,), h in self.fractions(1).items()],
            "couplings": [[i, j, rational_to_json(c)] for (i, j), c in self.fractions(2).items()],
        }


def to_ising(poly: PseudoBooleanPolynomial) -> IsingPolynomial:
    """Exact spin form of a quadratic pseudo-Boolean polynomial.

    Walks ``poly.numerators`` and sums Python ints over 4 times its
    denominator; a product x_i x_j gives the coupling of the same key.
    """
    constant = 0
    fields = [0] * poly.n_vars
    sums = {}
    for key, c in poly.numerators.items():
        if len(key) == 2:
            # x_i x_j = (1 - s_i - s_j + s_i s_j)/4
            i, j = key
            constant += c
            fields[i] -= c
            fields[j] -= c
            sums[key] = c
        elif key:
            # x = (1 - s)/2
            constant += 2 * c
            fields[key[0]] -= 2 * c
        else:
            constant += 4 * c
    sums[()] = constant
    sums.update(((i,), h) for i, h in enumerate(fields))
    return IsingPolynomial.of(
        4 * poly.denominator, sums, n=poly.n_vars, variable_order=poly.variable_order,
        layout=poly.layout, node_count=poly.node_count,
    )


# Rows per rendered block: a block's buffers stay a few hundred KB, because
# buffers of a megabyte or more fragment the C heap of a long-running process.
_BLOCK_ROWS = 4096


def cell_table(cells) -> np.ndarray:
    """Byte strings as one ``V<widest>`` array, each padded with zero bytes."""
    width = max(map(len, cells))
    return np.frombuffer(b"".join(cell.ljust(width, b"\0") for cell in cells), f"V{width}")


def bit_cells(indices: np.ndarray, n: int) -> np.ndarray:
    """The n-character bitstrings of basis states ``indices`` as ``V<n>`` cells.

    Character k is bit k of the index.  At n = 0 each cell is one zero byte,
    which ``render_rows`` drops.
    """
    if not n:
        return np.zeros(len(indices), dtype="V1")
    bits = np.unpackbits(
        indices.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8),
        axis=1, count=n, bitorder="little",
    )
    bits += ord("0")
    return bits.view(f"V{n}").ravel()


def join_cells(columns) -> np.ndarray:
    """Equal-length arrays of ``V`` cells laid side by side, as one ``V`` array.

    Cell k of the result holds cell k of every column in turn, padding
    included; each column may be a broadcast view.
    """
    row = np.dtype([(f"f{k}", column.dtype) for k, column in enumerate(columns)])
    block = np.empty(len(columns[0]), dtype=row)
    for k, column in enumerate(columns):
        block[f"f{k}"] = column
    return block.view(f"V{row.itemsize}")


def render_rows(columns) -> bytes:
    """The ASCII text of equal-length arrays of ``V`` cells, row by row.

    Each row is one record with one field per column (``join_cells``);
    dropping every zero byte (the cells' padding) leaves the text, in one
    pass of ``bytes.translate`` over the block's bytes.  A block without
    padding, such as a spectrum block inside one suffix width, skips that
    compaction.
    """
    text = join_cells(columns).tobytes()
    return text.translate(None, b"\0") if b"\0" in text else text


def _bitstrings(indices: np.ndarray, n: int) -> list:
    """Textual bitstrings of basis-state indices, rendered a block at a time."""
    strings = []
    for at in range(0, len(indices), _BLOCK_ROWS):
        block = indices[at:at + _BLOCK_ROWS]
        newlines = np.frombuffer(b"\n" * len(block), "V1")
        strings += render_rows([bit_cells(block, n), newlines]).decode().split("\n")[:-1]
    return strings


def ground_states(ising: IsingPolynomial):
    """(ground energy, all minimizing bitstrings in index order)."""
    energy, indices = ising.minimum()
    return energy, _bitstrings(indices, ising.n)


def _energy_suffix(value: int, scale: int) -> bytes:
    """``,energy`` and a newline, the energy ``value / scale`` written as by
    ``rational_to_json``."""
    g = gcd(value, scale)
    if g == scale:
        return b",%d\n" % (value // scale)
    return b",%d/%d\n" % (value // g, scale // g)


def spectrum_csv_rows(ising: IsingPolynomial):
    """The spectrum CSV as bytes: the header line, then blocks of at most
    4096 rows.

    All 2^n rows ``bitstring,energy`` sorted by energy, ties by index.  The
    energies are enumerated, and a form above the spin cap refused, before
    the first block is asked for.  Beyond the cached int64 energies, the
    only full-length array is the sort order, and the text of each energy
    level is rendered once.
    """
    ints = ising.energy_int_vector()
    return _spectrum_blocks(ising.n, ising.to_int_arrays()[0], ints)


def stable_order(values: np.ndarray) -> np.ndarray:
    """The flat indices of ``values``, int64 or Python ints, sorted by value,
    ties by index.

    Where the offset of a value from the minimum and its index fit in 64
    bits side by side, each is packed into one unsigned key, offset << b |
    index, with b the bit length of the last index: in uint32 when the keys
    fit, else uint64.  The keys are distinct, so any sort of them gives the
    stable order, and the index is masked back out.  Wider spans take
    numpy's stable sort.  An int64 span cannot overflow: every |value| < 2^62.
    """
    low = values.min()
    b = (values.size - 1).bit_length()
    width = (int(values.max()) - int(low)).bit_length() + b
    if width > 64:
        return np.argsort(values, axis=None, kind="stable")
    # typed scalars: numpy 1.24 would promote a Python int shift to float64
    key = np.uint32 if width <= 32 else np.uint64
    keys = (values.reshape(-1) - low).astype(key)
    keys <<= key(b)
    keys |= np.arange(values.size, dtype=key)
    keys.sort()
    keys &= key((1 << b) - 1)
    return keys.astype(np.intp)


def _spectrum_blocks(n: int, scale: int, ints: np.ndarray):
    yield b"bitstring,energy\n"
    order = stable_order(ints)
    for at in range(0, len(order), _BLOCK_ROWS):
        indices = order[at:at + _BLOCK_ROWS]
        energies = ints[indices]
        # the first row of each level in the block, and the rows it runs for
        starts = np.flatnonzero(np.concatenate(([True], energies[1:] != energies[:-1])))
        runs = np.diff(starts, append=len(energies))
        suffixes = [_energy_suffix(v, scale) for v in energies[starts].tolist()]
        yield render_rows([bit_cells(indices, n), np.repeat(cell_table(suffixes), runs)])
