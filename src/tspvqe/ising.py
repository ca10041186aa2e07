"""Exact Ising form of pseudo-Boolean Hamiltonians and spectrum enumeration.

The transform substitutes x = (1 - s)/2 and keeps the constant term, so the
Ising ground energy equals the optimal Hamiltonian value (for safe penalties
that is B times the optimal tour cost).  Spin convention: s = +1 is bit 0,
matching the Pauli-Z eigenvalue of |0>.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from . import kernels, layouts
from .errors import SizeCapError
from .rationals import rational_to_json, scale_to_int64

if TYPE_CHECKING:
    from .encoder import PseudoBooleanPolynomial

SPECTRUM_VARIABLE_CAP = 24


@dataclass
class IsingPolynomial:
    """constant + sum h_i s_i + sum J_ij s_i s_j over spins s in {-1,+1}.

    Diagonal as an operator in the computational basis; immutable by
    convention after construction.
    """

    n: int
    constant: Fraction
    fields: dict
    couplings: dict
    variable_order: tuple
    layout: str
    node_count: int
    _arrays: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _int_energies: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _float_energies: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def to_int_arrays(self):
        """(scale, const, field spins, field values, coupling i, j, values) in int64."""
        if self._arrays is None:
            spins = sorted(self.fields)
            pairs = sorted(self.couplings)
            scale, const, values = scale_to_int64(
                self.constant,
                [self.fields[i] for i in spins] + [self.couplings[p] for p in pairs],
            )
            self._arrays = (
                scale,
                const,
                np.array(spins, dtype=np.int64),
                values[:len(spins)],
                np.array([i for i, _ in pairs], dtype=np.int64),
                np.array([j for _, j in pairs], dtype=np.int64),
                values[len(spins):],
            )
        return self._arrays

    def energy_int_vector(self) -> np.ndarray:
        """Scaled int64 energies of all 2^n basis states, enumerated once.

        Callers check their own size cap first.
        """
        if self._int_energies is None:
            _, const, li, lv, qi, qj, qv = self.to_int_arrays()
            self._int_energies = kernels.enumerate_spin_energies(
                self.n, const, li, lv, qi, qj, qv
            )
        return self._int_energies

    def energy_float_vector(self) -> np.ndarray:
        """float64 energies of all 2^n basis states (cached)."""
        if self._float_energies is None:
            if self.n > SPECTRUM_VARIABLE_CAP:
                raise SizeCapError(
                    f"energy vector capped at {SPECTRUM_VARIABLE_CAP} spins, got {self.n}"
                )
            scale = self.to_int_arrays()[0]
            self._float_energies = self.energy_int_vector().astype(np.float64) / scale
        return self._float_energies

    def energies_at(self, indices) -> np.ndarray:
        """float64 energies at the given basis-state indices."""
        return self.energy_float_vector()[np.asarray(indices, dtype=np.int64)]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "constant": rational_to_json(self.constant),
            "fields": [
                [int(i), rational_to_json(h)] for i, h in sorted(self.fields.items())
            ],
            "couplings": [
                [int(i), int(j), rational_to_json(c)]
                for (i, j), c in sorted(self.couplings.items())
            ],
        }


def to_ising(poly: PseudoBooleanPolynomial) -> IsingPolynomial:
    """Exact spin form of a quadratic pseudo-Boolean polynomial."""
    constant = poly.constant
    fields = {}
    couplings = {}

    def add_field(i, c):
        fields[i] = fields.get(i, Fraction(0)) + c

    def add_coupling(i, j, c):
        if i > j:
            i, j = j, i
        couplings[(i, j)] = couplings.get((i, j), Fraction(0)) + c

    for var, coef in poly.linear.items():
        # x = (1 - s)/2
        constant += coef / 2
        add_field(poly.index_of(var), -coef / 2)
    for (a, b), coef in poly.quadratic.items():
        # x_a x_b = (1 - s_a - s_b + s_a s_b)/4
        constant += coef / 4
        add_field(poly.index_of(a), -coef / 4)
        add_field(poly.index_of(b), -coef / 4)
        add_coupling(poly.index_of(a), poly.index_of(b), coef / 4)
    return IsingPolynomial(
        n=poly.n_vars,
        constant=constant,
        fields={i: c for i, c in fields.items() if c != 0},
        couplings={p: c for p, c in couplings.items() if c != 0},
        variable_order=poly.variable_order,
        layout=poly.layout,
        node_count=poly.node_count,
    )


def energy_of_bitstring(ising: IsingPolynomial, bits) -> Fraction:
    """Exact classical energy with s_i = 1 - 2*bit_i."""
    bits = layouts.coerce_bits(bits, ising.n)
    spins = [1 - 2 * b for b in bits]
    total = ising.constant
    for i, h in ising.fields.items():
        total += h * spins[i]
    for (i, j), c in ising.couplings.items():
        total += c * spins[i] * spins[j]
    return total


def ground_states(ising: IsingPolynomial, cap: int = SPECTRUM_VARIABLE_CAP):
    """(ground energy, all minimizing bitstrings in index order)."""
    if ising.n > cap:
        raise SizeCapError(f"enumeration capped at {cap} spins, got {ising.n}")
    scale = ising.to_int_arrays()[0]
    ints = ising.energy_int_vector()
    emin = int(ints.min())
    bitstrings = [
        layouts.bits_to_string(layouts.index_to_bits(int(z), ising.n))
        for z in np.flatnonzero(ints == emin)
    ]
    return Fraction(emin, scale), bitstrings


def spectrum(ising: IsingPolynomial, cap: int = SPECTRUM_VARIABLE_CAP):
    """All 2^n (bitstring, energy) pairs sorted by energy, ties by index."""
    if ising.n > cap:
        raise SizeCapError(f"spectrum capped at {cap} spins, got {ising.n}")
    scale = ising.to_int_arrays()[0]
    ints = ising.energy_int_vector()
    order = np.argsort(ints, kind="stable")
    return [
        (
            layouts.bits_to_string(layouts.index_to_bits(int(z), ising.n)),
            Fraction(int(ints[z]), scale),
        )
        for z in order
    ]
