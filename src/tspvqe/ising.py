"""Exact Ising form of pseudo-Boolean Hamiltonians and spectrum enumeration.

The transform substitutes x = (1 - s)/2 and keeps the constant term, so the
Ising ground energy equals the optimal Hamiltonian value (for safe penalties
that is B times the optimal tour cost).  Spin convention: s = +1 is bit 0,
matching the Pauli-Z eigenvalue of |0>.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import numpy as np

from . import kernels, layouts
from .encoder import PseudoBooleanPolynomial
from .errors import SizeCapError, ValidationError
from .rationals import rational_to_json

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
        if self._arrays is None:
            denoms = [self.constant.denominator]
            denoms += [c.denominator for c in self.fields.values()]
            denoms += [c.denominator for c in self.couplings.values()]
            scale = lcm(*denoms) if denoms else 1
            li = np.array(sorted(self.fields), dtype=np.int64)
            lv = np.array([int(self.fields[i] * scale) for i in li], dtype=np.int64)
            pairs = sorted(self.couplings)
            qi = np.array([p[0] for p in pairs], dtype=np.int64)
            qj = np.array([p[1] for p in pairs], dtype=np.int64)
            qv = np.array(
                [int(self.couplings[p] * scale) for p in pairs], dtype=np.int64
            )
            bound = abs(int(self.constant * scale)) + int(np.abs(lv).sum()) + int(
                np.abs(qv).sum()
            )
            if bound >= 1 << 62:
                raise ValidationError("Ising coefficients overflow int64 kernels")
            self._arrays = (scale, int(self.constant * scale), li, lv, qi, qj, qv)
        return self._arrays

    def _energy_int_vector(self) -> np.ndarray:
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
            self._float_energies = self._energy_int_vector().astype(np.float64) / scale
        return self._float_energies

    def energies_at(self, indices) -> np.ndarray:
        scale, const, li, lv, qi, qj, qv = self.to_int_arrays()
        ints = kernels.spin_energies_at(indices, self.n, const, li, lv, qi, qj, qv)
        return ints.astype(np.float64) / scale

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
    ints = ising._energy_int_vector()
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
    ints = ising._energy_int_vector()
    order = np.argsort(ints, kind="stable")
    return [
        (
            layouts.bits_to_string(layouts.index_to_bits(int(z), ising.n)),
            Fraction(int(ints[z]), scale),
        )
        for z in order
    ]
