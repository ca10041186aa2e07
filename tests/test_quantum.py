import itertools

import numpy as np
import pytest

from reference import energy_of_bitstring
from tspvqe import (
    ValidationError,
    build_mubs_3q,
    embed_state,
    encode_efficient,
    expectation,
    ground_states,
    to_ising,
)
from tspvqe.quantum import QuantumState, pauli_matrix


class TestMubLibrary:
    def test_shape(self):
        mubs = build_mubs_3q()
        assert len(mubs.bases) == 9
        assert all(basis.shape == (8, 8) for basis in mubs.bases)
        assert len(mubs.operator_classes) == 9

    def test_classes_partition_the_nonidentity_paulis(self):
        mubs = build_mubs_3q()
        seen = set()
        for cls in mubs.operator_classes:
            assert len(cls) == 7
            seen.update(cls)
        assert len(seen) == 63
        assert "III" not in seen

    def test_classes_commute_internally(self):
        mubs = build_mubs_3q()
        for cls in mubs.operator_classes:
            for s1, s2 in itertools.combinations(cls, 2):
                m1, m2 = pauli_matrix(s1), pauli_matrix(s2)
                assert np.allclose(m1 @ m2, m2 @ m1)

    def test_within_basis_orthonormal(self):
        mubs = build_mubs_3q()
        for basis in mubs.bases:
            gram = basis.conj() @ basis.T
            assert np.max(np.abs(gram - np.eye(8))) < 1e-10

    def test_cross_basis_overlap_is_one_eighth(self):
        mubs = build_mubs_3q()
        for b1 in range(9):
            for b2 in range(b1 + 1, 9):
                overlap = np.abs(mubs.bases[b1].conj() @ mubs.bases[b2].T) ** 2
                assert np.max(np.abs(overlap - 0.125)) < 1e-10

    def test_basis_zero_is_computational(self):
        mubs = build_mubs_3q()
        assert np.allclose(mubs.bases[0], np.eye(8))
        assert np.allclose(mubs.bases[0][7], np.eye(8)[7])  # |111> is element 7

    def test_element_convention_on_every_basis(self):
        """<e|G_i|e> = -1 exactly when bit i of element e is set, and
        ``operator_classes[b][m - 1]`` is the phase-free product of generator
        subset m (bit i of m selects G_i)."""
        mubs = build_mubs_3q()
        for basis, gens, cls in zip(mubs.bases, mubs.generators, mubs.operator_classes):
            mats = [pauli_matrix(g) for g in gens]
            for element, state in enumerate(basis):
                for i, g in enumerate(mats):
                    expected = -1.0 if (element >> i) & 1 else 1.0
                    assert abs(np.vdot(state, g @ state) - expected) < 1e-10
            for m in range(1, 8):
                product = np.eye(8, dtype=complex)
                for i, g in enumerate(mats):
                    if (m >> i) & 1:
                        product = product @ g
                operator = pauli_matrix(cls[m - 1])
                phase = np.vdot(operator, product) / 8
                assert min(abs(phase - p) for p in (1, -1, 1j, -1j)) < 1e-12
                assert np.allclose(product, phase * operator, atol=1e-12)

    def test_generator_i_has_its_x_part_on_qubit_i(self):
        # fixes the order within each triple of bases 1-8, and so which
        # element index each state gets
        mubs = build_mubs_3q()
        assert mubs.generators[0] == ("ZII", "IZI", "IIZ")
        for gens in mubs.generators[1:]:
            for i, g in enumerate(gens):
                assert [ch in "XY" for ch in g] == [q == i for q in range(3)]

    def test_states_are_stabilizer_eigenvectors(self):
        mubs = build_mubs_3q()
        for basis, cls in zip(mubs.bases, mubs.operator_classes):
            mats = [pauli_matrix(s) for s in cls]
            for state in basis:
                for m in mats:
                    image = m @ state
                    eig = np.vdot(state, image)
                    assert abs(abs(eig) - 1.0) < 1e-10
                    assert np.allclose(image, eig * state, atol=1e-10)


class TestEmbed:
    def test_low_positions(self):
        mubs = build_mubs_3q()
        state = embed_state(mubs.bases[0][7], (0, 1, 2), 9)
        assert abs(state.amplitudes[7] - 1.0) < 1e-12

    def test_spread_positions(self):
        mubs = build_mubs_3q()
        state = embed_state(mubs.bases[0][7], (2, 5, 8), 9)
        assert abs(state.amplitudes[2 ** 2 + 2 ** 5 + 2 ** 8] - 1.0) < 1e-12

    def test_support_at_most_eight(self):
        mubs = build_mubs_3q()
        for basis in range(9):
            for element in range(8):
                state = embed_state(mubs.bases[basis][element], (1, 4, 6), 9)
                assert np.count_nonzero(state.amplitudes) <= 8

    def test_position_errors(self):
        mubs = build_mubs_3q()
        with pytest.raises(ValidationError):
            embed_state(mubs.bases[0][0], (0, 0, 1), 9)
        with pytest.raises(ValidationError):
            embed_state(mubs.bases[0][0], (0, 1, 9), 9)


@pytest.fixture(scope="module")
def landscape_ising(landscape_instance):
    return to_ising(encode_efficient(landscape_instance))


class TestExpectation:
    def test_basis_state_energy(self, landscape_ising):
        amps = np.zeros(512, dtype=complex)
        amps[161] = 1.0  # bits 100001010 -> index 161
        state = QuantumState(amps)
        assert expectation(landscape_ising, state) == pytest.approx(
            float(energy_of_bitstring(landscape_ising, "100001010")), abs=1e-12
        )

    def test_uniform_ground_mixture(self, landscape_ising):
        energy, bitstrings = ground_states(landscape_ising)
        indices = [int(bits[::-1], 2) for bits in bitstrings]
        amps = np.zeros(512, dtype=complex)
        amps[indices] = 1.0 / np.sqrt(2)
        assert expectation(landscape_ising, QuantumState(amps)) == pytest.approx(
            float(energy), abs=1e-9
        )

    def test_uniform_superposition_is_spectrum_mean(self, landscape_ising):
        mean = float(np.mean(landscape_ising.energy_float_vector()))
        amps = np.full(512, 1.0 / np.sqrt(512), dtype=complex)
        assert expectation(landscape_ising, QuantumState(amps)) == pytest.approx(
            mean, rel=1e-12
        )

    def test_bounds(self, landscape_ising):
        energies = landscape_ising.energy_float_vector()
        rng = np.random.default_rng(5)
        for _ in range(20):
            amps = rng.normal(size=512) + 1j * rng.normal(size=512)
            amps /= np.linalg.norm(amps)
            value = expectation(landscape_ising, QuantumState(amps))
            assert energies.min() - 1e-9 <= value <= energies.max() + 1e-9

    def test_size_mismatch(self, landscape_ising):
        with pytest.raises(ValidationError):
            expectation(landscape_ising, QuantumState(np.eye(16, dtype=complex)[0]))

    def test_linear_in_the_hamiltonian(self, landscape_ising):
        from fractions import Fraction

        from tspvqe import IsingPolynomial

        rng = np.random.default_rng(31)
        other = IsingPolynomial(
            n=9,
            constant=Fraction(3),
            fields={i: Fraction(rng.integers(-5, 5)) for i in range(9)},
            couplings={(0, 5): Fraction(2), (3, 7): Fraction(-1)},
            variable_order=landscape_ising.variable_order,
            layout="efficient",
            node_count=4,
        )
        combined = IsingPolynomial(
            n=9,
            constant=landscape_ising.constant + other.constant,
            fields={
                i: landscape_ising.fields.get(i, 0) + other.fields.get(i, 0)
                for i in set(landscape_ising.fields) | set(other.fields)
            },
            couplings={
                p: landscape_ising.couplings.get(p, 0) + other.couplings.get(p, 0)
                for p in set(landscape_ising.couplings) | set(other.couplings)
            },
            variable_order=landscape_ising.variable_order,
            layout="efficient",
            node_count=4,
        )
        amps = rng.normal(size=512) + 1j * rng.normal(size=512)
        amps /= np.linalg.norm(amps)
        state = QuantumState(amps)
        assert expectation(combined, state) == pytest.approx(
            expectation(landscape_ising, state) + expectation(other, state), rel=1e-10
        )

    def test_convex_over_mixtures(self, landscape_ising):
        # a probabilistic mixture's energy is the weighted state energies
        rng = np.random.default_rng(37)
        states = []
        for _ in range(3):
            amps = rng.normal(size=512) + 1j * rng.normal(size=512)
            amps /= np.linalg.norm(amps)
            states.append(QuantumState(amps))
        weights = np.array([0.5, 0.3, 0.2])
        mixture_energy = sum(
            w * expectation(landscape_ising, s) for w, s in zip(weights, states)
        )
        values = [expectation(landscape_ising, s) for s in states]
        assert min(values) - 1e-9 <= mixture_energy <= max(values) + 1e-9

