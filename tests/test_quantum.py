import itertools
from fractions import Fraction

import numpy as np
import pytest

from reference import (
    class_operators,
    energy_of_bitstring,
    expectation,
    pauli_matrix,
    projector_mubs,
    spread,
)
from tspvqe import (
    AnsatzConfig,
    IsingPolynomial,
    MubInit,
    ValidationError,
    ZerosInit,
    build_mubs_3q,
    encode_efficient,
    ground_states,
    to_ising,
)
from tspvqe.quantum import _MUB_GENERATORS
from tspvqe.vqe import _Tally, run_lockstep


_CLASSES = tuple(class_operators(triple) for triple in _MUB_GENERATORS)


class TestMubLibrary:
    def test_shape(self):
        mubs = build_mubs_3q()
        assert mubs.shape == (9, 8, 8) and mubs.dtype == np.complex128
        assert len(_CLASSES) == 9

    def test_matches_the_projector_reference_bit_for_bit(self):
        """Every amplitude of the closed-form table has the bits of the
        projector-product build, signed zeros included."""
        mubs, reference = build_mubs_3q(), projector_mubs()
        for part in ("real", "imag"):
            got = getattr(mubs, part).view(np.uint64)
            want = getattr(reference, part).view(np.uint64)
            assert got.tobytes() == want.tobytes(), part

    def test_table_is_read_only(self):
        mubs = build_mubs_3q()
        before = mubs[1, 0, 0]
        with pytest.raises(ValueError):
            mubs[1, 0, 0] = 0
        with pytest.raises(ValueError):
            mubs[1][0, 0] = 0
        assert build_mubs_3q() is mubs and mubs[1, 0, 0] == before

    def test_classes_partition_the_nonidentity_paulis(self):
        seen = set()
        for cls in _CLASSES:
            assert len(cls) == 7
            seen.update(cls)
        assert len(seen) == 63
        assert "III" not in seen

    def test_classes_commute_internally(self):
        for cls in _CLASSES:
            for s1, s2 in itertools.combinations(cls, 2):
                m1, m2 = pauli_matrix(s1), pauli_matrix(s2)
                assert np.allclose(m1 @ m2, m2 @ m1)

    def test_within_basis_orthonormal(self):
        for basis in build_mubs_3q():
            gram = basis.conj() @ basis.T
            assert np.max(np.abs(gram - np.eye(8))) < 1e-10

    def test_cross_basis_overlap_is_one_eighth(self):
        mubs = build_mubs_3q()
        for b1 in range(9):
            for b2 in range(b1 + 1, 9):
                overlap = np.abs(mubs[b1].conj() @ mubs[b2].T) ** 2
                assert np.max(np.abs(overlap - 0.125)) < 1e-10

    def test_basis_zero_is_computational(self):
        mubs = build_mubs_3q()
        assert mubs[0].tobytes() == np.eye(8, dtype=complex).tobytes()
        assert np.array_equal(mubs[0][7], np.eye(8)[7])  # |111> is element 7

    def test_element_convention_on_every_basis(self):
        """<e|G_i|e> = -1 exactly when bit i of element e is set, and class
        operator m - 1 is the phase-free product of generator subset m (bit
        i of m selects G_i)."""
        for basis, gens, cls in zip(build_mubs_3q(), _MUB_GENERATORS, _CLASSES):
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
        assert _MUB_GENERATORS[0] == ("ZII", "IZI", "IIZ")
        for gens in _MUB_GENERATORS[1:]:
            for i, g in enumerate(gens):
                assert [ch in "XY" for ch in g] == [q == i for q in range(3)]

    def test_states_are_stabilizer_eigenvectors(self):
        for basis, cls in zip(build_mubs_3q(), _CLASSES):
            mats = [pauli_matrix(s) for s in cls]
            for state in basis:
                for m in mats:
                    image = m @ state
                    eig = np.vdot(state, image)
                    assert abs(abs(eig) - 1.0) < 1e-10
                    assert np.allclose(image, eig * state, atol=1e-10)


class TestEmbed:
    """A MUB start as ``MubInit.build`` holds it: on the triple's qubits it
    occupies, every other qubit |0>."""

    def test_low_positions(self):
        held, amps, _ = MubInit(positions=(0, 1, 2), basis=0, element=7).build(9)
        assert held == (0, 1, 2)
        assert abs(amps[7] - 1.0) < 1e-12
        assert abs(spread(amps, held, 9)[7] - 1.0) < 1e-12

    def test_spread_positions(self):
        held, amps, _ = MubInit(positions=(2, 5, 8), basis=0, element=7).build(9)
        assert held == (2, 5, 8)
        assert abs(spread(amps, held, 9)[2 ** 2 + 2 ** 5 + 2 ** 8] - 1.0) < 1e-12

    def test_support_at_most_eight(self):
        for basis in range(9):
            for element in range(8):
                init = MubInit(positions=(1, 4, 6), basis=basis, element=element)
                held, amps, _ = init.build(9)
                assert amps.size <= 8
                assert np.count_nonzero(spread(amps, held, 9)) <= 8

    def test_position_errors(self):
        with pytest.raises(ValidationError):
            MubInit(positions=(0, 0, 1), basis=0, element=0)
        with pytest.raises(ValidationError):
            MubInit(positions=(0, 1, 9), basis=0, element=0).build(9)


@pytest.fixture(scope="module")
def landscape_ising(landscape_instance):
    return to_ising(encode_efficient(landscape_instance))


def _measure(ising, amplitudes, held):
    """The energy and peak basis index ``vqe._Tally`` gives a state held on
    ``held``, and the same for its spread onto all n qubits."""
    energies = ising.energy_float_vector()
    probabilities = np.abs(np.asarray(amplitudes)) ** 2
    results = []
    for probs, on in ((probabilities, held),
                      (np.abs(spread(amplitudes, held, ising.n)) ** 2, None)):
        tally = _Tally(energies)
        results.append((tally(probs, on), tally.peak))
    return results


def _random_state(rng, size):
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    return amps / np.linalg.norm(amps)


# held on part of the 9 qubits, and on all of them
_HELD = ((0, 5, 7), (1, 2, 4, 6, 8), tuple(range(9)))


class TestExpectation:
    """The one expectation the program runs, ``vqe._Tally``, on a state held
    on part of its qubits and on the same state spread onto all of them."""

    def test_basis_state_energy(self, landscape_ising):
        # bits 100001010: qubits 0, 5 and 7 set, index 161
        exact = float(energy_of_bitstring(landscape_ising, "100001010"))
        amps = np.zeros(8, dtype=complex)
        amps[7] = 1.0
        for value, peak in _measure(landscape_ising, amps, (0, 5, 7)):
            assert value == pytest.approx(exact, abs=1e-12)
            assert peak == 161

    def test_uniform_ground_mixture(self, landscape_ising):
        energy, bitstrings = ground_states(landscape_ising)
        held = tuple(q for q in range(9) if any(bits[q] == "1" for bits in bitstrings))
        amps = np.zeros(1 << len(held), dtype=complex)
        for bits in bitstrings:
            amps[sum(1 << i for i, q in enumerate(held) if bits[q] == "1")] = 1 / np.sqrt(2)
        for value, _ in _measure(landscape_ising, amps, held):
            assert value == pytest.approx(float(energy), abs=1e-9)

    def test_uniform_superposition_is_spectrum_mean(self, landscape_ising):
        for held in _HELD:
            amps = np.full(1 << len(held), 1 / np.sqrt(1 << len(held)), dtype=complex)
            states = np.flatnonzero(spread(amps, held, 9))
            mean = sum(energy_of_bitstring(landscape_ising, [(z >> q) & 1 for q in range(9)])
                       for z in states) / len(states)
            for value, _ in _measure(landscape_ising, amps, held):
                assert value == pytest.approx(float(mean), rel=1e-12)

    def test_bounds(self, landscape_ising):
        energies = landscape_ising.energy_float_vector()
        rng = np.random.default_rng(5)
        for _ in range(20):
            for held in _HELD:
                for value, _ in _measure(landscape_ising, _random_state(rng, 1 << len(held)),
                                         held):
                    assert energies.min() - 1e-9 <= value <= energies.max() + 1e-9

    def test_size_mismatch(self, landscape_ising):
        # the program refuses an ansatz whose states have another qubit count
        with pytest.raises(ValidationError, match="ansatz qubit count must match"):
            run_lockstep(landscape_ising, [(ZerosInit(), 0)], ansatz=AnsatzConfig(n=4))

    def test_linear_in_the_hamiltonian(self, landscape_ising):
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
        for held in _HELD:
            amps = _random_state(rng, 1 << len(held))
            for whole, first, second in zip(
                    *(_measure(h, amps, held) for h in (combined, landscape_ising, other))):
                assert whole[0] == pytest.approx(first[0] + second[0], rel=1e-10)

    def test_convex_over_mixtures(self, landscape_ising):
        # a probabilistic mixture's energy is the weighted state energies
        energies = landscape_ising.energy_float_vector()
        rng = np.random.default_rng(37)
        weights = np.array([0.5, 0.3, 0.2])
        for held in _HELD:
            probabilities = np.abs([_random_state(rng, 1 << len(held)) for _ in weights]) ** 2
            spread_out = np.array([spread(p, held, 9).real for p in probabilities])
            for probs, on in ((probabilities, held), (spread_out, None)):
                values = [_Tally(energies)(p, on) for p in probs]
                mixture_energy = _Tally(energies)(weights @ probs, on)
                assert mixture_energy == pytest.approx(float(weights @ values), rel=1e-12)
                assert min(values) - 1e-9 <= mixture_energy <= max(values) + 1e-9

    def test_held_state_matches_its_spread(self, landscape_ising):
        # and both match the reference, exact energies summed with fsum
        rng = np.random.default_rng(43)
        for held in _HELD + ((), (3,), (0, 8)):
            for _ in range(5):
                amps = _random_state(rng, 1 << len(held))
                (value, peak), (full_value, full_peak) = _measure(landscape_ising, amps, held)
                assert abs(value - full_value) <= 1e-12
                assert peak == full_peak
                assert value == pytest.approx(
                    expectation(landscape_ising, spread(amps, held, 9)), rel=1e-12)
