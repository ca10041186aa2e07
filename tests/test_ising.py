import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from reference import energy_of_bitstring, evaluate
from tspvqe import (
    IsingPolynomial,
    ProblemInstance,
    PseudoBooleanPolynomial,
    SizeCapError,
    ValidationError,
    audit_penalties,
    best_k,
    compute_landscape,
    encode_efficient,
    encode_fixed_start,
    encode_tsp_hamiltonian,
    ground_states,
    solve_exact_tsp,
    suggest_penalties,
    to_ising,
    validate_bitstring,
)
from tspvqe.ising import (
    bit_cells,
    cell_table,
    join_cells,
    render_rows,
    spectrum_csv_rows,
    stable_order,
)
from tspvqe.kernels import enumerate_spin_energies
from tspvqe.layouts import bits_to_string, index_to_bits
from tspvqe.oracle import Tour
from tspvqe.rationals import rational_to_json


def _poly(n_vars, constant=0, linear=(), quadratic=()):
    order = tuple((1, t) for t in range(1, n_vars + 1))
    return PseudoBooleanPolynomial(
        layout="full",
        node_count=n_vars,
        variable_order=order,
        constant=Fraction(constant),
        linear={order[i]: Fraction(c) for i, c in linear},
        quadratic={(order[i], order[j]): Fraction(c) for i, j, c in quadratic},
    )


def test_single_variable_transform():
    # x = (1 - s)/2
    ising = to_ising(_poly(1, linear=[(0, 1)]))
    assert ising.constant == Fraction(1, 2)
    assert ising.fields == {0: Fraction(-1, 2)}
    assert ising.couplings == {}


def test_product_transform():
    # x*y = (1 - s - s' + s s')/4
    ising = to_ising(_poly(2, quadratic=[(0, 1, 1)]))
    assert ising.constant == Fraction(1, 4)
    assert ising.fields == {0: Fraction(-1, 4), 1: Fraction(-1, 4)}
    assert ising.couplings == {(0, 1): Fraction(1, 4)}


def test_full_tsp_equivalence_exhaustive(complete4_instance, bit_energies):
    poly = encode_tsp_hamiltonian(complete4_instance)
    ising = to_ising(poly)
    binary, scale_b = bit_energies(poly)
    scale_s, const_s, h_s, J_s = ising.to_int_arrays()
    spins = enumerate_spin_energies(16, const_s, h_s, J_s)
    assert np.array_equal(binary * scale_s, spins * scale_b)


def _guard_form(last_coupling):
    """3 spins whose scaled |constant| + sum |h| + sum |J| is 2^62 - 2^60
    plus the scaled ``last_coupling`` (the scale is 2)."""
    return IsingPolynomial(
        n=3,
        constant=Fraction(1, 2),
        fields={0: Fraction(2**61 - 1, 2), 2: Fraction(-(2**58))},
        couplings={(0, 1): Fraction(2**58), (1, 2): last_coupling},
        variable_order=((1, 1), (1, 2), (1, 3)),
        layout="full",
        node_count=3,
    )


def test_int64_guard_refuses_bound_at_2_62():
    with pytest.raises(ValidationError):
        _guard_form(Fraction(2**59)).energy_float_vector()
    # the audit enumerates the Ising form of the full layout, so it is guarded too
    huge = ProblemInstance(2, False, "tsp", ((1, 2, 1),), 2**62, 1)
    with pytest.raises(ValidationError):
        audit_penalties(huge)


def test_int64_guard_just_below_bound_is_exact():
    ising = _guard_form(Fraction(2**60 - 1, 2))
    scale = ising.to_int_arrays()[0]
    assert scale == 2
    ints = ising.energy_int_vector()
    floats = ising.energy_float_vector()
    for z in range(8):
        bits = [(z >> k) & 1 for k in range(3)]
        exact = energy_of_bitstring(ising, bits)
        assert Fraction(int(ints[z]), scale) == exact
        assert floats[z] == float(exact)


def test_int64_guard_applies_after_the_gcd_reduction():
    """The 2^62 bound holds for the numerators over the least common
    denominator, not over 4 times the encoder's: a 2-node tsp with A = B =
    2^58 sums to 2^63 over 4 and to 2^61 reduced by 4, and is enumerated
    exactly; with A = B = 2^59 the reduced sum reaches 2^62 and is refused."""
    def spin_form(penalty):
        poly = encode_tsp_hamiltonian(
            ProblemInstance(2, False, "tsp", ((1, 2, 1),), penalty, penalty))
        ising = to_ising(poly)
        assert (poly.denominator, ising.denominator) == (1, 4)
        return poly, ising, sum(map(abs, ising.numerators.values()))

    poly, ising, unreduced = spin_form(2**58)
    assert unreduced == 2**63
    scale, const, h, J = ising.to_int_arrays()
    assert scale == 1
    assert abs(const) + int(np.abs(h).sum()) + int(np.abs(np.triu(J)).sum()) == 2**61
    ints = ising.energy_int_vector()
    for z in range(1 << poly.n_vars):
        assert int(ints[z]) == evaluate(poly, index_to_bits(z, poly.n_vars))
    with pytest.raises(ValidationError):
        spin_form(2**59)[1].to_int_arrays()


def _random_pq_form(n, seed):
    """A seeded spin form on n spins with p/q coefficients: about two thirds
    of the fields and half of the couplings set."""
    rng = random.Random(seed)
    values = [Fraction(p, q) for p in (-9, -4, -1, 1, 3, 7) for q in (1, 2, 3, 5)]
    return IsingPolynomial(
        n=n, constant=rng.choice(values),
        fields={i: rng.choice(values) for i in range(n) if rng.random() < 0.7},
        couplings={(i, j): rng.choice(values) for i in range(n) for j in range(i + 1, n)
                   if rng.random() < 0.5},
        variable_order=tuple((1, t) for t in range(1, n + 1)), layout="full", node_count=n)


def _form_at_the_bound():
    """4 spins whose |constant| + sum |h| + sum |J| is 2^62 - 1 at scale 1,
    most of it in couplings of both signs."""
    return IsingPolynomial(
        n=4, constant=2**57 - 6, fields={0: -(2**57), 3: 5},
        couplings={(0, 1): 2**61, (1, 2): -(2**60), (2, 3): 2**59, (0, 3): 2**58},
        variable_order=tuple((1, t) for t in range(1, 5)), layout="full", node_count=4)


@pytest.mark.parametrize("case", [*range(1, 21), "bound"])
def test_int_arrays_are_the_scaled_coefficients(case):
    """``to_int_arrays`` is (scale, const, h, J): the fields and the symmetric
    couplings times the scale, with a zero diagonal, every array read-only.
    At the 2^62 - 1 bound every energy is still exact."""
    ising = _form_at_the_bound() if case == "bound" else _random_pq_form(case, case)
    scale, const, h, J = ising.to_int_arrays()
    n = ising.n
    assert const == ising.constant * scale
    assert h.dtype == J.dtype == np.int64 and h.shape == (n,) and J.shape == (n, n)
    assert h.tolist() == [ising.fields.get(i, 0) * scale for i in range(n)]
    assert J.tolist() == [[ising.couplings.get((min(i, j), max(i, j)), 0) * scale
                           if i != j else 0 for j in range(n)] for i in range(n)]
    assert np.array_equal(J, J.T) and not J.diagonal().any()
    for array in (h, J):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    if case == "bound":
        assert scale == 1
        assert abs(const) + int(np.abs(h).sum()) + int(np.abs(np.triu(J)).sum()) == 2**62 - 1
    if n <= 12:
        ints = ising.energy_int_vector()
        assert [Fraction(int(e), scale) for e in ints] == [
            energy_of_bitstring(ising, index_to_bits(z, n)) for z in range(1 << n)]


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 12])
def test_minimum_is_the_brute_force_minimum(n):
    # no term holds the last spin, so every minimum comes twice
    rng = random.Random(n)
    ising = IsingPolynomial(
        n=n, constant=rng.randint(-3, 3), fields={i: rng.randint(-1, 1) for i in range(n - 1)},
        couplings={(i, j): rng.choice((-1, 0, 1, Fraction(1, 2)))
                   for i in range(n) for j in range(i + 1, n - 1)},
        variable_order=tuple((1, t) for t in range(1, n + 1)), layout="full", node_count=n)
    energies = [energy_of_bitstring(ising, index_to_bits(z, n)) for z in range(1 << n)]
    energy, indices = ising.minimum()
    assert type(energy) is Fraction and energy == min(energies)
    assert indices.tolist() == [z for z, e in enumerate(energies) if e == energy]
    assert list(indices) == sorted(indices) and len(indices) >= min(n, 2)


def test_same_row_and_column_couplings_are_half_a(complete4_instance):
    # one-hot squares expand to A/2 spin couplings inside a row and a column;
    # transition terms never touch same-node or same-step pairs, so these
    # couplings are exactly A/2
    a = complete4_instance.penalty_a
    poly = encode_tsp_hamiltonian(complete4_instance)
    ising = to_ising(poly)
    i_11 = poly.index_of((1, 1))
    i_12 = poly.index_of((1, 2))
    i_21 = poly.index_of((2, 1))
    assert ising.couplings[(min(i_11, i_12), max(i_11, i_12))] == a / 2
    assert ising.couplings[(min(i_11, i_21), max(i_11, i_21))] == a / 2


def test_field_coefficient_structure_on_complete_graph(landscape_instance):
    # expanding the one-hot squares gives every spin a uniform A(2-N) field;
    # the cost transitions then subtract B/2 times the node's incident cost
    poly = encode_tsp_hamiltonian(landscape_instance)
    ising = to_ising(poly)
    a = landscape_instance.penalty_a
    b = landscape_instance.penalty_b
    n = landscape_instance.node_count
    for v in range(1, n + 1):
        incident = sum(c for x, y, c in landscape_instance.edges if v in (x, y))
        for t in range(1, n + 1):
            expected = a * (2 - n) - b * incident / 2
            assert ising.fields[poly.index_of((v, t))] == expected


def test_fixed_start_adds_half_a_field(complete4_instance):
    # A(1 - x_{1,1})^2 contributes +A/2 to the (1,1) spin field
    a = complete4_instance.penalty_a
    plain = to_ising(encode_tsp_hamiltonian(complete4_instance))
    fixed = to_ising(encode_fixed_start(complete4_instance))
    idx = encode_tsp_hamiltonian(complete4_instance).index_of((1, 1))
    assert fixed.fields[idx] - plain.fields.get(idx, Fraction(0)) == a / 2
    assert fixed.constant - plain.constant == a / 2


def test_energy_of_ground_bitstring(landscape_instance):
    ising = to_ising(encode_efficient(landscape_instance))
    # cycle 1-2-4-3-1: bits for x_{2,2}, x_{4,3}, x_{3,4}
    assert energy_of_bitstring(ising, "100001010") == 13


def test_energy_matches_polynomial_at_zero(landscape_instance):
    poly = encode_efficient(landscape_instance)
    ising = to_ising(poly)
    zeros = "0" * 9
    assert energy_of_bitstring(ising, zeros) == evaluate(poly, zeros)


def test_randomized_differential_binary_vs_ising():
    rng = random.Random(101)
    for _ in range(20):
        n = rng.randint(1, 18)
        linear = [(i, Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
                  for i in range(n) if rng.random() < 0.7]
        quadratic = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    quadratic.append((i, j, Fraction(rng.randint(-9, 9), rng.randint(1, 3))))
        poly = _poly(n, constant=rng.randint(-5, 5), linear=linear, quadratic=quadratic)
        ising = to_ising(poly)
        for _ in range(50):
            bits = [rng.randint(0, 1) for _ in range(n)]
            assert energy_of_bitstring(ising, bits) == evaluate(poly, bits)


def test_spectrum_ground_structure(landscape_instance):
    ising = to_ising(encode_efficient(landscape_instance))
    assert len(ising.energy_int_vector()) == 512
    energy, ground = ground_states(ising)
    assert energy == 13  # constant retained: ground energy = B * cost
    assert len(ground) == 2
    tours = set()
    for bits in ground:
        decoded = validate_bitstring(landscape_instance, "efficient", bits)
        assert isinstance(decoded, Tour)
        tours.add(decoded.order)
    assert tours == {(1, 2, 4, 3), (1, 3, 4, 2)}


def _two_spins(fields=None, couplings=None):
    return IsingPolynomial(n=2, constant=0, fields=fields or {}, couplings=couplings or {},
                           variable_order=((1, 1), (1, 2)), layout="full", node_count=2)


@pytest.mark.parametrize("linear, quadratic, fields, couplings, message", [
    ({}, {((1, 1), (1, 1)): 1}, {}, {(0, 0): 1}, "quadratic term on repeated variable"),
    ({(5, 5): 1}, {}, {5: 1}, {}, "linear term on unknown variable"),
    ({(0, 0): 1}, {}, {-1: 1}, {}, "linear term on unknown variable"),
    ({}, {((1, 1), (9, 9)): 1}, {}, {(0, 2): 1}, "quadratic term on unknown variables"),
    ({}, {((0, 0), (1, 2)): 1}, {}, {(-1, 1): 1}, "quadratic term on unknown variables"),
])
def test_both_forms_refuse_bad_term_keys(linear, quadratic, fields, couplings, message):
    # s0 s0 is no coupling (s0^2 = 1), and -1 and 5 name no spin of two:
    # each is refused at construction, as the binary form refuses its keys
    with pytest.raises(ValidationError, match=message):
        PseudoBooleanPolynomial(layout="full", node_count=2, variable_order=((1, 1), (1, 2)),
                                constant=0, linear=linear, quadratic=quadratic)
    with pytest.raises(ValidationError, match=message):
        _two_spins(fields, couplings)


def test_coupling_keys_are_stored_sorted():
    ising = _two_spins({1: 1}, {(1, 0): Fraction(1, 2)})
    assert ising.numerators == {(1,): 2, (0, 1): 1}
    assert ising.couplings == {(0, 1): Fraction(1, 2)}
    doc = ising.to_json_dict()
    assert doc["fields"] == [[1, 1]] and doc["couplings"] == [[0, 1, "1/2"]]
    assert _two_spins(couplings={(0, 1): 1, (1, 0): -1}).numerators == {}
    assert ising.energy_int_vector().tolist() == [3, 1, -3, -1]  # 2 s1 + s0 s1, scale 2


def test_spectrum_tie_break_by_index():
    # 4*x0*x1 vanishes unless both bits are set: the zero level is threefold
    # degenerate and must come back in index order 00, 10, 01
    poly = _poly(2, quadratic=[(0, 1, 4)])
    rows = b"".join(spectrum_csv_rows(to_ising(poly)))
    assert rows == b"bitstring,energy\n00,0\n10,0\n01,0\n11,4\n"


def _random_ising(rng, n):
    """Spin form with p/q coefficients from a small set, so levels repeat."""
    values = [Fraction(p, q) for p in (-2, -1, 1, 3) for q in (2, 3)]
    return IsingPolynomial(
        n=n,
        constant=Fraction(5, 6),
        fields={i: rng.choice(values) for i in range(n) if rng.random() < 0.7},
        couplings={(i, j): rng.choice(values) for i in range(n)
                   for j in range(i + 1, n) if rng.random() < 0.4},
        variable_order=tuple((1, t) for t in range(1, n + 1)),
        layout="full",
        node_count=n,
    )


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 13])  # 13 spans two 4096-row chunks
def test_spectrum_rows_match_exact_energies(n):
    ising = _random_ising(random.Random(n), n)
    assert ising.to_int_arrays()[0] > 1
    expected = []
    for z in range(1 << n):
        bits = index_to_bits(z, n)
        expected.append((energy_of_bitstring(ising, bits), z, bits_to_string(bits)))
    expected.sort()  # by energy, ties by index
    if n > 2:  # degenerate levels present
        assert len(np.unique(ising.energy_int_vector())) < 1 << n
    assert b"".join(spectrum_csv_rows(ising)) == ("bitstring,energy\n" + "".join(
        f"{bits},{rational_to_json(energy)}\n" for energy, _, bits in expected
    )).encode()


@pytest.mark.parametrize("n, fields, across", [
    (13, {0: Fraction(1, 2), 1: Fraction(1, 2)}, True),  # a level from row 2048 to 6143
    (13, {0: Fraction(1, 2)}, False),  # levels that meet at row 4096
    (14, {3: Fraction(2, 3)}, True),  # a level over two whole blocks
], ids=["across", "at", "whole"])
def test_spectrum_levels_across_block_edges(n, fields, across):
    """A level that runs on past the end of a 4096-row block keeps its
    energy text in the next block."""
    ising = IsingPolynomial(n=n, constant=Fraction(1, 3), fields=fields, couplings={},
                            variable_order=tuple((1, t) for t in range(1, n + 1)),
                            layout="full", node_count=n)
    energies = sorted((energy_of_bitstring(ising, index_to_bits(z, n)), z)
                      for z in range(1 << n))
    assert (energies[4095][0] == energies[4096][0]) == across
    assert b"".join(spectrum_csv_rows(ising)) == ("bitstring,energy\n" + "".join(
        f"{bits_to_string(index_to_bits(z, n))},{rational_to_json(energy)}\n"
        for energy, z in energies)).encode()


def test_spectrum_csv_peak_memory_per_row():
    # the 24-spin cap must not be a memory cliff: writing a 20-spin p/q
    # spectrum into a sink holds the int64 energies, the sort order and one
    # block, at most 32 B of traced memory per row
    n = 20
    ising = _random_ising(random.Random(n), n)
    ising.to_int_arrays()
    tracemalloc.start()
    try:
        for _ in spectrum_csv_rows(ising):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ising._int_energies is not None  # enumerated while traced
    assert peak <= 32 << n


@pytest.mark.parametrize("low, span", [
    (-7, 1), (-12345, 1000), (1 - (1 << 62), 1000), (0, (1 << 16) - 1),
    (0, 1 << 16), (-5, 1 << 40), (1 - (1 << 62), (1 << 63) - 2),
    # 5000 indices take 13 bits: packed keys of 32, 33, 64 and 65 bits
    (0, (1 << 19) - 1), (-3, 1 << 19), (7, (1 << 51) - 1), (1 - (1 << 62), 1 << 51),
])
def test_energy_order_is_by_energy_then_index(low, span):
    # the offset from the minimum and the index packed in uint32 or uint64
    # keys, or the int64 stable sort where they do not fit in 64 bits: each
    # must give the stable order, ties (many here) by index, and a table is
    # ordered by its flat indices
    rng = np.random.default_rng(span % 997)
    levels = low + np.concatenate([[0, span], rng.integers(0, span, 30, endpoint=True)])
    ints = levels[rng.integers(0, len(levels), 5000)]
    order = stable_order(ints)
    assert np.array_equal(order, np.lexsort((np.arange(len(ints)), ints)))
    assert np.array_equal(order, np.argsort(ints, kind="stable"))
    assert np.array_equal(stable_order(ints.reshape(-1, 8)), order)
    # a transposed view's flat indices are those of its own C order
    table = ints.reshape(-1, 8).T
    assert np.array_equal(stable_order(table), np.argsort(table, axis=None, kind="stable"))


def test_forms_above_the_spin_cap_refused_at_the_call():
    """Every 2^n step refuses a 25-spin form when called, before it builds
    anything of its size: the one check in ``energy_int_vector`` (the
    landscape's own check comes before its qubit triples)."""
    ising = IsingPolynomial(n=25, constant=Fraction(0), fields={0: Fraction(1)},
                            couplings={(0, 24): Fraction(1)}, variable_order=(),
                            layout="full", node_count=5)
    steps = (ising.energy_int_vector, lambda: spectrum_csv_rows(ising),
             lambda: ground_states(ising), lambda: compute_landscape(ising))
    tracemalloc.start()
    try:
        for step in steps:
            with pytest.raises(SizeCapError, match="capped at 24 qubits, got 25"):
                step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert ising._int_energies is None


def test_audit_refuses_cap_above_hard_limit():
    # N=5 has 25 full-layout spins, one above the cap
    edges = tuple((u, v, 1) for u in range(1, 6) for v in range(u + 1, 6))
    with pytest.raises(SizeCapError, match="audit capped at 24 qubits, got 25"):
        audit_penalties(ProblemInstance(5, False, "tsp", edges, 6, 1))


def test_ground_states_match_oracle(landscape_instance, counterexample_instance):
    for instance, mode in ((landscape_instance, "lucas"), (counterexample_instance, "safe")):
        a, b = suggest_penalties(instance, mode)
        fixed = instance.with_penalties(a, b)
        ising = to_ising(encode_efficient(fixed))
        energy, bitstrings = ground_states(ising)
        cost, tours = solve_exact_tsp(fixed)
        assert energy == b * cost
        decoded = {validate_bitstring(fixed, "efficient", bits).order
                   for bits in bitstrings}
        assert decoded == {t.order for t in tours}


def test_cached_arrays_are_read_only(landscape_instance):
    """A write into the cached energies or coefficient arrays is refused, so
    no caller can change what later ``ground_states`` and landscapes read."""
    ising = to_ising(encode_efficient(landscape_instance))
    with pytest.raises(ValueError, match="read-only"):
        ising.energy_int_vector()[:] = -5
    for array in ising.to_int_arrays()[2:]:
        with pytest.raises(ValueError, match="read-only"):
            array[:] = 0
    assert ground_states(ising)[0] == 13
    assert best_k(compute_landscape(ising), 1)[0].energy == 13.0


def test_ground_states_of_zero_spins():
    assert ground_states(to_ising(_poly(0, constant=3))) == (3, [""])


def test_ground_states_of_a_flat_form_cross_blocks():
    # all 8192 states of a 13-spin form without terms tie: two 4096-row blocks
    energy, bitstrings = ground_states(to_ising(_poly(13)))
    assert energy == 0
    assert bitstrings == [bits_to_string(index_to_bits(z, 13)) for z in range(1 << 13)]


@pytest.mark.parametrize("cells", [
    [b"ab", b"cd", b"ef"],  # one width: nothing to drop
    [b",7\n", b",-1/3\n", b"x", b",12\n"],  # mixed widths
])
def test_render_rows_drops_only_the_padding(cells):
    rng = np.random.default_rng(len(cells))
    indices = rng.integers(0, 1 << 9, 50)
    picked = rng.integers(0, len(cells), 50)
    text = render_rows([bit_cells(indices, 9), cell_table(cells)[picked]])
    assert text == b"".join(
        bits_to_string(index_to_bits(int(z), 9)).encode() + cells[c]
        for z, c in zip(indices, picked)
    )


def _mask_rendering(columns) -> bytes:
    """The rows' text by numpy's boolean mask over the joined bytes, the
    compaction ``render_rows`` made before it used ``bytes.translate``."""
    text = join_cells(columns).view(np.uint8)
    return text[text != 0].tobytes()


@pytest.mark.parametrize("case", ["padded", "unpadded", "zero_bits"])
def test_render_rows_matches_the_boolean_mask(case):
    rng = np.random.default_rng(3)
    indices = rng.integers(0, 1 << 16, 4096)
    if case == "padded":  # cells of mixed widths, as the landscape's energies
        cells = cell_table([b",%d/%d\n" % (p, q) for p in range(-40, 40, 7) for q in (1, 3, 7)])
        columns = [bit_cells(indices, 16), cells[rng.integers(0, len(cells), len(indices))]]
    elif case == "unpadded":  # one width, as a spectrum block inside one suffix width
        columns = [bit_cells(indices, 16), np.broadcast_to(cell_table([b",-5/4\n"]), (4096,))]
    else:  # n = 0: every bit cell is one zero byte
        columns = [bit_cells(indices, 0), cell_table([b",7\n", b",-1/3\n"])[indices % 2]]
    expected = _mask_rendering(columns)
    assert (b"\0" in join_cells(columns).tobytes()) == (case != "unpadded")
    assert render_rows(columns) == expected
    assert b"\0" not in expected and len(expected.split(b"\n")) == len(indices) + 1
