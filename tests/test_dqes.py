import json
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from reference import expectation, landscape_fractions, optimize, run_vqe, spread
from tspvqe import (
    IsingPolynomial,
    Landscape,
    ProblemInstance,
    SizeCapError,
    ValidationError,
    best_k,
    build_mubs_3q,
    compute_landscape,
    encode_efficient,
    ground_states,
    run_experiment,
    suggest_penalties,
    to_ising,
)
from tspvqe import cli, kernels, vqe
from tspvqe.encoder import encode
from tspvqe.dqes import _BASIS_ELEMENT_CELLS, _RECORDS_PER_TRIPLE, _SEED_STRIDE, landscape_csv_rows
from tspvqe.vqe import (
    AnsatzConfig,
    MubInit,
    RandomInit,
    ZerosInit,
    _restart_points,
    run_lockstep,
)


def _trivial_ising(n):
    return IsingPolynomial(
        n=n,
        constant=Fraction(0),
        fields={i: Fraction(i + 1) for i in range(n)},
        couplings={},
        variable_order=tuple((1, t) for t in range(1, n + 1)),
        layout="full",
        node_count=n,
    )


@pytest.fixture(scope="module")
def landscape_ising(landscape_instance):
    return to_ising(encode_efficient(landscape_instance))


@pytest.fixture(scope="module")
def landscape_records(landscape_ising):
    return compute_landscape(landscape_ising)


def _seeded_instance(nodes, seed):
    """A seeded complete TSP with costs 1-20 and safe penalties."""
    rng = random.Random(seed)
    edges = tuple((u, v, rng.randint(1, 20))
                  for u in range(1, nodes + 1) for v in range(u + 1, nodes + 1))
    raw = ProblemInstance(nodes, False, "tsp", edges, 1, 1)
    return raw.with_penalties(*suggest_penalties(raw, "safe"))


def _seeded_instance_16():
    """A seeded complete 5-node TSP, whose efficient encoding has 16 qubits."""
    return _seeded_instance(5, 16)


def _seeded_ising_16():
    return to_ising(encode_efficient(_seeded_instance_16()))


class TestLandscape:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 10, 12])
    def test_record_count_formula(self, n):
        records = compute_landscape(_trivial_ising(n))
        assert len(records) == comb(n, 3) * 72

    def test_record_count_for_nine_qubits(self, landscape_records):
        assert len(landscape_records) == 6048

    def test_minimum_equals_ground_energy(self, landscape_ising, landscape_records):
        energy, bitstrings = ground_states(landscape_ising)
        minimum = min(r.energy for r in landscape_records)
        assert minimum == pytest.approx(float(energy), abs=1e-9)
        minima = [r for r in landscape_records
                  if abs(r.energy - float(energy)) <= 1e-9]
        # exactly the two |111> embeddings on the ground bitstrings' set bits
        assert len(minima) == 2
        expected_positions = {
            tuple(k for k, b in enumerate(bits) if b == "1") for bits in bitstrings
        }
        assert {r.positions for r in minima} == expected_positions
        assert all(r.basis == 0 and r.element == 7 for r in minima)
        assert all(r.rank == 0 for r in minima)

    def test_minimum_not_above_low_weight_basis_states(self, landscape_ising,
                                                       landscape_records):
        energies = landscape_ising.energy_float_vector()
        minimum = min(r.energy for r in landscape_records)
        for z in range(512):
            if bin(z).count("1") <= 3:
                assert minimum <= energies[z] + 1e-9

    def test_unbiased_bases_tie_at_the_support_mean(self, landscape_records):
        # |<z|e>|^2 = 1/8 for every element e of bases 1-8, so 64 of the 72
        # records of a triple score the mean of its 8 support energies, exactly
        energies = np.array([r.energy for r in landscape_records]).reshape(-1, 9, 8)
        means = [float(sum(map(Fraction, support)) / 8) for support in energies[:, 0].tolist()]
        assert (energies[:, 1:, :] == np.array(means)[:, None, None]).all()

    def test_deterministic_order_and_ranks(self, landscape_ising, landscape_records):
        again = compute_landscape(landscape_ising)
        assert [(r.positions, r.basis, r.element) for r in again] == [
            (r.positions, r.basis, r.element) for r in landscape_records
        ]
        assert [r.energy for r in again] == [r.energy for r in landscape_records]
        ranks = {r.rank for r in landscape_records}
        assert min(ranks) == 0
        assert max(ranks) == len(set(landscape_fractions(landscape_ising))) - 1

    def test_too_few_qubits_rejected(self):
        with pytest.raises(ValidationError):
            compute_landscape(_trivial_ising(2))

    def test_cap_cannot_exceed_hard_limit(self):
        # its own check, before the C(n,3) triples, not the enumeration's
        ising = _trivial_ising(25)
        with pytest.raises(SizeCapError, match="landscape capped at 24 qubits, got 25"):
            compute_landscape(ising)
        assert ising._int_energies is None  # refused before enumerating

    def test_float_vector_not_built(self, landscape_instance, monkeypatch):
        # the keys come from the coefficients: neither the int64 nor the
        # float64 vector of all 2^n energies is built, and the enumeration
        # kernel runs on the triples' 3 spins alone
        ising = to_ising(encode_efficient(landscape_instance))
        sizes = []
        enumerate_spin_energies = kernels.enumerate_spin_energies

        def recording(*args, **kwargs):
            out = enumerate_spin_energies(*args, **kwargs)
            sizes.append(out.shape)
            return out

        monkeypatch.setattr(kernels, "enumerate_spin_energies", recording)
        compute_landscape(ising)
        assert sizes == [(comb(9, 3), 8)]
        assert ising._int_energies is None
        assert not any(isinstance(value, np.ndarray) and value.size >= 1 << ising.n
                       for value in vars(ising).values())  # no energy vector kept

    def test_energies_match_direct_expectation(self, landscape_ising,
                                               landscape_records):
        # differential check against the reference state-vector expectation
        mubs = build_mubs_3q()
        rng = np.random.default_rng(41)
        for i in rng.choice(len(landscape_records), size=60, replace=False):
            record = landscape_records[i]
            state = spread(mubs[record.basis, record.element], record.positions, 9)
            assert record.energy == pytest.approx(
                expectation(landscape_ising, state), rel=1e-12, abs=1e-12
            )


class TestAgainstReference:
    """The array-backed landscape against the record-by-record reference."""

    @pytest.fixture(scope="class", params=["shipped", "seeded16"])
    def pair(self, request, landscape_ising, landscape_reference):
        ising = landscape_ising if request.param == "shipped" else _seeded_ising_16()
        return compute_landscape(ising), landscape_reference(ising)

    def test_order_energies_and_ranks(self, pair):
        landscape, reference = pair
        assert len(landscape) == len(reference)
        assert [(r.index, r.positions, r.basis, r.element) for r in landscape] == [
            (r.index, r.positions, r.basis, r.element) for r in reference
        ]
        # 2 ulp, not bit equality: the landscape's energies are exact, the
        # reference's come from 8x8 float products on the installed BLAS
        np.testing.assert_array_max_ulp(
            np.array([r.energy for r in landscape]), np.array([r.energy for r in reference]),
            maxulp=2)
        assert [r.rank for r in landscape] == [r.rank for r in reference]

    def test_best_k_is_energy_then_index_order(self, pair):
        landscape, _ = pair
        # the landscape's own records (checked against the reference above):
        # their energies are exact, so bases 1-8 of a triple tie exactly
        records = list(landscape)
        by_energy = sorted(records, key=lambda r: (r.energy, r.index))
        for k in (1, 10, 25, 72, len(records)):
            assert best_k(landscape, k) == by_energy[:k]

    def test_csv_matches_per_record_rendering(self, pair):
        landscape, _ = pair
        expected = ["index,positions,basis,element,energy"] + [
            f"{r.index},{'-'.join(str(p) for p in r.positions)},"
            f"{r.basis},{r.element},{r.energy!r}"
            for r in landscape
        ]
        text = b"".join(landscape_csv_rows(landscape)).decode()
        assert text.endswith("\n")
        assert text.split("\n")[:-1] == expected  # a list: pytest reports the first bad row


def _exact_case_ising(case, landscape_instance):
    """The Ising form of a ``TestExact`` case: the shipped instance at its
    own penalties or at A = 2^55, B = 1, or a seeded complete TSP."""
    if case.startswith("shipped"):
        if case == "shipped_a2^55":
            landscape_instance = landscape_instance.with_penalties(Fraction(2**55), Fraction(1))
        return to_ising(encode_efficient(landscape_instance))
    nodes, seed = map(int, case[1:].split("_"))
    return to_ising(encode_efficient(_seeded_instance(nodes, seed)))


@pytest.mark.parametrize("case", ["shipped", "shipped_a2^55", "n4_1", "n4_2", "n4_3", "n5_16"])
def test_landscape_is_exact(case, landscape_instance):
    # at A = 2^55 the support energies pass 2^50, so the keys are Python ints
    ising = _exact_case_ising(case, landscape_instance)
    landscape, exact = compute_landscape(ising), landscape_fractions(ising)
    # each energy is its exact value, correctly rounded
    assert [r.energy for r in landscape] == [float(e) for e in exact]
    # ranks are the dense ranks of the exact energies
    level = {e: rank for rank, e in enumerate(sorted(set(exact)))}
    assert [r.rank for r in landscape] == [level[e] for e in exact]
    # best_k follows the exact (energy, record index) order
    order = sorted(range(len(exact)), key=lambda i: (exact[i], i))
    assert [r.index for r in best_k(landscape, len(landscape))] == order


_BEYOND_INT64 = {"2^59": (2**59, 1), "2^61+3": (2**61 + 3, 1),
                 "c/3": (Fraction(27109050873723844, 3), Fraction(1, 3))}


def _one_field_ising(constant, field):
    """E = constant + field * s_0 on 3 spins."""
    return IsingPolynomial(n=3, constant=constant, fields={0: field}, couplings={},
                           variable_order=((1, 1), (1, 2), (1, 3)), layout="full",
                           node_count=3)


@pytest.mark.parametrize("constant,field", list(_BEYOND_INT64.values()), ids=list(_BEYOND_INT64))
def test_keys_beyond_the_int64_rule_stay_exact(constant, field):
    # E = constant + field * s_0: records 1, 3, 5 and 7 (basis 0, qubit 0
    # set) score constant - field and all others more.  float64 cannot tell
    # these apart; 8 x E overflows int64 at 2^61; and at scale 3 an int64
    # key converted to float64 before the division rounds twice
    ising = _one_field_ising(constant, field)
    landscape = compute_landscape(ising)
    assert [(r.index, r.energy) for r in best_k(landscape, 3)] == [
        (i, float(constant - field)) for i in (1, 3, 5)]
    assert [r.energy for r in landscape] == [float(e) for e in landscape_fractions(ising)]
    ranks = [r.rank for r in landscape]
    assert ranks[:8] == [2, 0, 2, 0, 2, 0, 2, 0]
    assert set(ranks[8:]) == {1}


def _random_ising(rng, n, values):
    """A seeded spin form on n spins: every field and about half the
    couplings drawn from ``values``."""
    return IsingPolynomial(
        n=n, constant=rng.choice(values), fields={i: rng.choice(values) for i in range(n)},
        couplings={(i, j): rng.choice(values) for i, j in combinations(range(n), 2)
                   if rng.random() < 0.5},
        variable_order=tuple((1, t) for t in range(1, n + 1)), layout="full", node_count=n)


def _coefficient_key_case(case, landscape_instance):
    """The Ising form of a coefficient-key case: the shipped instance in one
    of the three layouts, at A = 2^55 (keys past 2^50), a seeded random
    form on 3 to 20 spins, or one whose |constant| + sum |h| + sum |J| is
    just below 2^62, with a coupling above 2^61, so that 4 J overflows int64."""
    if case in ("full", "fixed_start_full", "efficient"):
        return to_ising(encode(landscape_instance, case))
    if case == "efficient_a2^55":
        return _exact_case_ising("shipped_a2^55", landscape_instance)
    if case == "near_2^62":
        big = 2**61 + 5
        return IsingPolynomial(
            n=5, constant=-(2**58), fields={0: 2**58, 3: -(2**57) - 7},
            couplings={(0, 2): big, (1, 2): -(2**59), (2, 4): 2**57 + 3, (3, 4): -11},
            variable_order=tuple((1, t) for t in range(1, 6)), layout="full", node_count=5)
    n = int(case.split("_")[1])
    values = [Fraction(p, q) for p in (-7, -3, -1, 2, 5, 13) for q in (1, 2, 3)]
    return _random_ising(random.Random(n), n, values)


def _landscape_from_the_gather(ising):
    """The energy and rank tables of the landscape as the keys were built
    before they came from the coefficients: each triple's 8 support
    energies gathered from the 2^n int64 vector, then the keys, their exact
    quotients and their dense ranks in Python ints and Fractions."""
    triples = np.array(list(combinations(range(ising.n), 3)))
    support_bits = (np.arange(8) >> np.arange(3)[:, None]) & 1
    support = ising.energy_int_vector()[(1 << triples) @ support_bits].tolist()
    scale = ising.to_int_arrays()[0]
    keys = [[8 * e for e in row] + [sum(row)] for row in support]
    level = {key: rank for rank, key in enumerate(sorted({k for row in keys for k in row}))}
    return ([[float(Fraction(k, 8 * scale)) for k in row] for row in keys],
            [[level[k] for k in row] for row in keys], triples, support)


def _closed_form_support(ising, triples):
    """Each triple's 8 support energies in Python ints, from the scaled
    coefficients: with s = 1 - 2x, E(S) = E(0) + sum_{i in S} d_i +
    sum_{i<j in S} 4 J_ij, where d_i = -2 (h_i + sum_j J_ij)."""
    _, const, h, J = (a.tolist() if isinstance(a, np.ndarray) else a
                      for a in ising.to_int_arrays())
    pairs = {(i, j): J[i][j] for i, j in combinations(range(ising.n), 2)}
    e0 = const + sum(h) + sum(pairs.values())
    d = [-2 * (h[i] + sum(J[i])) for i in range(ising.n)]
    rows = []
    for triple in triples.tolist():
        subsets = [[q for k, q in enumerate(triple) if m >> k & 1] for m in range(8)]
        rows.append([e0 + sum(d[i] for i in s) + sum(4 * pairs[p]
                                                      for p in combinations(s, 2))
                     for s in subsets])
    return rows


@pytest.mark.parametrize("case", ["full", "fixed_start_full", "efficient", "efficient_a2^55",
                                  "near_2^62", "random_3", "random_5", "random_8",
                                  "random_13", "random_20"])
def test_coefficient_keys_equal_the_gather(case, landscape_instance):
    # the support energies of the triples' 3 spins alone are the entries of
    # the full vector, so every energy and rank is the one the gather gave
    ising = _coefficient_key_case(case, landscape_instance)
    _, const, h, J = ising.to_int_arrays()
    energies, ranks, triples, support = _landscape_from_the_gather(ising)
    alone = kernels.enumerate_spin_energies(ising.n, const, h, J, spins=triples)
    assert alone.tolist() == support == _closed_form_support(ising, triples)
    landscape = compute_landscape(ising)
    assert landscape.energy_table.tolist() == energies
    assert landscape.rank_table.tolist() == ranks
    if case == "efficient_a2^55":  # the keys pass 2^50, so they are Python ints
        assert max(abs(e) for row in support for e in row) >= 1 << 50


@pytest.mark.parametrize("case", ["shipped", "shipped_a2^55", "n4_1", "n4_2", "n4_3", "n5_16",
                                  *_BEYOND_INT64])
def test_no_superposition_record_before_its_triples_best_basis_state(case, landscape_instance):
    # a record of bases 1-8 scores the mean of its triple's 8 support
    # energies, basis 0 each one of them, and the mean is at least the least
    ising = (_one_field_ising(*_BEYOND_INT64[case]) if case in _BEYOND_INT64
             else _exact_case_ising(case, landscape_instance))
    landscape = compute_landscape(ising)
    ranks = landscape.rank_table
    assert (ranks[:, :8].min(axis=1) <= ranks[:, 8]).all()
    seen = set()  # triples whose best basis-0 record is listed
    for record in best_k(landscape, len(landscape)):
        triple = record.index // _RECORDS_PER_TRIPLE
        assert record.basis == 0 or triple in seen
        seen.add(triple)


def test_best_basis_states_fill_the_shipped_top_151(landscape_records):
    top = best_k(landscape_records, 152)
    assert {r.basis for r in top[:151]} == {0}
    assert top[151].basis > 0


def _landscape_rows_per_row(landscape):
    """The landscape CSV as rendered before the block writer: one f-string per row."""
    yield "index,positions,basis,element,energy\n"
    for t, (triple, row) in enumerate(zip(landscape.triples.tolist(),
                                          landscape.energy_table.tolist())):
        pos = "-".join(map(str, triple))
        start = t * _RECORDS_PER_TRIPLE
        energies = row[:8] + row[8:] * 64  # basis 0, then the 64 records of bases 1-8
        yield "".join(
            f"{start + j},{pos}{cells}{energy!r}\n"
            for j, (cells, energy) in enumerate(zip(_BASIS_ELEMENT_CELLS, energies))
        )


def _odd_landscape(n):
    """A landscape on n qubits whose energy table mixes signed zeros,
    infinities, NaN, subnormals and floats of every repr length."""
    rng = np.random.default_rng(n)
    triples = np.array(list(combinations(range(n), 3)), dtype=np.int64)
    odd = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-300, 1e16, 123456789.0, 0.1, 1 / 3]
    shape = (len(triples), 9)
    energies = np.where(rng.random(shape) < 0.3, rng.choice(odd, shape),
                        rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, shape))
    return Landscape(triples, energies, np.zeros(shape, dtype=np.int64))


@pytest.mark.parametrize("which", ["shipped", "seeded16", "odd3", "odd12"])
def test_landscape_writer_matches_per_row_rendering(which, landscape_ising):
    if which.startswith("odd"):
        landscape = _odd_landscape(int(which[3:]))  # 12: indices of 1-5 digits, qubits of 2
    else:
        landscape = compute_landscape(
            landscape_ising if which == "shipped" else _seeded_ising_16())
    blocks = list(landscape_csv_rows(landscape))
    assert b"".join(blocks) == "".join(_landscape_rows_per_row(landscape)).encode()
    assert all(block.endswith(b"\n") for block in blocks)


class TestSequence:
    def test_protocol(self, landscape_records):
        landscape = landscape_records
        assert isinstance(landscape, Landscape)
        n = len(landscape)
        last = landscape[-1]
        assert last == landscape[n - 1]
        assert (last.index, last.positions, last.basis, last.element) == (n - 1, (6, 7, 8), 8, 7)
        assert landscape[-n] == landscape[0]
        assert landscape[70:74] == [landscape[i] for i in range(70, 74)]
        assert landscape[::-1000] == [landscape[i] for i in range(n - 1, -1, -1000)]
        assert landscape[n:] == []
        assert [r.index for r in landscape] == list(range(n))
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                landscape[bad]

    def test_constructor_takes_nine_column_tables(self, landscape_records):
        triples = landscape_records.triples
        rebuilt = Landscape(triples, landscape_records.energy_table.copy(),
                            landscape_records.rank_table.copy())
        assert list(rebuilt) == list(landscape_records)
        # one entry per record is the shape of neither table
        energies = np.array([r.energy for r in landscape_records])
        ranks = np.array([r.rank for r in landscape_records])
        with pytest.raises(ValidationError, match=r"shape \(84, 9\), got \(6048,\)"):
            Landscape(triples, energies, ranks)

    def test_immutable(self, landscape_records):
        with pytest.raises(AttributeError):
            landscape_records.energy_table = None
        for table in (landscape_records.triples, landscape_records.energy_table,
                      landscape_records.rank_table):
            with pytest.raises(ValueError):
                table[0] = 0


class TestBestK:
    def test_best_ten_sorted(self, landscape_records):
        top = best_k(landscape_records, 10)
        energies = [r.energy for r in top]
        assert energies == sorted(energies)
        assert len(top) == 10

    def test_best_one_is_ground(self, landscape_ising, landscape_records):
        energy, _ = ground_states(landscape_ising)
        assert best_k(landscape_records, 1)[0].energy == pytest.approx(float(energy))

    def test_k_equal_to_record_count(self, landscape_records):
        assert len(best_k(landscape_records, len(landscape_records))) == 6048

    def test_stable_under_reruns(self, landscape_ising, landscape_records):
        again = best_k(compute_landscape(landscape_ising), 25)
        assert [(r.positions, r.basis, r.element) for r in again] == [
            (r.positions, r.basis, r.element) for r in best_k(landscape_records, 25)
        ]

    def test_bounds(self, landscape_records):
        with pytest.raises(ValidationError):
            best_k(landscape_records, 0)
        with pytest.raises(ValidationError):
            best_k(landscape_records, 6049)

    @pytest.mark.parametrize("k", [2.5, True, "2"])
    def test_k_that_is_not_an_int_refused(self, landscape_records, k):
        with pytest.raises(ValidationError, match=f"k must be an int, got {k!r}"):
            best_k(landscape_records, k)

    def test_numpy_int_k_accepted(self, landscape_records):
        assert best_k(landscape_records, np.int64(3)) == best_k(landscape_records, 3)

    @pytest.mark.parametrize("step", [20, 5_000, 6_400], ids=["uint8", "uint16", "uint32"])
    def test_narrowed_ranks_keep_the_int64_stable_order(self, step):
        """``best_k`` sorts the ranks as packed keys of rank and entry; its
        records are those of the int64 table's stable order, ties by entry,
        whether the ranks reach 2^8, 2^16 or neither."""
        rng = np.random.default_rng(step)
        triples = np.array(list(combinations(range(8), 3)))
        ranks = rng.integers(0, 12, (len(triples), 9)) * step  # 12 values: many ties
        landscape = Landscape(triples, ranks.astype(np.float64), ranks)
        entries = np.argsort(ranks, axis=None, kind="stable")
        expected = [record for entry in entries.tolist()
                    for triple, column in [divmod(entry, 9)]
                    for record in range(triple * _RECORDS_PER_TRIPLE + column,
                                        triple * _RECORDS_PER_TRIPLE + column
                                        + (64 if column == 8 else 1))]
        assert [r.index for r in best_k(landscape, len(landscape))] == expected
        assert [r.index for r in best_k(landscape, 100)] == expected[:100]


class TestCsv:
    def test_header_and_row_shape(self, landscape_records):
        chunks = list(landscape_csv_rows(landscape_records))
        assert chunks[0] == b"index,positions,basis,element,energy\n"
        assert chunks[1].startswith(b"0,0-1-2,0,0,")
        assert all(chunk.endswith(b"\n") for chunk in chunks)
        assert b"".join(chunks) == "".join(_landscape_rows_per_row(landscape_records)).encode()


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replace the process pool with one that maps in this process and
    records, per pool, its ``max_workers`` and the number of parts it maps,
    so no worker process is started."""
    import concurrent.futures

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            jobs = list(jobs)
            sizes.append((self.max_workers, len(jobs)))
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return sizes


def _show_cpus(monkeypatch, count, affinity=True):
    """Show this process ``count`` CPUs: as its affinity set, or, on a
    platform without one, as the CPU count (``None``: unknown)."""
    import os

    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2 * count)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)


class TestExperiments:
    def test_one_node_is_refused_before_its_ansatz(self):
        # the efficient layout leaves one node no qubit, so no ansatz is built
        one = ProblemInstance(1, False, "tsp", (), 1, 1)
        with pytest.raises(ValidationError, match="^the efficient layout needs at least 2 nodes"):
            run_experiment(one, "zeros", layers=0)

    def test_zeros_mode(self, landscape_instance):
        report = run_experiment(landscape_instance, "zeros", seed=0)
        assert report.n_runs == 1
        assert report.converged_count == 1
        assert report.oracle_cost == 13
        assert report.ground_energy == pytest.approx(13.0)
        decoded = report.decoded_tours[0]
        assert decoded.valid is True
        assert decoded.cost == 13

    def test_ground_energy_renders_no_bitstrings(self, landscape_instance, monkeypatch):
        from tspvqe import ising

        def render(*args):
            raise AssertionError("ground bitstrings rendered")

        monkeypatch.setattr(ising, "_bitstrings", render)
        report = run_experiment(landscape_instance, "zeros", seed=0, max_evals=5)
        assert report.ground_energy_exact == 13
        assert report.ground_energy == 13.0

    def test_report_names_the_optimizer(self, landscape_instance):
        report = run_experiment(landscape_instance, "zeros", seed=0, max_evals=5)
        assert report.config["optimizer"] == {
            "method": "rotation_descent", "rho_start": 0.5, "rho_end": 1e-4, "max_evals": 5,
            "attempt_sweeps": 1, "restart_jitter": 0.02,
        }
        assert report.config["optimizer"] == {**vqe.OPTIMIZER, "max_evals": 5}
        with pytest.raises(TypeError):  # every run reads the one copy
            vqe.OPTIMIZER["rho_start"] = 0.25

    def test_best_mubs_small_batch(self, landscape_instance):
        # k=2 picks the two exact ground states; both converge instantly
        report = run_experiment(landscape_instance, "best_mubs", k=2, seed=0)
        assert report.converged_count == 2
        assert report.mean_iterations_to_convergence == 0.0
        assert {d.order for d in report.decoded_tours} == {
            (1, 2, 4, 3), (1, 3, 4, 2),
        }

    def test_random_mode_runs(self, landscape_instance):
        report = run_experiment(landscape_instance, "random", k=2, seed=0)
        assert report.n_runs == 2
        labels = [t.init for t in report.traces]
        assert all(lbl.startswith("random(") for lbl in labels)
        assert len(set(labels)) == 2

    def test_determinism(self, landscape_instance):
        a = run_experiment(landscape_instance, "best_mubs", k=3, seed=4)
        b = run_experiment(landscape_instance, "best_mubs", k=3, seed=4)
        assert a == b

    def test_worker_pool_matches_serial(self, landscape_instance):
        for mode, k, max_evals in (("best_mubs", 4, 2000), ("random", 10, 300)):
            serial = run_experiment(landscape_instance, mode, k=k, seed=1, max_evals=max_evals)
            pooled = run_experiment(landscape_instance, mode, k=k, seed=1, max_evals=max_evals,
                                    threads=2)
            a, b = dict(vars(serial)), dict(vars(pooled))
            # the config echo records the thread count itself
            assert a.pop("config") == {**b.pop("config"), "threads": 1}
            assert a == b, mode

    def test_worker_pool_starts_one_worker_per_part(self, landscape_instance, monkeypatch,
                                                    in_process_pool):
        """A pool forks all of its workers at once, so it is sized to the
        parts of the batch, not to the requested thread count; a batch of
        one run is one part and starts no pool."""
        _show_cpus(monkeypatch, 64)
        short = 5
        for mode, k, threads, pools in (("zeros", 1, 4, []), ("random", 10, 6, [(5, 5)])):
            pooled = run_experiment(landscape_instance, mode, k=k, seed=2, max_evals=short,
                                    threads=threads)
            assert in_process_pool == pools, mode
            in_process_pool.clear()
            assert pooled.config["threads"] == threads
            serial = run_experiment(landscape_instance, mode, k=k, seed=2, max_evals=short)
            assert pooled.traces == serial.traces, mode
        assert in_process_pool == []

    @pytest.mark.parametrize("cpus, affinity, workers", [
        (2, True, 2), (3, False, 3), (None, False, 1), (64, True, 40),
    ])
    def test_worker_pool_starts_no_more_workers_than_cpus(self, landscape_instance,
                                                         monkeypatch, in_process_pool,
                                                         cpus, affinity, workers):
        """Any thread count splits a random batch into at most k parts, and
        no more parts than the CPUs this process may use: its affinity set
        where the platform has one, else the CPU count (one when that is
        unknown, and one part starts no pool).  Each part has a worker of its
        own, and the report does not change."""
        _show_cpus(monkeypatch, cpus, affinity)
        short = 4
        pooled = run_experiment(landscape_instance, "random", k=40, seed=3, max_evals=short,
                                threads=10_000)
        assert in_process_pool == ([(workers, workers)] if workers > 1 else [])
        serial = run_experiment(landscape_instance, "random", k=40, seed=3, max_evals=short)
        a, b = dict(vars(serial)), dict(vars(pooled))
        assert a.pop("config") == {**b.pop("config"), "threads": 1}
        assert a == b

    def test_batch_is_cut_into_no_more_parts_than_cpus(self, landscape_instance,
                                                       monkeypatch, in_process_pool):
        """A batch is cut into as many parts as workers run it, not into one
        per requested thread: a random k=10 batch at ``threads=10`` on 2 CPUs
        runs 2 parts of 5, and its report is the serial one."""
        _show_cpus(monkeypatch, 2)
        short = 5
        pooled = run_experiment(landscape_instance, "random", k=10, seed=4, max_evals=short,
                                threads=10)
        assert in_process_pool == [(2, 2)]
        serial = run_experiment(landscape_instance, "random", k=10, seed=4, max_evals=short)
        a, b = dict(vars(serial)), dict(vars(pooled))
        assert a.pop("config") == {**b.pop("config"), "threads": 1}
        assert a == b

    def test_sixteen_qubits_start_no_pool(self, monkeypatch, in_process_pool):
        """A kernel call on 16 qubits holds one state and runs on BLAS
        threads, so any thread count runs the batch in this process."""
        _show_cpus(monkeypatch, 64)
        instance = _seeded_instance_16()
        short = 5
        pooled = run_experiment(instance, "best_mubs", k=2, seed=0, max_evals=short, threads=2)
        assert in_process_pool == []
        serial = run_experiment(instance, "best_mubs", k=2, seed=0, max_evals=short)
        a, b = dict(vars(serial)), dict(vars(pooled))
        assert a.pop("config") == {**b.pop("config"), "threads": 1}
        assert a == b

    def test_unknown_mode(self, landscape_instance):
        with pytest.raises(ValidationError):
            run_experiment(landscape_instance, "everything")

    @pytest.mark.parametrize("mode, nodes, k, message", [
        pytest.param("best_mubs", 4, 0, "k must be at least 1, got 0", id="best_mubs"),
        pytest.param("random", 4, 0, "k must be at least 1, got 0", id="random"),
        # C(9, 3) * 72 = 6048 landscape records at 4 nodes
        pytest.param("best_mubs", 4, 6049, r"k must be in 1\.\.6048, got 6049",
                     id="best_mubs-above-the-landscape"),
        # 2 nodes: one qubit, no qubit triple
        pytest.param("best_mubs", 2, 1, "needs at least 3 qubits, got 1",
                     id="best_mubs-below-3-qubits"),
    ])
    def test_batch_below_one_run_refused_before_encoding(self, landscape_instance,
                                                         monkeypatch, mode, nodes, k, message):
        """A ``k`` outside the runs a mode can make is refused before the
        instance is encoded or a landscape built: best-MUB starts take 1 to
        C(n, 3) * 72, none below 3 qubits."""
        from tspvqe import ProblemInstance, dqes

        def unreachable(*args, **kwargs):
            raise AssertionError("reached with a refused k")

        instance = (landscape_instance if nodes == 4
                    else ProblemInstance(2, False, "tsp", ((1, 2, 1),), 5, 1))
        monkeypatch.setattr(dqes, "spin_form", unreachable)
        monkeypatch.setattr(dqes, "compute_landscape", unreachable)
        with pytest.raises(ValidationError, match=message):
            run_experiment(instance, mode, k=k)

    @pytest.mark.parametrize("name, value", [
        ("k", 2.5), ("seed", 1.5), ("k", True), ("seed", True),
    ], ids=["k-float", "seed-float", "k-bool", "seed-bool"])
    def test_k_or_seed_not_an_int_refused_before_encoding(self, landscape_instance,
                                                          monkeypatch, name, value):
        from tspvqe import dqes

        def unreachable(*args, **kwargs):
            raise AssertionError(f"reached with {name}={value!r}")

        monkeypatch.setattr(dqes, "spin_form", unreachable)
        with pytest.raises(ValidationError, match=f"{name} must be an int, got {value!r}"):
            run_experiment(landscape_instance, "best_mubs", **{name: value})

    @pytest.mark.parametrize("name, value, message", [
        ("threads", 2.5, "threads must be an int, got 2.5"),
        # a float of 3 or more would reach range() as its step
        ("threads", 3.0, "threads must be an int, got 3.0"),
        ("threads", True, "threads must be an int, got True"),
    ], ids=["threads-float", "threads-float-3", "threads-bool"])
    def test_threads_of_another_type_refused_before_encoding(
            self, landscape_instance, monkeypatch, name, value, message):
        from tspvqe import dqes

        def unreachable(*args, **kwargs):
            raise AssertionError(f"reached with {name}={value!r}")

        monkeypatch.setattr(dqes, "spin_form", unreachable)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            run_experiment(landscape_instance, "random", k=3, **{name: value})

    @pytest.mark.parametrize("mode, k, max_evals", [
        ("random", 3, 5), ("best_mubs", 2, 7), ("zeros", 9, 6),
    ])
    def test_record_cap_boundary(self, landscape_instance, monkeypatch, mode, k, max_evals):
        """A batch of exactly ``layouts.RECORD_CAP`` numbers runs, one more is
        refused before encoding; a zeros batch is one run whatever ``k``."""
        from tspvqe import dqes, layouts

        runs = 1 if mode == "zeros" else k
        recorded = runs * (max_evals + AnsatzConfig(n=9).parameter_count)
        monkeypatch.setattr(layouts, "RECORD_CAP", recorded)
        report = run_experiment(landscape_instance, mode, k=k, max_evals=max_evals)
        assert report.n_runs == runs

        def unreachable(*args, **kwargs):
            raise AssertionError("reached with an oversized batch")

        monkeypatch.setattr(layouts, "RECORD_CAP", recorded - 1)
        monkeypatch.setattr(dqes, "spin_form", unreachable)
        with pytest.raises(SizeCapError, match=f"= {recorded}$"):
            run_experiment(landscape_instance, mode, k=k, max_evals=max_evals)

    def test_record_cap_admits_the_documented_batches(self):
        """The largest batches the README, the benchmark and the tools run:
        40 random starts at 2,000 evaluations, 160 best-MUB starts at 20 and
        10 at 300 on 9 qubits, and 2 best-MUB starts at 400 on 16."""
        from tspvqe import layouts

        for k, max_evals, n in ((40, 2000, 9), (160, 20, 9), (10, 300, 9), (2, 400, 16)):
            assert k * (max_evals + AnsatzConfig(n=n).parameter_count) <= layouts.RECORD_CAP

    def test_numpy_threads_and_max_evals_run(self, landscape_instance):
        # and the report holds plain ints, so it can be written as JSON
        report = run_experiment(landscape_instance, "zeros", max_evals=np.int64(20),
                                threads=np.int64(1))
        expected = run_experiment(landscape_instance, "zeros", max_evals=20, threads=1)
        assert (json.dumps(report, default=cli.json_default)
                == json.dumps(expected, default=cli.json_default))

    def test_numpy_int_k_and_seed_run(self, landscape_instance):
        # and the report holds plain ints, so it can be written as JSON
        report = run_experiment(landscape_instance, "best_mubs", k=np.int64(2),
                                seed=np.int64(1), max_evals=20)
        expected = run_experiment(landscape_instance, "best_mubs", k=2, seed=1, max_evals=20)
        assert (json.dumps(report, default=cli.json_default)
                == json.dumps(expected, default=cli.json_default))

    def test_instance_without_valid_tour(self):
        # the Hamiltonian minimum is still defined; the oracle reports no tour
        from tspvqe import ProblemInstance

        inst = ProblemInstance(4, False, "tsp",
                               ((1, 2, 1), (2, 3, 1), (3, 4, 1)), 5, 1)
        report = run_experiment(inst, "zeros", seed=0, max_evals=300)
        assert report.oracle_cost is None
        assert report.oracle_tours == ()
        assert json.loads(json.dumps(report, default=cli.json_default))["oracle_cost"] is None
        assert report.decoded_tours[0].valid in (True, False)


def _independent_traces(instance, report, ansatz, max_evals):
    """The traces of ``report`` redone one ``run_vqe`` call per run."""
    ising = to_ising(encode_efficient(instance))
    if report.mode == "zeros":
        inits = [ZerosInit()]
    elif report.mode == "best_mubs":
        inits = [
            MubInit(positions=r.positions, basis=r.basis, element=r.element)
            for r in best_k(compute_landscape(ising), report.k)
        ]
    else:
        inits = [RandomInit(seed=report.seed * _SEED_STRIDE + 2 * i + 1) for i in range(report.k)]
    return [
        run_vqe(
            ising, init, ansatz=ansatz, max_evals=max_evals,
            seed=report.seed * _SEED_STRIDE + 2 * i,
            ground_energy=report.ground_energy,
        )
        for i, init in enumerate(inits)
    ]


def _full_kernel_traces(ising, starts, ansatz, max_evals, ground_energy):
    """(history, best parameters, best bitstring) of each start, from
    ``optimize`` with an objective that runs the whole ansatz on every vector,
    held on the qubits its init builds the start on, as the batch holds it."""
    energy_vector = ising.energy_float_vector()
    out = []
    for init, seed in starts:
        support, held0, product_angles = init.build(ansatz.n)

        def measured(x):
            """The probabilities after the whole ansatz, their energies, and
            the basis index of each."""
            amps, held = kernels.apply_ansatz_amplitudes(held0, ansatz.n, ansatz.layers,
                                                         ansatz.ring, x, held=support)
            index = kernels.basis_indices(held)
            # the full vector itself where every qubit is held, as a run reads it
            energies = energy_vector if len(held) == ansatz.n else energy_vector[index]
            return np.abs(amps) ** 2, energies, index

        def energy(x):
            probabilities, energies, _ = measured(x)
            return float(probabilities @ energies)

        result = optimize(
            energy, np.zeros(ansatz.parameter_count), max_evals, seed=seed, target=ground_energy,
            target_tol=vqe.CONVERGENCE_TOL * max(1.0, abs(ground_energy)),
            restart_points=_restart_points(ansatz, product_angles, seed),
        )
        probabilities, _, index = measured(result.best_params)
        peak = int(index[np.argmax(probabilities)])
        bits = "".join(str((peak >> k) & 1) for k in range(ansatz.n))
        out.append((result.history, [float(p) for p in result.best_params], bits))
    return out


class TestLockstep:
    """A batch run in lockstep equals its runs made one at a time."""

    @pytest.mark.parametrize("mode, k, seed, layers, entangler", [
        ("zeros", 1, 0, 2, "linear_rzz"),
        ("best_mubs", 10, 0, 2, "linear_rzz"),
        ("random", 10, 0, 2, "linear_rzz"),
        ("random", 3, 2, 3, "ring_rzz"),
    ])
    def test_matches_independent_runs(self, landscape_instance, mode, k, seed, layers,
                                      entangler):
        max_evals = 300
        report = run_experiment(landscape_instance, mode, k=k, seed=seed, layers=layers,
                                entangler=entangler, max_evals=max_evals)
        assert report.traces == _independent_traces(
            landscape_instance, report, AnsatzConfig(n=9, layers=layers, entangler=entangler),
            max_evals)

    def test_runs_of_unequal_length(self, landscape_instance):
        # two runs start at the ground state, two use all but one evaluation
        max_evals = 300
        report = run_experiment(landscape_instance, "best_mubs", k=10, seed=1,
                                max_evals=max_evals)
        lengths = [t.n_evaluations for t in report.traces]
        assert min(lengths) == 1 and max(lengths) == 299
        assert report.traces == _independent_traces(
            landscape_instance, report, AnsatzConfig(n=9), max_evals)

    @pytest.mark.parametrize("mode", ["best_mubs", "zeros"])
    def test_short_batches_run_stages_their_runs_skip(self, landscape_instance,
                                                      landscape_ising, monkeypatch, mode):
        """At 30 evaluations a run has moved few of its parameters, so a
        stacked call runs stages that are the identity for some of its rows
        and that the row's run alone skips.  Each trace is still the one of
        its run alone."""
        calls = []
        apply = kernels.apply_ansatz_amplitudes

        def recording(psi0, n, layers, ring, params, **options):
            calls.append((n, layers, ring, np.array(params)))
            return apply(psi0, n, layers, ring, params, **options)

        monkeypatch.setattr(kernels, "apply_ansatz_amplitudes", recording)
        max_evals = 30
        if mode == "best_mubs":
            report = run_experiment(landscape_instance, mode, k=10, seed=0,
                                    max_evals=max_evals)
            traces = report.traces
            monkeypatch.setattr(kernels, "apply_ansatz_amplitudes", apply)
            alone = _independent_traces(landscape_instance, report, AnsatzConfig(n=9),
                                        max_evals)
        else:
            ground = float(ground_states(landscape_ising)[0])
            starts = [(ZerosInit(), seed) for seed in range(4)]
            traces = run_lockstep(landscape_ising, starts, None, max_evals, ground)
            monkeypatch.setattr(kernels, "apply_ansatz_amplitudes", apply)
            alone = [run_vqe(landscape_ising, init, max_evals=max_evals, seed=seed,
                             ground_energy=ground) for init, seed in starts]
        assert traces == alone

        def partly_idle(n, layers, ring, params):
            if params.ndim < 2:
                return False
            _, stages = kernels.ansatz_stages(n, layers, ring)
            moved = [set(stages[row != 0].tolist()) for row in params]
            return set.union(*moved) != set.intersection(*moved)

        assert any(partly_idle(*call) for call in calls)

    def test_sixteen_qubits_one_call_per_request(self, monkeypatch):
        """A best-MUB start at 16 qubits holds 3 of them, and the short runs
        of the seeded instance turn at most two more: every call holds at
        most 2^5 amplitudes per row, in and out.  So a probe pair fits one
        call, and each request of a run is one call to the end: a probe
        pair's two vectors go in one stack of two rows."""
        instance = _seeded_instance_16()
        log, lent, batches = [], [], []  # request sizes and calls; lent pairs; buffer sets
        apply, search, state_buffers = (kernels.apply_ansatz_amplitudes, vqe._search,
                                        vqe._state_buffers)

        def recording(psi0, *args, start=0, stop=None, buffers=None, held=None):
            out = apply(psi0, *args, start=start, stop=stop, buffers=buffers, held=held)
            log.append(("call", np.shape(psi0), start, stop, out[0].shape, held))
            lent.append(buffers)
            return out

        def logged(*args):
            inner = search(*args)
            request = next(inner)
            while True:
                log.append(len(request))
                try:
                    request = inner.send((yield request))
                except StopIteration as done:
                    return done.value

        def recorded_buffers(n):
            batches.append(state_buffers(n))
            return batches[-1]

        monkeypatch.setattr(kernels, "apply_ansatz_amplitudes", recording)
        monkeypatch.setattr(vqe, "_search", logged)
        monkeypatch.setattr(vqe, "_state_buffers", recorded_buffers)
        max_evals = 20
        report = run_experiment(instance, "best_mubs", k=2, seed=0, max_evals=max_evals)
        calls = [entry[1:] for entry in log if isinstance(entry, tuple)]
        assert all(held is not None and shape[:-1] == out[:-1] and len(shape) <= 2
                   and shape[-1] == 1 << len(held) and shape[-1] <= out[-1] <= 1 << 5
                   for shape, _, _, out, held in calls)
        # every call writes into the buffers of the batch, allocated once
        [buffers] = batches
        assert all(pair is not None for pair in lent)
        assert all(any(np.shares_memory(b, mine) for mine in buffers[:3])
                   for pair in lent for b in pair)
        # one call to the end per request, on a row per vector, none to find
        # the best bitstrings afterwards; most start from a kept prefix, and
        # fewer calls carry a prefix forward
        requests, rows = [], []
        for entry in log:
            if not isinstance(entry, tuple):
                requests.append(entry)
                rows.append([])
            elif entry[3] is None:
                shape = entry[1]
                rows[-1].append(shape[0] if len(shape) == 2 else 1)
        assert [sum(r) for r in rows] == requests
        assert all(len(r) == 1 for r in rows)
        assert requests.count(2) >= 10
        evaluations = sum(t.n_evaluations for t in report.traces)
        assert sum(requests) == evaluations
        assert sum(start > 0 for _, start, stop, _, _ in calls if stop is None) >= (
            len(requests) // 2)
        assert sum(stop is not None for _, _, stop, _, _ in calls) <= evaluations // 2
        assert report.traces == _independent_traces(
            instance, report, AnsatzConfig(n=16), max_evals)

    @pytest.mark.parametrize("mode, qubits, max_evals", [
        ("best_mubs", 16, 100),
        ("random", 9, 60),
        ("zeros", 9, 200),
    ])
    def test_prefix_carries_run_a_stage(self, landscape_instance, monkeypatch, mode, qubits,
                                        max_evals):
        """A carry whose stages are all at zero angle would only copy the
        state, so the prefix moves forward without a kernel call: every call
        that carries a prefix (``stop`` given) runs a stage.  Each trace is
        that of its run alone; at 9 qubits prefix reuse is forced on, and the
        runs alone go in stacked calls that keep no prefix and hold every
        qubit, as a random start does.  A zeros start holds fewer, and its
        smaller matmuls round differently: its run alone keeps a prefix too,
        and its energies are those of the dense kernel to 1e-12."""
        instance = _seeded_instance_16() if qubits == 16 else landscape_instance
        calls, evaluated = [], []
        apply = kernels.apply_ansatz_amplitudes

        def recording(psi0, n, layers, ring, params, start=0, stop=None, buffers=None,
                      held=None):
            if stop is not None:
                calls.append(kernels.stages_run(n, layers, ring, params, start, stop))
            else:  # a row per evaluation
                evaluated.extend(np.array(params).reshape(-1, np.shape(params)[-1]))
            return apply(psi0, n, layers, ring, params, start, stop, buffers, held)

        monkeypatch.setattr(kernels, "apply_ansatz_amplitudes", recording)
        monkeypatch.setattr(vqe, "LOCKSTEP_AMPLITUDES", 1 << qubits)
        report = run_experiment(instance, mode, k=2, seed=1, max_evals=max_evals)
        monkeypatch.undo()
        assert calls and all(calls)
        if mode == "zeros":
            monkeypatch.setattr(vqe, "LOCKSTEP_AMPLITUDES", 1 << qubits)
            ansatz = AnsatzConfig(n=qubits)
            held, amps, _ = ZerosInit().build(qubits)
            zeros = np.zeros(1 << qubits, dtype=complex)
            zeros[kernels.basis_indices(held)] = amps
            energy_vector = to_ising(encode_efficient(instance)).energy_float_vector()
            dense = [float(np.abs(apply(zeros, qubits, ansatz.layers, ansatz.ring, x)) ** 2
                           @ energy_vector) for x in evaluated]
            (trace,) = report.traces
            np.testing.assert_allclose(trace.energies, np.minimum.accumulate(dense),
                                       rtol=1e-12, atol=0)
        assert report.traces == _independent_traces(
            instance, report, AnsatzConfig(n=qubits), max_evals)

    def test_sixteen_qubits_match_full_evaluations(self):
        """Prefix reuse at 16 qubits against whole-ansatz evaluations."""
        ising = _seeded_ising_16()
        ground = float(ground_states(ising)[0])
        best = best_k(compute_landscape(ising), 1)[0]
        # no CLI batch reaches a bases 1-8 start at 16 qubits: add one
        starts = [(MubInit(positions=best.positions, basis=best.basis, element=best.element), 3),
                  (MubInit(positions=best.positions, basis=5, element=2), 5),
                  (RandomInit(seed=11), 4)]
        ansatz = AnsatzConfig(n=16)
        max_evals = 40
        traces = run_lockstep(ising, starts, ansatz, max_evals, ground)
        assert [(t.energies, t.final_parameters, t.best_bitstring) for t in traces] == (
            _full_kernel_traces(ising, starts, ansatz, max_evals, ground))

    @pytest.mark.parametrize("max_evals, layers, entangler", [
        (700, 2, "linear_rzz"),
        (500, 3, "ring_rzz"),
    ])
    def test_prefix_reuse_matches_full_evaluations(self, landscape_ising, monkeypatch,
                                                   max_evals, layers, entangler):
        """Prefix reuse forced on at 9 qubits, through sweeps and restarts.

        With one state per call, as from 14 qubits up, every run keeps a prefix.
        """
        monkeypatch.setattr(vqe, "LOCKSTEP_AMPLITUDES", 1 << 9)
        ground = float(ground_states(landscape_ising)[0])
        starts = [(RandomInit(seed=seed + 40), seed) for seed in range(3)] + [(ZerosInit(), 2)]
        ansatz = AnsatzConfig(n=9, layers=layers, entangler=entangler)
        traces = run_lockstep(landscape_ising, starts, ansatz, max_evals, ground)
        assert [(t.energies, t.final_parameters, t.best_bitstring) for t in traces] == (
            _full_kernel_traces(landscape_ising, starts, ansatz, max_evals, ground))
        assert max(t.n_evaluations for t in traces) > 3 * ansatz.parameter_count  # restarts ran

    def test_nine_qubits_stack_the_batch(self, landscape_instance, monkeypatch):
        shapes = []
        apply = kernels.apply_ansatz_amplitudes

        def recording(psi0, *args):
            shapes.append(np.shape(psi0))
            return apply(psi0, *args)

        monkeypatch.setattr(kernels, "apply_ansatz_amplitudes", recording)
        max_evals = 300
        report = run_experiment(landscape_instance, "random", k=10, seed=0, max_evals=max_evals)
        evaluations = sum(t.n_evaluations for t in report.traces)
        # all 10 runs fit one group; a round asks at most two states per run
        assert max(shape[0] for shape in shapes if len(shape) == 2) == 20
        assert sum(shape[0] if len(shape) == 2 else 1 for shape in shapes) == evaluations
        assert len(shapes) < evaluations / 5


    @pytest.mark.parametrize("k", [16, 17])
    def test_one_kernel_call_per_stacked_round(self, landscape_ising, landscape_records,
                                               monkeypatch, k):
        """At 9 qubits each round of a group is one kernel call on a stack of
        exactly that round's pending vectors.  16 runs fill a group, whose
        rounds hold up to 32 vectors; a 17th run goes in a group of its own."""
        log = []  # the vector count of each request, then ("call", rows) of each call
        apply, search = kernels.apply_ansatz_amplitudes, vqe._search

        def recording(psi0, *args, **options):
            log.append(("call", len(psi0) if np.ndim(psi0) == 2 else 1))
            return apply(psi0, *args, **options)

        def logged(*args):
            inner = search(*args)
            request = next(inner)
            while True:
                log.append(len(request))
                try:
                    request = inner.send((yield request))
                except StopIteration as done:
                    return done.value

        monkeypatch.setattr(kernels, "apply_ansatz_amplitudes", recording)
        monkeypatch.setattr(vqe, "_search", logged)
        starts = [(MubInit(r.positions, r.basis, r.element), seed)
                  for seed, r in enumerate(best_k(landscape_records, k))]
        traces = run_lockstep(landscape_ising, starts, max_evals=60)
        # a round's requests are all asked before its call; the searches ask
        # nothing after the last call
        rounds, asked = [], 0
        for entry in log:
            if isinstance(entry, tuple):
                rounds.append((asked, entry[1]))
                asked = 0
            else:
                asked += entry
        assert asked == 0
        assert all(asked == rows for asked, rows in rounds)
        rows = [rows for _, rows in rounds]
        assert sum(rows) == sum(t.n_evaluations for t in traces)
        # the first 16 runs' starting points, then their probe pairs: a full call
        assert rows[:2] == [16, 32] and max(rows) == vqe.LOCKSTEP_AMPLITUDES >> 9
        if k == 17:  # then the last run alone: its start, then one or two vectors a round
            last = np.cumsum(rows[::-1])
            alone = int(np.searchsorted(last, traces[-1].n_evaluations)) + 1
            assert last[alone - 1] == traces[-1].n_evaluations
            assert rows[-alone] == 1 and max(rows[-alone:]) == 2


@pytest.mark.parametrize("qubits, mode, k, seed, max_evals", [
    (9, "best_mubs", 10, 0, 300),
    (9, "random", 10, 0, 2000),
    (9, "zeros", 1, 2, 2000),
    (16, "best_mubs", 4, 0, 2000),
    (16, "random", 1, 0, 300),
], ids=["9-best_mubs", "9-random", "9-zeros", "16-best_mubs", "16-random"])
def test_convergence_is_the_first_evaluation_within_tolerance(landscape_instance, qubits, mode,
                                                              k, seed, max_evals):
    """A run notes its convergence as it records each evaluation; the note
    is the first history index within ``CONVERGENCE_TOL`` (relative) of the
    ground energy, as a scan of the whole history finds it, and a run
    converges exactly when its final energy is within it."""
    instance = _seeded_instance_16() if qubits == 16 else landscape_instance
    report = run_experiment(instance, mode, k=k, seed=seed, max_evals=max_evals)
    ground = report.ground_energy
    tol = vqe.CONVERGENCE_TOL * max(1.0, abs(ground))
    for trace in report.traces:
        hits = np.flatnonzero(np.abs(np.asarray(trace.energies) - ground) <= tol)
        assert trace.converged == bool(hits.size) == (abs(trace.final_energy - ground) <= tol)
        assert trace.iterations_to_convergence == (int(hits[0]) if hits.size else None)
        # a run stops at the evaluation request that converges
        if trace.converged:
            assert len(trace.energies) - trace.iterations_to_convergence <= 2
    if k > 1:  # both outcomes are checked
        assert {trace.converged for trace in report.traces} == {True, False}


def test_landscape_and_best_k_peak_memory_per_record():
    # the landscape is a (C(n,3), 9) table and best_k sorts its entries, so
    # neither builds an array of one entry per record: at most 10 B of traced
    # memory per record at 20 qubits, once the energies are enumerated
    ising = _trivial_ising(20)
    ising.energy_int_vector()
    tracemalloc.start()
    try:
        landscape = compute_landscape(ising)
        top = best_k(landscape, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(landscape) == 82_080 and len(top) == 10
    assert peak <= 10 * len(landscape)


def test_landscape_csv_peak_memory_per_record():
    # the writer holds a sorted copy of the energies' bits while it finds the
    # distinct ones, then one block and tables per triple or per distinct
    # energy: at most 12 B of traced memory per record at 20 qubits, so no
    # further table of the whole run fits
    landscape = compute_landscape(_trivial_ising(20))
    assert len(landscape) == 82_080
    tracemalloc.start()
    try:
        for _ in landscape_csv_rows(landscape):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * len(landscape)
