import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from tspvqe import (
    IsingPolynomial,
    Landscape,
    ProblemInstance,
    SizeCapError,
    ValidationError,
    best_k,
    compute_landscape,
    encode_efficient,
    ground_states,
    run_experiment,
    suggest_penalties,
    to_ising,
)
from tspvqe import kernels, vqe
from tspvqe.dqes import _BASIS_ELEMENT_CELLS, _RECORDS_PER_TRIPLE, _SEED_STRIDE, landscape_csv_rows
from tspvqe.vqe import (
    AnsatzConfig,
    MubInit,
    OptimizerConfig,
    RandomInit,
    ZerosInit,
    _restart_points,
    optimize,
    run_lockstep,
    run_vqe,
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


def _seeded_instance_16():
    """A seeded complete 5-node TSP, whose efficient encoding has 16 qubits."""
    rng = random.Random(16)
    edges = tuple((u, v, rng.randint(1, 20)) for u in range(1, 6) for v in range(u + 1, 6))
    raw = ProblemInstance(5, False, "tsp", edges, 1, 1)
    return raw.with_penalties(*suggest_penalties(raw, "safe"))


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
        # records of a triple score the mean of its 8 support energies
        energies = landscape_records.energies.reshape(-1, 9, 8)
        means = energies[:, 0, :].mean(axis=1)
        assert np.abs(energies[:, 1:, :] - means[:, None, None]).max() < 1e-9

    def test_deterministic_order_and_ranks(self, landscape_ising, landscape_records):
        again = compute_landscape(landscape_ising)
        assert [(r.positions, r.basis, r.element) for r in again] == [
            (r.positions, r.basis, r.element) for r in landscape_records
        ]
        assert [r.energy for r in again] == [r.energy for r in landscape_records]
        ranks = {r.rank for r in landscape_records}
        assert min(ranks) == 0
        assert max(ranks) == len(set(np.round([r.energy for r in landscape_records], 9))) - 1

    def test_too_few_qubits_rejected(self):
        with pytest.raises(ValidationError):
            compute_landscape(_trivial_ising(2))

    def test_cap_cannot_exceed_hard_limit(self):
        # its own check, before the C(n,3) triples, not the enumeration's
        ising = _trivial_ising(25)
        with pytest.raises(SizeCapError, match="landscape capped at 24 qubits, got 25"):
            compute_landscape(ising)
        assert ising._int_energies is None  # refused before enumerating

    def test_float_vector_not_built(self, landscape_instance):
        ising = to_ising(encode_efficient(landscape_instance))
        compute_landscape(ising)
        assert ising._int_energies is not None
        assert not any(isinstance(value, np.ndarray) and value.dtype == np.float64
                       for value in vars(ising).values())  # no float energies kept

    def test_energies_match_direct_expectation(self, landscape_ising,
                                               landscape_records):
        # differential check against the state-vector expectation route
        from tspvqe import build_mubs_3q, embed_state
        from tspvqe.quantum import expectation

        mubs = build_mubs_3q()
        rng = np.random.default_rng(41)
        for i in rng.choice(len(landscape_records), size=60, replace=False):
            record = landscape_records[i]
            state = embed_state(
                mubs.bases[record.basis][record.element], record.positions, 9
            )
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
        # 2 ulp, not bit equality: the reference's 8x8 products run on the
        # installed BLAS, whose summation order einsum need not share
        np.testing.assert_array_max_ulp(
            landscape.energies, np.array([r.energy for r in reference]), maxulp=2
        )
        assert landscape.ranks.tolist() == [r.rank for r in reference]

    def test_best_k_is_energy_then_index_order(self, pair):
        landscape, _ = pair
        # the landscape's own records (checked against the reference above):
        # bases 1-8 tie up to float noise, so the order follows the last bits
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


def _landscape_rows_per_row(landscape):
    """The landscape CSV as rendered before the block writer: one f-string per row."""
    yield "index,positions,basis,element,energy\n"
    for t, triple in enumerate(landscape.triples.tolist()):
        pos = "-".join(map(str, triple))
        start = t * _RECORDS_PER_TRIPLE
        energies = landscape.energies[start:start + _RECORDS_PER_TRIPLE].tolist()
        yield "".join(
            f"{start + j},{pos}{cells}{energy!r}\n"
            for j, (cells, energy) in enumerate(zip(_BASIS_ELEMENT_CELLS, energies))
        )


def _odd_landscape(n):
    """A landscape on n qubits whose energies mix signed zeros, infinities,
    NaN, subnormals and floats of every repr length."""
    rng = np.random.default_rng(n)
    triples = np.array(list(combinations(range(n), 3)), dtype=np.int64)
    odd = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-300, 1e16, 123456789.0, 0.1, 1 / 3]
    count = len(triples) * _RECORDS_PER_TRIPLE
    energies = np.where(rng.random(count) < 0.3, rng.choice(odd, count),
                        rng.normal(size=count) * 10.0 ** rng.integers(-8, 9, count))
    return Landscape(triples, energies, np.zeros(count, dtype=np.int64))


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

    def test_immutable(self, landscape_records):
        with pytest.raises(ValueError):
            landscape_records.energies[0] = 0.0
        with pytest.raises(AttributeError):
            landscape_records.energies = None


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


class TestCsv:
    def test_header_and_row_shape(self, landscape_records):
        chunks = list(landscape_csv_rows(landscape_records))
        assert chunks[0] == b"index,positions,basis,element,energy\n"
        assert chunks[1].startswith(b"0,0-1-2,0,0,")
        assert all(chunk.endswith(b"\n") for chunk in chunks)
        assert b"".join(chunks) == "".join(_landscape_rows_per_row(landscape_records)).encode()


class TestExperiments:
    def test_zeros_mode(self, landscape_instance):
        report = run_experiment(landscape_instance, "zeros", seed=0)
        assert report.n_runs == 1
        assert report.converged_count == 1
        assert report.oracle_cost == 13
        assert report.ground_energy == pytest.approx(13.0)
        decoded = report.decoded_tours[0]
        assert decoded["valid"] is True
        assert decoded["cost"] == 13

    def test_ground_energy_renders_no_bitstrings(self, landscape_instance, monkeypatch):
        from tspvqe import ising

        def render(*args):
            raise AssertionError("ground bitstrings rendered")

        monkeypatch.setattr(ising, "_bitstrings", render)
        optimizer = OptimizerConfig(method="rotation_descent", max_evals=5)
        report = run_experiment(landscape_instance, "zeros", seed=0, optimizer=optimizer)
        assert report.ground_energy_exact == 13
        assert report.ground_energy == 13.0

    def test_best_mubs_small_batch(self, landscape_instance):
        # k=2 picks the two exact ground states; both converge instantly
        report = run_experiment(landscape_instance, "best_mubs", k=2, seed=0)
        assert report.converged_count == 2
        assert report.mean_iterations_to_convergence == 0.0
        assert {tuple(d["order"]) for d in report.decoded_tours} == {
            (1, 2, 4, 3), (1, 3, 4, 2),
        }

    def test_random_mode_runs(self, landscape_instance):
        report = run_experiment(landscape_instance, "random", k=2, seed=0)
        assert report.n_runs == 2
        labels = [t.initial_label for t in report.traces]
        assert all(lbl.startswith("random(") for lbl in labels)
        assert len(set(labels)) == 2

    def test_determinism(self, landscape_instance):
        a = run_experiment(landscape_instance, "best_mubs", k=3, seed=4)
        b = run_experiment(landscape_instance, "best_mubs", k=3, seed=4)
        assert a.to_dict() == b.to_dict()

    def test_worker_pool_matches_serial(self, landscape_instance):
        short = OptimizerConfig(method="rotation_descent", max_evals=300)
        for mode, k, optimizer in (("best_mubs", 4, None), ("random", 10, short)):
            serial = run_experiment(landscape_instance, mode, k=k, seed=1, optimizer=optimizer)
            pooled = run_experiment(landscape_instance, mode, k=k, seed=1, optimizer=optimizer,
                                    threads=2)
            a, b = serial.to_dict(), pooled.to_dict()
            # the config echo records the thread count itself
            assert a.pop("config") == {**b.pop("config"), "threads": 1}
            assert a == b, mode

    def test_worker_pool_starts_one_worker_per_part(self, landscape_instance, monkeypatch):
        """A pool forks all of its workers at once, so it is sized to the
        parts of the batch, not to the requested thread count."""
        import concurrent.futures

        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        short = OptimizerConfig(method="rotation_descent", max_evals=5)
        for mode, k, threads, workers in (("zeros", 1, 4, 1), ("random", 10, 6, 5)):
            pooled = run_experiment(landscape_instance, mode, k=k, seed=2, optimizer=short,
                                    threads=threads)
            assert sizes.pop() == workers, mode
            assert pooled.to_dict()["config"]["threads"] == threads
            serial = run_experiment(landscape_instance, mode, k=k, seed=2, optimizer=short)
            assert pooled.traces == serial.traces, mode
        assert sizes == []

    def test_unknown_mode(self, landscape_instance):
        with pytest.raises(ValidationError):
            run_experiment(landscape_instance, "everything")

    def test_instance_without_valid_tour(self):
        # the Hamiltonian minimum is still defined; the oracle reports no tour
        from tspvqe import ProblemInstance
        from tspvqe.vqe import OptimizerConfig

        inst = ProblemInstance(4, False, "tsp",
                               ((1, 2, 1), (2, 3, 1), (3, 4, 1)), 5, 1)
        report = run_experiment(
            inst, "zeros", seed=0,
            optimizer=OptimizerConfig(method="rotation_descent", max_evals=300),
        )
        assert report.oracle_cost is None
        assert report.oracle_tours == ()
        assert report.to_dict()["oracle_cost"] is None
        assert report.decoded_tours[0]["valid"] in (True, False)


def _independent_traces(instance, report, ansatz, optimizer):
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
            ising, init, ansatz=ansatz, optimizer=optimizer,
            seed=report.seed * _SEED_STRIDE + 2 * i,
            ground_energy=report.ground_energy,
            convergence_tol=report.convergence_tol,
        ).to_dict()
        for i, init in enumerate(inits)
    ]


def _full_kernel_traces(ising, starts, ansatz, optimizer, ground_energy, convergence_tol):
    """(history, best parameters, best bitstring) of each start, from
    ``optimize`` with an objective that runs the whole ansatz on every vector."""
    energy_vector = ising.energy_float_vector()
    out = []
    for init, seed in starts:
        psi0, product_angles = init.build(ansatz.n)

        def probabilities(x):
            amps = kernels.apply_ansatz_amplitudes(psi0.amplitudes, ansatz.n, ansatz.layers,
                                                   ansatz.ring, x)
            return np.abs(amps) ** 2

        result = optimize(
            lambda x: float(probabilities(x) @ energy_vector),
            np.zeros(ansatz.parameter_count), optimizer, seed=seed, target=ground_energy,
            target_tol=convergence_tol * max(1.0, abs(ground_energy)),
            restart_points=_restart_points(ansatz, product_angles, seed),
        )
        peak = int(np.argmax(probabilities(result.best_params)))
        bits = "".join(str((peak >> k) & 1) for k in range(ansatz.n))
        out.append((result.history, [float(p) for p in result.best_params], bits))
    return out


class TestLockstep:
    """A batch run in lockstep equals its runs made one at a time."""

    @pytest.mark.parametrize("mode, k, seed, method, layers, entangler", [
        ("zeros", 1, 0, "rotation_descent", 2, "linear_rzz"),
        ("best_mubs", 10, 0, "rotation_descent", 2, "linear_rzz"),
        ("random", 10, 0, "rotation_descent", 2, "linear_rzz"),
        ("random", 4, 0, "nelder_mead", 2, "linear_rzz"),
        ("random", 3, 2, "rotation_descent", 3, "ring_rzz"),
    ])
    def test_matches_independent_runs(self, landscape_instance, mode, k, seed, method,
                                      layers, entangler):
        optimizer = OptimizerConfig(method=method, max_evals=300)
        report = run_experiment(landscape_instance, mode, k=k, seed=seed, layers=layers,
                                entangler=entangler, optimizer=optimizer)
        assert [t.to_dict() for t in report.traces] == _independent_traces(
            landscape_instance, report, AnsatzConfig(n=9, layers=layers, entangler=entangler),
            optimizer)

    def test_runs_of_unequal_length(self, landscape_instance):
        # two runs start at the ground state, two use all but one evaluation
        optimizer = OptimizerConfig(method="rotation_descent", max_evals=300)
        report = run_experiment(landscape_instance, "best_mubs", k=10, seed=1,
                                optimizer=optimizer)
        lengths = [t.n_evaluations for t in report.traces]
        assert min(lengths) == 1 and max(lengths) == 299
        assert [t.to_dict() for t in report.traces] == _independent_traces(
            landscape_instance, report, AnsatzConfig(n=9), optimizer)

    def test_sixteen_qubits_one_state_per_call(self, monkeypatch):
        instance = _seeded_instance_16()
        calls, lent = [], []
        apply = kernels.apply_ansatz_amplitudes

        def recording(psi0, *args, start=0, stop=None, buffers=None):
            calls.append((np.shape(psi0), start, stop))
            lent.append(buffers)
            return apply(psi0, *args, start=start, stop=stop, buffers=buffers)

        monkeypatch.setattr(kernels, "apply_ansatz_amplitudes", recording)
        optimizer = OptimizerConfig(method="rotation_descent", max_evals=20)
        report = run_experiment(instance, "best_mubs", k=2, seed=0, optimizer=optimizer)
        assert {shape for shape, _, _ in calls} == {(1 << 16,)}
        # every call writes into its run's own pair of buffers, three per run
        assert all(pair is not None for pair in lent)
        assert len({id(b) for pair in lent for b in pair}) <= 3 * len(report.traces)
        # one call to the end per evaluation, none to find the best bitstrings
        # afterwards; most start from a kept prefix, and fewer calls carry a
        # prefix forward
        evaluations = sum(t.n_evaluations for t in report.traces)
        assert sum(stop is None for _, _, stop in calls) == evaluations
        assert sum(start > 0 for _, start, stop in calls if stop is None) >= evaluations // 2
        assert sum(stop is not None for _, _, stop in calls) <= evaluations // 2
        assert [t.to_dict() for t in report.traces] == _independent_traces(
            instance, report, AnsatzConfig(n=16), optimizer)

    def test_sixteen_qubits_match_full_evaluations(self):
        """Prefix reuse at 16 qubits against whole-ansatz evaluations."""
        ising = _seeded_ising_16()
        ground = float(ground_states(ising)[0])
        best = best_k(compute_landscape(ising), 1)[0]
        starts = [(MubInit(positions=best.positions, basis=best.basis, element=best.element), 3),
                  (RandomInit(seed=11), 4)]
        ansatz = AnsatzConfig(n=16)
        optimizer = OptimizerConfig(method="rotation_descent", max_evals=40)
        traces = run_lockstep(ising, starts, ansatz, optimizer, ground, 1e-6)
        assert [(t.energies, t.final_parameters, t.best_bitstring) for t in traces] == (
            _full_kernel_traces(ising, starts, ansatz, optimizer, ground, 1e-6))

    @pytest.mark.parametrize("method, max_evals, layers, entangler", [
        ("rotation_descent", 700, 2, "linear_rzz"),
        ("rotation_descent", 500, 3, "ring_rzz"),
        ("nelder_mead", 300, 2, "linear_rzz"),
    ])
    def test_prefix_reuse_matches_full_evaluations(self, landscape_ising, monkeypatch,
                                                   method, max_evals, layers, entangler):
        """Prefix reuse forced on at 9 qubits, through sweeps, restarts and simplices.

        With one state per call, as from 14 qubits up, every run keeps a prefix.
        """
        monkeypatch.setattr(vqe, "LOCKSTEP_AMPLITUDES", 1 << 9)
        ground = float(ground_states(landscape_ising)[0])
        starts = [(RandomInit(seed=seed + 40), seed) for seed in range(3)] + [(ZerosInit(), 2)]
        ansatz = AnsatzConfig(n=9, layers=layers, entangler=entangler)
        optimizer = OptimizerConfig(method=method, max_evals=max_evals)
        traces = run_lockstep(landscape_ising, starts, ansatz, optimizer, ground, 1e-6)
        assert [(t.energies, t.final_parameters, t.best_bitstring) for t in traces] == (
            _full_kernel_traces(landscape_ising, starts, ansatz, optimizer, ground, 1e-6))
        assert max(t.n_evaluations for t in traces) > 3 * ansatz.parameter_count  # restarts ran

    def test_nine_qubits_stack_the_batch(self, landscape_instance, monkeypatch):
        shapes = []
        apply = kernels.apply_ansatz_amplitudes

        def recording(psi0, *args):
            shapes.append(np.shape(psi0))
            return apply(psi0, *args)

        monkeypatch.setattr(kernels, "apply_ansatz_amplitudes", recording)
        optimizer = OptimizerConfig(method="rotation_descent", max_evals=300)
        report = run_experiment(landscape_instance, "random", k=10, seed=0, optimizer=optimizer)
        evaluations = sum(t.n_evaluations for t in report.traces)
        # all 10 runs fit one group; a round asks at most two states per run
        assert max(shape[0] for shape in shapes if len(shape) == 2) == 20
        assert sum(shape[0] if len(shape) == 2 else 1 for shape in shapes) == evaluations
        assert len(shapes) < evaluations / 5


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
