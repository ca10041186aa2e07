import itertools
import json
import re

import numpy as np
import pytest

from reference import expectation, optimize, run_vqe, spread, support
from tspvqe import (
    AnsatzConfig,
    MubInit,
    RandomInit,
    ValidationError,
    ZerosInit,
    build_mubs_3q,
    encode_efficient,
    ground_states,
    run_experiment,
    to_ising,
)
from tspvqe import cli, kernels, vqe
from tspvqe.kernels import apply_ansatz_amplitudes
from tspvqe.vqe import run_lockstep


@pytest.fixture(scope="module")
def landscape_ising(landscape_instance):
    return to_ising(encode_efficient(landscape_instance))


class TestAnsatz:
    def test_parameter_count(self):
        # per layer: 2n rotations + entanglers; plus a final rotation layer
        for n, layers, entangler in itertools.product([3, 4, 9, 16], [1, 2, 3], vqe.ENTANGLERS):
            entanglers = n if entangler == "ring_rzz" else n - 1
            config = AnsatzConfig(n=n, layers=layers, entangler=entangler)
            assert config.parameter_count == layers * (2 * n + entanglers) + 2 * n
        assert AnsatzConfig(n=9, layers=2).parameter_count == 2 * 26 + 18
        assert AnsatzConfig(n=4, layers=1, entangler="ring_rzz").parameter_count == 20

    @pytest.mark.parametrize("field, value, message", [
        ("n", 0, "ansatz needs at least one qubit, got 0"),
        ("n", -3, "ansatz needs at least one qubit, got -3"),
        ("n", 1.5, "ansatz n must be an int, got 1.5"),
        ("n", True, "ansatz n must be an int, got True"),
        ("layers", 1.5, "ansatz layers must be an int, got 1.5"),
        ("layers", True, "ansatz layers must be an int, got True"),
    ], ids=["n=0", "n=-3", "n=1.5", "n=True", "layers=1.5", "layers=True"])
    def test_impossible_shapes_refused(self, field, value, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            AnsatzConfig(**{"n": 4, field: value})

    def test_numpy_ints_accepted(self):
        # and stored as plain ints, as the report writes them
        config = AnsatzConfig(n=np.int64(4), layers=np.int64(2))
        assert config.parameter_count == AnsatzConfig(n=4, layers=2).parameter_count
        assert (type(config.n), type(config.layers)) == (int, int)
        assert config == AnsatzConfig(n=4, layers=2)

    @pytest.mark.parametrize("n", [1, 2])
    def test_ring_below_3_qubits_refused(self, n):
        # its entanglers would pair a qubit with itself, or act on (0, 1) twice
        with pytest.raises(ValidationError, match=f"ring_rzz needs at least 3 qubits, got {n}"):
            AnsatzConfig(n=n, entangler="ring_rzz")
        # a linear chain has n - 1 entanglers per layer, a ring n
        assert AnsatzConfig(n=n).parameter_count == 2 * (2 * n + n - 1) + 2 * n
        assert AnsatzConfig(n=3, entangler="ring_rzz").parameter_count == 2 * (2 * 3 + 3) + 2 * 3

    def test_identity_at_zero(self):
        rng = np.random.default_rng(3)
        config = AnsatzConfig(n=5, layers=2)
        params = np.zeros(config.parameter_count)
        for _ in range(100):
            amps = rng.normal(size=32) + 1j * rng.normal(size=32)
            amps /= np.linalg.norm(amps)
            after = apply_ansatz_amplitudes(amps, config.n, config.layers, config.ring, params)
            assert after is not amps
            assert np.array_equal(after.view(np.int64), amps.view(np.int64))

    def test_unitarity(self):
        rng = np.random.default_rng(7)
        config = AnsatzConfig(n=4, layers=3, entangler="ring_rzz")
        params = rng.uniform(-np.pi, np.pi, config.parameter_count)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        after = apply_ansatz_amplitudes(amps, config.n, config.layers, config.ring, params)
        assert abs(np.linalg.norm(after) - 1.0) < 1e-10


class TestOptimize:
    def test_flat_objective(self):
        result = optimize(lambda x: 5.0, [0.0, 0.0], 60, seed=1)
        assert set(result.history) == {5.0}

    def test_history_is_best_so_far(self):
        result = optimize(lambda x: float(np.sum(x ** 2)), [2.0, -3.0], 300, seed=2)
        history = np.asarray(result.history)
        assert history[0] == 13.0
        assert np.all(np.diff(history) <= 0)
        assert history[-1] == result.best_value

    def test_rotation_descent_exact_on_separable_sinusoids(self):
        def trig(x):
            return float(2.0 + np.cos(x[0] - 0.3) + 0.5 * np.sin(x[1] + 1.0))

        result = optimize(trig, np.zeros(2), 300, seed=0)
        assert result.best_value == pytest.approx(0.5, abs=1e-9)

    def test_rotation_descent_reaches_coordinate_stationarity(self):
        # with a cross term the method is a local optimizer: the result must
        # at least be minimal along every single coordinate
        def trig(x):
            return float(2.0 + np.cos(x[0] - 0.3) + 0.5 * np.sin(x[1] + 1.0)
                         + 0.2 * np.cos(x[0] + x[1]))

        result = optimize(trig, np.zeros(2), 300, seed=0)
        for k in range(2):
            for offset in (0.3, np.pi / 2, np.pi, -0.7):
                probe = np.array(result.best_params)
                probe[k] += offset
                assert trig(probe) >= result.best_value - 1e-9

    def test_restart_jitters_x0_by_the_seeded_draw(self):
        """On a flat objective with no restart points the first sweep stalls,
        and the search restarts at x0 plus a uniform draw in +/- pi *
        restart_jitter, drawn after that sweep's coordinate order."""
        x0 = np.array([0.5, -1.0, 2.0, 0.25])
        seed = 7
        search = vqe._search(x0, 2000, seed, None, 0.0, None)
        requests = [next(search)]
        while len(requests) == 1 or len(requests[-1]) == 2:
            requests.append(search.send([5.0] * len(requests[-1])))
        # x0, one probe pair per coordinate, then the restart
        assert len(requests) == 2 + len(x0)
        rng = np.random.default_rng(seed)
        rng.permutation(len(x0))
        width = vqe.OPTIMIZER["restart_jitter"] * np.pi
        jitter = rng.uniform(-width, width, len(x0))
        [restart] = requests[-1]
        np.testing.assert_array_equal(restart, x0 + jitter)

    def test_respects_eval_cap(self):
        calls = []

        def f(x):
            calls.append(1)
            return float(np.sum(x ** 2))

        optimize(f, np.zeros(8), 100, seed=0)
        assert len(calls) <= 100

    @pytest.mark.parametrize("value, message", [
        (2.5, "max_evals must be an int, got 2.5"),
        (True, "max_evals must be an int, got True"),
        ("5", "max_evals must be an int, got '5'"),
    ], ids=["max_evals=2.5", "max_evals=True", "max_evals-str"])
    def test_config_refuses_values_of_another_type(self, landscape_instance, monkeypatch,
                                                   value, message):
        """The evaluation cap, the one setting of a run, is refused before
        anything is encoded."""
        from tspvqe import dqes

        def unreachable(*args, **kwargs):
            raise AssertionError(f"reached with max_evals={value!r}")

        monkeypatch.setattr(dqes, "spin_form", unreachable)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            run_experiment(landscape_instance, "zeros", max_evals=value)


@pytest.mark.parametrize("setting, value", [
    ("layers", np.int64(2)), ("max_evals", np.int64(5)),
], ids=["layers", "max_evals"])
def test_numpy_settings_reach_the_report_as_plain_numbers(landscape_instance, setting, value):
    """A numpy ansatz or optimizer setting runs the whole experiment, and its
    report is written as JSON as that of the plain number."""
    plain = value.item()

    def report(v):
        settings = {"layers": 2, "max_evals": 5, setting: v}
        return run_experiment(landscape_instance, "zeros", **settings)

    assert (json.dumps(report(value), default=cli.json_default)
            == json.dumps(report(plain), default=cli.json_default))


class TestRunVqe:
    def test_trace_starts_at_initial_energy(self, landscape_ising):
        trace = run_vqe(landscape_ising, ZerosInit(), seed=0, max_evals=50)
        # zeros state: all rows and columns empty, six A penalties
        assert trace.energies[0] == pytest.approx(66.0, abs=1e-12)

    def test_start_at_ground_state_converges_immediately(self, landscape_ising):
        energy, bitstrings = ground_states(landscape_ising)
        # |111> placed on the set bits of a ground bitstring
        positions = tuple(k for k, b in enumerate(bitstrings[1]) if b == "1")
        init = MubInit(positions=positions, basis=0, element=7)
        trace = run_vqe(landscape_ising, init, seed=0, ground_energy=float(energy))
        assert trace.converged
        assert trace.iterations_to_convergence == 0
        assert trace.energies[0] == pytest.approx(float(energy), abs=1e-12)
        assert trace.best_bitstring == bitstrings[1]

    def test_run_without_ground_energy_never_converges(self, landscape_ising):
        """With no target a run starting on a ground state notes no
        convergence, and goes on until its evaluations run out."""
        energy, bitstrings = ground_states(landscape_ising)
        positions = tuple(k for k, b in enumerate(bitstrings[1]) if b == "1")
        init = MubInit(positions=positions, basis=0, element=7)
        trace = run_vqe(landscape_ising, init, seed=0, max_evals=60)
        assert trace.energies[0] == pytest.approx(float(energy), abs=1e-12)
        assert trace.converged is False
        assert trace.iterations_to_convergence is None
        assert trace.n_evaluations > 60 - 3

    def test_zeros_run_converges_with_documented_seed(self, landscape_ising):
        energy, _ = ground_states(landscape_ising)
        trace = run_vqe(landscape_ising, ZerosInit(), seed=2,
                        ground_energy=float(energy))
        assert trace.converged
        assert trace.n_evaluations <= 2000

    def test_final_energy_bounded_by_ground(self, landscape_ising):
        energies = landscape_ising.energy_float_vector()
        for seed in range(3):
            trace = run_vqe(landscape_ising, RandomInit(seed=seed + 50), seed=seed, max_evals=400)
            assert trace.final_energy >= energies.min() - 1e-9
            history = np.asarray(trace.energies)
            assert np.all(np.diff(history) <= 0)
            assert trace.final_energy == history[-1]

    def test_determinism(self, landscape_ising):
        energy, _ = ground_states(landscape_ising)
        a = run_vqe(landscape_ising, RandomInit(seed=99), seed=7,
                    ground_energy=float(energy))
        b = run_vqe(landscape_ising, RandomInit(seed=99), seed=7,
                    ground_energy=float(energy))
        assert a.energies == b.energies
        assert a.final_parameters == b.final_parameters
        assert a.best_bitstring == b.best_bitstring

    def test_random_init_first_energy_matches_state(self, landscape_ising):
        init = RandomInit(seed=123)
        held, amps, _ = init.build(9)
        assert held == tuple(range(9))
        trace = run_vqe(landscape_ising, init, seed=0, max_evals=30)
        assert trace.energies[0] == pytest.approx(
            expectation(landscape_ising, spread(amps, held, 9)), rel=1e-12
        )

    def test_constant_hamiltonian_gives_flat_trace(self):
        from fractions import Fraction

        from tspvqe import IsingPolynomial

        flat = IsingPolynomial(
            n=4,
            constant=Fraction(7),
            fields={},
            couplings={},
            variable_order=tuple((1, t) for t in range(1, 5)),
            layout="full",
            node_count=4,
        )
        trace = run_vqe(flat, ZerosInit(), seed=0, max_evals=200)
        assert set(trace.energies) == {7.0}


def test_lockstep_runs_at_14_qubits_reuse_their_buffers(monkeypatch):
    """From 14 qubits up every kernel call of a batch writes into one set of
    three buffers, run after run, and each trace is that of the run made
    alone with calls that allocate."""
    import random
    from fractions import Fraction

    from tspvqe import IsingPolynomial, kernels
    from tspvqe.vqe import run_lockstep

    n = 14
    rng = random.Random(14)
    values = [Fraction(p, q) for p in (-3, -1, 2, 5) for q in (1, 4)]
    ising = IsingPolynomial(
        n=n,
        constant=Fraction(1, 3),
        fields={i: rng.choice(values) for i in range(n)},
        couplings={(i, i + 1): rng.choice(values) for i in range(n - 1)},
        variable_order=tuple((1, t) for t in range(1, n + 1)),
        layout="full",
        node_count=n,
    )
    original = kernels.apply_ansatz_amplitudes
    lent = []  # holds the buffers, so no two of them share an id

    def recording(*args, **kwargs):
        lent.append(kwargs.get("buffers"))
        return original(*args, **kwargs)

    def allocating(*args, buffers=None, **kwargs):
        return original(*args, **kwargs)

    starts = [(RandomInit(seed=5), 3), (RandomInit(seed=8), 4)]
    monkeypatch.setattr(kernels, "apply_ansatz_amplitudes", recording)
    batch = run_lockstep(ising, starts, max_evals=25)
    monkeypatch.setattr(kernels, "apply_ansatz_amplitudes", allocating)
    alone = [run_vqe(ising, init, seed=seed, max_evals=25) for init, seed in starts]
    assert len(lent) > sum(t.n_evaluations for t in batch)  # prefixes were carried too
    assert all(pair is not None for pair in lent)
    assert len({id(b) for pair in lent for b in pair}) == 3
    assert batch == alone


def _chain_ising(n, seed):
    """A seeded spin form on an n-spin chain, fields and couplings in quarters."""
    import random
    from fractions import Fraction

    from tspvqe import IsingPolynomial

    rng = random.Random(seed)
    values = [Fraction(p, q) for p in (-3, -1, 2, 5) for q in (1, 4)]
    return IsingPolynomial(
        n=n, constant=Fraction(1, 3), fields={i: rng.choice(values) for i in range(n)},
        couplings={(i, i + 1): rng.choice(values) for i in range(n - 1)},
        variable_order=tuple((1, t) for t in range(1, n + 1)), layout="full", node_count=n)


@pytest.mark.parametrize("case, rows", [
    ("zero on a qubit not held", [1, 1]),
    ("zero on a held qubit", [2]),
    ("both turned", [2]),
    ("above the cap", [1, 1]),
])
def test_a_probe_pair_goes_in_one_call_when_its_rows_hold_the_same_qubits(monkeypatch, case,
                                                                          rows):
    """A prefix evaluates a probe pair in one stacked call when both rows
    hold the same qubits after every stage and together fit
    ``LOCKSTEP_AMPLITUDES``; else one vector per call.  Either way each
    value has the bits of the pair evaluated one vector per call."""
    n = 14 if case == "above the cap" else 16
    ansatz = AnsatzConfig(n=n)
    energy_vector = _chain_ising(n, n).energy_float_vector()
    if case == "above the cap":  # a random start holds every qubit: 2 x 2^14 amplitudes
        held, amps, _ = RandomInit(seed=3).build(n)
    else:
        held, amps, _ = MubInit(positions=(2, 5, 9), basis=1, element=3).build(n)
    ry, _ = kernels.ansatz_rotations(n, ansatz.layers, ansatz.ring)
    x = np.zeros(ansatz.parameter_count)
    x[[ry[0, 5], ry[0, 11], ry[1, 7]]] = (0.4, -0.3, 0.9)
    k = ry[1, 2] if case == "zero on a held qubit" else ry[1, 0]
    x[k] = 0.7
    probe = 0.5 if case == "both turned" else 0.7  # 0.7 - 0.7 is exactly 0.0
    plus, minus = x.copy(), x.copy()
    plus[k] += probe
    minus[k] -= probe
    assert (minus[k] == 0.0) == (probe == 0.7)

    calls = []
    apply = kernels.apply_ansatz_amplitudes

    def recording(psi0, *args, stop=None, **options):
        out = apply(psi0, *args, stop=stop, **options)  # a refused call raises, doing nothing
        if stop is None:
            calls.append(len(psi0) if np.ndim(psi0) == 2 else 1)
        return out

    monkeypatch.setattr(kernels, "apply_ansatz_amplitudes", recording)
    prefix = vqe._Prefix(held, amps, ansatz, vqe._state_buffers(n))
    values = prefix.values((plus, minus), vqe._Tally(energy_vector))
    assert calls == rows
    monkeypatch.setattr(vqe, "LOCKSTEP_AMPLITUDES", 2)  # no pair of these states fits
    alone = vqe._Prefix(held, amps, ansatz, vqe._state_buffers(n))
    assert values == alone.values((plus, minus), vqe._Tally(energy_vector))
    assert calls == rows + [1, 1]


def test_restart_points_are_built_at_the_first_restart(landscape_ising, monkeypatch):
    """A run builds its restart points when it first restarts, so one that
    never restarts builds none.  On a constant Hamiltonian every first
    sweep stalls, so each run of 200 evaluations restarts and builds them
    once; the traces are those of runs given the points up front."""
    from fractions import Fraction

    from tspvqe import IsingPolynomial

    built = []
    restart_points = vqe._restart_points

    def counted(config, product_angles, seed, *args):
        # a generator: the seed is noted when the body runs, not at the call
        built.append(seed)
        yield from restart_points(config, product_angles, seed, *args)

    def eager(*args):
        return iter(list(restart_points(*args)))

    flat = IsingPolynomial(n=4, constant=Fraction(3, 2), fields={}, couplings={},
                           variable_order=tuple((1, t) for t in range(1, 5)), layout="full",
                           node_count=4)
    starts = [(RandomInit(seed=40 + seed), seed) for seed in range(3)] + [(ZerosInit(), 7)]
    monkeypatch.setattr(vqe, "_restart_points", counted)
    assert run_lockstep(flat, starts, max_evals=20)
    assert built == []
    lazy = {}
    for hamiltonian, max_evals in ((flat, 200), (landscape_ising, 400)):
        lazy[max_evals] = run_lockstep(hamiltonian, starts,
                                       max_evals=max_evals)
        if hamiltonian is flat:
            assert built == [0, 1, 2, 7]
    monkeypatch.setattr(vqe, "_restart_points", eager)
    for hamiltonian, max_evals in ((flat, 200), (landscape_ising, 400)):
        assert lazy[max_evals] == run_lockstep(hamiltonian, starts,
                                               max_evals=max_evals)


def _restart_points_per_qubit(config, product_angles, seed, count=16):
    """The restart points as built before they were filled by whole columns:
    one loop over the qubits per point, the same seeded draws in order."""
    if config.layers < 2:
        return []
    n = config.n
    rng = np.random.default_rng([seed, 0x5EED])
    angles = product_angles if product_angles is not None else np.zeros((n, 2))
    draws = [rng.integers(0, 2, n) for _ in range(count)]
    if product_angles is not None and np.any(product_angles):
        draws.insert(0, (np.sin(angles[:, 0] / 2.0) ** 2 > 0.5).astype(int))
    points = []
    for bits in draws:
        x = np.zeros(config.parameter_count)
        per_layer = 2 * n + (n if config.ring else n - 1)
        for q in range(n):
            alpha, beta = angles[q]
            x[n + q] = -beta
            x[per_layer + q] = (np.pi - alpha) if bits[q] else -alpha
        points.append(x)
    return points


@pytest.mark.parametrize("init, layers, entangler", [
    (ZerosInit(), 2, "linear_rzz"),
    (RandomInit(seed=7), 2, "linear_rzz"),
    (RandomInit(seed=8), 3, "ring_rzz"),
    (MubInit(positions=(0, 2, 4), basis=3, element=5), 2, "linear_rzz"),
    (RandomInit(seed=9), 1, "linear_rzz"),
])
def test_restart_points_match_the_per_qubit_construction(init, layers, entangler):
    # every restart point keeps its bits, signed zeros included
    config = AnsatzConfig(n=9, layers=layers, entangler=entangler)
    *_, product_angles = init.build(config.n)
    for seed in (0, 1, 12345):
        points = list(vqe._restart_points(config, product_angles, seed))
        expected = _restart_points_per_qubit(config, product_angles, seed)
        assert len(points) == len(expected) == (0 if layers < 2 else 16 + (
            product_angles is not None and bool(np.any(product_angles))))
        for got, want in zip(points, expected):
            assert got.tobytes() == want.tobytes()


class TestInitBuild:
    """Each init builds its start held on the qubits it occupies."""

    @staticmethod
    def _check_held_build(init, n, dense):
        """The start spread onto all n qubits has the bits of ``dense``, and
        is held on exactly the support of ``dense``."""
        held, amps, _ = init.build(n)
        assert spread(amps, held, n).tobytes() == dense.tobytes()
        assert held == support(dense)

    @pytest.mark.parametrize("n, positions", [(9, (1, 4, 6)), (16, (0, 7, 15))])
    def test_mub_starts_match_the_dense_embedding(self, n, positions):
        mubs = build_mubs_3q()
        for basis in range(9):
            for element in range(8):
                init = MubInit(positions=positions, basis=basis, element=element)
                held, amps, product_angles = init.build(n)
                assert amps.size <= 8 and product_angles is None
                self._check_held_build(
                    init, n, spread(mubs[basis, element], positions, n))

    @pytest.mark.parametrize("n", [9, 16])
    def test_zeros_and_random_starts_match_the_dense_build(self, n):
        zeros = np.zeros(1 << n, dtype=complex)
        zeros[0] = 1
        assert ZerosInit().build(n)[1].size == 1
        self._check_held_build(ZerosInit(), n, zeros)
        # the product state amplitude by amplitude, qubit 0's factor first
        angles = RandomInit(seed=17).build(n)[2]
        product = np.ones(1 << n, dtype=complex)
        bits = np.arange(1 << n)
        for q, (alpha, beta) in enumerate(angles):
            qubit = np.array([np.cos(alpha / 2), np.sin(alpha / 2)], dtype=complex)
            qubit *= np.exp(np.array([-1j * beta / 2, 1j * beta / 2]))
            product = qubit[(bits >> q) & 1] * product
        self._check_held_build(RandomInit(seed=17), n, product)

    @pytest.mark.parametrize("field, value", [
        ("basis", -1), ("basis", 9), ("basis", 1.0), ("element", -1), ("element", 8),
        ("element", True),
    ])
    def test_mub_refuses_a_basis_or_element_out_of_range(self, field, value):
        fields = {"positions": (0, 1, 2), "basis": 0, "element": 0, field: value}
        with pytest.raises(ValidationError, match=f"MUB {field} must be an int in 0..[78]"):
            MubInit(**fields)

    @pytest.mark.parametrize("positions", [(2, 1, 0), (0, 0, 1), (0, 1), (0, 1, 2, 3),
                                           (-1, 0, 1), (0, 1.0, 2)])
    def test_mub_refuses_positions_not_three_ascending_qubits(self, positions):
        with pytest.raises(ValidationError, match="three distinct ascending qubits"):
            MubInit(positions=positions, basis=0, element=0)

    def test_mub_refuses_positions_past_the_last_qubit(self):
        init = MubInit(positions=(0, 1, 9), basis=0, element=0)
        with pytest.raises(ValidationError, match=r"out of range for 9 qubits"):
            init.build(9)
        assert init.build(10)[0] == ()
