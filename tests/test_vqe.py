import numpy as np
import pytest

from tspvqe import (
    AnsatzConfig,
    MubInit,
    OptimizerConfig,
    RandomInit,
    ValidationError,
    ZerosInit,
    apply_ansatz,
    encode_efficient,
    ground_states,
    optimize,
    run_vqe,
    to_ising,
)
from tspvqe import vqe
from tspvqe.quantum import QuantumState


@pytest.fixture(scope="module")
def landscape_ising(landscape_instance):
    return to_ising(encode_efficient(landscape_instance))


class TestAnsatz:
    def test_parameter_count(self):
        # per layer: 2n rotations + entanglers; plus a final rotation layer
        assert AnsatzConfig(n=9, layers=2).parameter_count == 2 * 26 + 18
        assert AnsatzConfig(n=4, layers=1, entangler="ring_rzz").parameter_count == 20

    def test_identity_at_zero(self):
        rng = np.random.default_rng(3)
        config = AnsatzConfig(n=5, layers=2)
        params = np.zeros(config.parameter_count)
        for _ in range(100):
            amps = rng.normal(size=32) + 1j * rng.normal(size=32)
            amps /= np.linalg.norm(amps)
            state = QuantumState(amps)
            after = apply_ansatz(config, params, state)
            assert np.linalg.norm(after.amplitudes - amps) < 1e-10

    def test_unitarity(self):
        rng = np.random.default_rng(7)
        config = AnsatzConfig(n=4, layers=3, entangler="ring_rzz")
        params = rng.uniform(-np.pi, np.pi, config.parameter_count)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        after = apply_ansatz(config, params, QuantumState(amps))
        assert abs(np.linalg.norm(after.amplitudes) - 1.0) < 1e-10


class TestOptimize:
    def test_quadratic_bowl(self):
        result = optimize(lambda x: (x[0] - 1.0) ** 2, [0.0],
                          OptimizerConfig(max_evals=500), seed=0)
        assert abs(result.best_params[0] - 1.0) < 1e-3

    def test_rosenbrock(self):
        def rosen(x):
            return (1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2

        result = optimize(rosen, [-1.0, 1.0],
                          OptimizerConfig(max_evals=2000, rho_end=1e-10), seed=0)
        assert result.best_value < 1e-2

    def test_flat_objective(self):
        result = optimize(lambda x: 5.0, [0.0, 0.0],
                          OptimizerConfig(max_evals=60), seed=1)
        assert set(result.history) == {5.0}

    def test_history_is_best_so_far(self):
        result = optimize(lambda x: float(np.sum(x ** 2)), [2.0, -3.0],
                          OptimizerConfig(max_evals=300), seed=2)
        history = np.asarray(result.history)
        assert history[0] == 13.0
        assert np.all(np.diff(history) <= 0)
        assert history[-1] == result.best_value

    def test_rotation_descent_exact_on_separable_sinusoids(self):
        def trig(x):
            return float(2.0 + np.cos(x[0] - 0.3) + 0.5 * np.sin(x[1] + 1.0))

        result = optimize(trig, np.zeros(2),
                          OptimizerConfig(method="rotation_descent", max_evals=300),
                          seed=0)
        assert result.best_value == pytest.approx(0.5, abs=1e-9)

    def test_rotation_descent_reaches_coordinate_stationarity(self):
        # with a cross term the method is a local optimizer: the result must
        # at least be minimal along every single coordinate
        def trig(x):
            return float(2.0 + np.cos(x[0] - 0.3) + 0.5 * np.sin(x[1] + 1.0)
                         + 0.2 * np.cos(x[0] + x[1]))

        result = optimize(trig, np.zeros(2),
                          OptimizerConfig(method="rotation_descent", max_evals=300),
                          seed=0)
        for k in range(2):
            for offset in (0.3, np.pi / 2, np.pi, -0.7):
                probe = np.array(result.best_params)
                probe[k] += offset
                assert trig(probe) >= result.best_value - 1e-9

    def test_respects_eval_cap(self):
        calls = []

        def f(x):
            calls.append(1)
            return float(np.sum(x ** 2))

        optimize(f, np.zeros(8), OptimizerConfig(max_evals=100), seed=0)
        assert len(calls) <= 100

    @pytest.mark.parametrize("method", ["rotation_descent", "nelder_mead"])
    @pytest.mark.parametrize("name", ["rho_start", "rho_end"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_config_refuses_non_positive_rho(self, method, name, value):
        with pytest.raises(ValidationError, match=f"{name} must be finite and positive"):
            OptimizerConfig(method=method, **{name: value})

    def test_config_refuses_rotation_probe_of_pi_or_more(self):
        for rho_start in (1.0, 1.5):
            with pytest.raises(ValidationError, match=r"needs rho_start in \(0, 1\)"):
                OptimizerConfig(method="rotation_descent", rho_start=rho_start)
        OptimizerConfig(method="nelder_mead", rho_start=1.5)  # a wide simplex is fine


class TestRunVqe:
    def test_trace_starts_at_initial_energy(self, landscape_ising):
        trace = run_vqe(landscape_ising, ZerosInit(), seed=0,
                        optimizer=OptimizerConfig(method="rotation_descent",
                                                  max_evals=50))
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

    def test_zeros_run_converges_with_documented_seed(self, landscape_ising):
        energy, _ = ground_states(landscape_ising)
        trace = run_vqe(landscape_ising, ZerosInit(), seed=2,
                        ground_energy=float(energy))
        assert trace.converged
        assert trace.n_evaluations <= 2000

    def test_final_energy_bounded_by_ground(self, landscape_ising):
        energies = landscape_ising.energy_float_vector()
        for seed in range(3):
            trace = run_vqe(landscape_ising, RandomInit(seed=seed + 50), seed=seed,
                            optimizer=OptimizerConfig(method="rotation_descent",
                                                      max_evals=400))
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
        from tspvqe.quantum import expectation

        init = RandomInit(seed=123)
        state, _ = init.build(9)
        trace = run_vqe(landscape_ising, init, seed=0,
                        optimizer=OptimizerConfig(method="rotation_descent",
                                                  max_evals=30))
        assert trace.energies[0] == pytest.approx(
            expectation(landscape_ising, state), rel=1e-12
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
        trace = run_vqe(flat, ZerosInit(), seed=0,
                        optimizer=OptimizerConfig(method="rotation_descent",
                                                  max_evals=200))
        assert set(trace.energies) == {7.0}

    def test_nelder_mead_backend_also_runs(self, landscape_ising):
        trace = run_vqe(landscape_ising, ZerosInit(), seed=0,
                        optimizer=OptimizerConfig(method="nelder_mead", max_evals=300))
        assert trace.energies[0] == pytest.approx(66.0, abs=1e-12)
        assert trace.final_energy <= 66.0


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

    optimizer = OptimizerConfig(method="rotation_descent", max_evals=25)
    starts = [(RandomInit(seed=5), 3), (RandomInit(seed=8), 4)]
    monkeypatch.setattr(kernels, "apply_ansatz_amplitudes", recording)
    batch = run_lockstep(ising, starts, optimizer=optimizer)
    monkeypatch.setattr(kernels, "apply_ansatz_amplitudes", allocating)
    alone = [run_vqe(ising, init, seed=seed, optimizer=optimizer) for init, seed in starts]
    assert len(lent) > sum(t.n_evaluations for t in batch)  # prefixes were carried too
    assert all(pair is not None for pair in lent)
    assert len({id(b) for pair in lent for b in pair}) == 3
    assert [t.to_dict() for t in batch] == [t.to_dict() for t in alone]


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
        per_layer = 2 * n + config.entangler_count
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
    _, product_angles = init.build(config.n)
    for seed in (0, 1, 12345):
        points = vqe._restart_points(config, product_angles, seed)
        expected = _restart_points_per_qubit(config, product_angles, seed)
        assert len(points) == len(expected) == (0 if layers < 2 else 16 + (
            product_angles is not None and bool(np.any(product_angles))))
        for got, want in zip(points, expected):
            assert got.tobytes() == want.tobytes()
