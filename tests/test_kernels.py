from fractions import Fraction

import numpy as np
import pytest

from tspvqe import PseudoBooleanPolynomial
from tspvqe.kernels import ansatz_stages, apply_ansatz_amplitudes, enumerate_spin_energies


def _random_form(rng, n):
    n_lin = rng.integers(0, n + 1)
    lin_idx = rng.choice(n, size=n_lin, replace=False).astype(np.int64)
    lin_val = rng.integers(-50, 50, size=n_lin).astype(np.int64)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    take = rng.random(len(pairs)) < 0.4
    qi = np.array([p[0] for p, t in zip(pairs, take) if t], dtype=np.int64)
    qj = np.array([p[1] for p, t in zip(pairs, take) if t], dtype=np.int64)
    qval = rng.integers(-50, 50, size=len(qi)).astype(np.int64)
    return int(rng.integers(-100, 100)), lin_idx, lin_val, qi, qj, qval


def _reference_bit_energy(z, n, const, lin_idx, lin_val, qi, qj, qval):
    e = const
    for idx, val in zip(lin_idx, lin_val):
        e += val * ((z >> idx) & 1)
    for i, j, val in zip(qi, qj, qval):
        e += val * ((z >> i) & 1) * ((z >> j) & 1)
    return e


def _reference_spin_energy(z, n, const, lin_idx, lin_val, qi, qj, qval):
    e = const
    for idx, val in zip(lin_idx, lin_val):
        e += val * (1 - 2 * ((z >> idx) & 1))
    for i, j, val in zip(qi, qj, qval):
        e += val * (1 - 2 * ((z >> i) & 1)) * (1 - 2 * ((z >> j) & 1))
    return e


def test_bit_energies_against_scalar_reference(bit_energies):
    """The vectorised bit-energy reference of conftest.py, checked itself."""
    rng = np.random.default_rng(0)
    for n in (1, 3, 6):
        const, li, lv, qi, qj, qv = _random_form(rng, n)
        order = tuple((1, t) for t in range(1, n + 1))
        poly = PseudoBooleanPolynomial(
            layout="full",
            node_count=n,
            variable_order=order,
            constant=Fraction(const),
            linear={order[i]: Fraction(int(v)) for i, v in zip(li, lv)},
            quadratic={(order[i], order[j]): Fraction(int(v)) for i, j, v in zip(qi, qj, qv)},
        )
        out, scale = bit_energies(poly)
        assert scale == 1
        for z in range(1 << n):
            assert out[z] == _reference_bit_energy(z, n, const, li, lv, qi, qj, qv)


def test_spin_energies_against_scalar_reference():
    rng = np.random.default_rng(1)
    none = np.array([], dtype=np.int64)
    for n in (1, 3, 6, 10):
        const, li, lv, qi, qj, qv = _random_form(rng, n)
        for form in (
            (const, li, lv, qi, qj, qv),
            (const, none, none, qi, qj, qv),  # no fields
            (const, li, lv, none, none, none),  # no couplings
            (const, none, none, none, none, none),
        ):
            out = enumerate_spin_energies(n, *form)
            assert out.dtype == np.int64 and len(out) == 1 << n
            for z in range(1 << n):
                assert out[z] == _reference_spin_energy(z, n, *form), (n, z)


# reference gates on plain amplitude arrays: bit k of an index is qubit k,
# carried by axis n - 1 - k of the (2,) * n tensor


def _ry(angle):
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(angle):
    return np.array([[np.exp(-1j * angle / 2), 0], [0, np.exp(1j * angle / 2)]], dtype=complex)


def _rzz(angle):
    return np.diag(np.exp(np.array([-1, 1, 1, -1]) * 1j * angle / 2))


def _apply_gate(amps, matrix, qubits):
    """A new array: ``amps`` after the gate ``matrix`` on the distinct ``qubits``."""
    n = int(amps.size).bit_length() - 1
    k = len(qubits)
    axes = [n - 1 - q for q in qubits]
    gate = matrix.reshape((2,) * (2 * k))
    moved = np.tensordot(gate, amps.reshape((2,) * n), axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(moved, list(range(k)), axes).reshape(-1)


def _ansatz_gate_by_gate(psi0, n, layers, ring, params):
    """The layered ansatz built one reference gate at a time."""
    angles = iter(params)

    def rotations(state):
        for gate in (_ry, _rz):
            for q in range(n):
                state = _apply_gate(state, gate(next(angles)), (q,))
        return state

    state = psi0
    for _ in range(layers):
        state = rotations(state)
        for e in range(n if ring else n - 1):
            q1, q2, theta = e, (e + 1) % n, next(angles)
            if q1 == q2:
                # n = 1 ring: Rzz on (0, 0) sees parity 0, a global phase
                state = state * np.exp(-0.5j * theta)
            else:
                state = _apply_gate(state, _rzz(theta), (q1, q2))
    return rotations(state)


def test_reference_ry_at_zero_is_identity():
    rng = np.random.default_rng(11)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    assert np.allclose(_apply_gate(amps, _ry(0.0), (1,)), amps)


def test_reference_qubit_order():
    # Ry(pi) takes qubit 1 of |00> to |1>: bit 1 set, index 2
    zero = np.array([1, 0, 0, 0], dtype=complex)
    assert np.allclose(_apply_gate(zero, _ry(np.pi), (1,)), [0, 0, 1, 0])


def test_reference_gates_leave_their_input():
    amps = np.array([1, 0, 0, 0], dtype=complex)
    for gate, qubits in ((_ry, (0,)), (_rz, (1,)), (_rzz, (0, 1))):
        _apply_gate(amps, gate(0.7), qubits)
        assert np.array_equal(amps, [1, 0, 0, 0]), gate


def test_reference_circuit_preserves_norm():
    rng = np.random.default_rng(23)
    state = np.zeros(1 << 5, dtype=complex)
    state[0] = 1.0
    for _ in range(200):
        angle = float(rng.uniform(0, 2 * np.pi))
        if rng.random() < 0.6:
            gate = (_ry, _rz)[rng.integers(2)]
            state = _apply_gate(state, gate(angle), (int(rng.integers(5)),))
        else:
            q1 = int(rng.integers(5))
            state = _apply_gate(state, _rzz(angle), (q1, int((q1 + 1 + rng.integers(4)) % 5)))
    assert abs(np.linalg.norm(state) - 1.0) < 1e-10


def test_ansatz_paths_agree():
    """The kernel against the gate-by-gate reference, and stacked against single.

    Covers the degenerate rings: at n = 1 the entangler acts on (0, 0) and
    at n = 2 it repeats the edge (0, 1).  An (R, 2^n) stack must give each
    row bit for bit as a call on that row alone, and two calls that split the
    stages at any boundary bit for bit as the full call.
    """
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 5, 9):
        for layers in (1, 2, 3):
            for ring in (False, True):
                n_ent = n if ring else n - 1
                n_par = layers * (2 * n + n_ent) + 2 * n
                params = rng.uniform(-np.pi, np.pi, n_par)
                psi0 = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
                psi0 /= np.linalg.norm(psi0)
                before = psi0.copy()
                active = apply_ansatz_amplitudes(psi0, n, layers, ring, params)
                reference = _ansatz_gate_by_gate(psi0, n, layers, ring, params)
                assert np.max(np.abs(active - reference)) < 1e-12, (n, layers, ring)
                assert np.array_equal(psi0, before)

                count, stages = ansatz_stages(n, layers, ring)
                assert len(stages) == n_par
                for stage in range(1, count):
                    prefix = apply_ansatz_amplitudes(psi0, n, layers, ring, params, stop=stage)
                    assert np.array_equal(psi0, before)
                    # parameters of the stages from `stage` on may differ from the first call's
                    other = np.where(stages >= stage, rng.uniform(-np.pi, np.pi, n_par), params)
                    prefix_before = prefix.copy()
                    for theta in (params, other):
                        resumed = apply_ansatz_amplitudes(prefix, n, layers, ring, theta, start=stage)
                        whole = apply_ansatz_amplitudes(psi0, n, layers, ring, theta)
                        assert np.array_equal(
                            resumed.view(np.int64), whole.view(np.int64)
                        ), (n, layers, ring, stage)
                    assert np.array_equal(prefix, prefix_before)

                for rows in (1, 2, 5, 33):
                    stack = rng.normal(size=(rows, 1 << n)) + 1j * rng.normal(size=(rows, 1 << n))
                    thetas = rng.uniform(-np.pi, np.pi, (rows, n_par))
                    before = stack.copy()
                    stacked = apply_ansatz_amplitudes(stack, n, layers, ring, thetas)
                    assert stacked.shape == stack.shape
                    assert np.array_equal(stack, before)
                    for r in range(rows):
                        single = apply_ansatz_amplitudes(stack[r], n, layers, ring, thetas[r])
                        assert np.array_equal(
                            stacked[r].view(np.int64), single.view(np.int64)
                        ), (n, layers, ring, rows, r)


def test_ansatz_rejects_mismatched_stack():
    states = np.ones((3, 4), dtype=complex)
    with pytest.raises(ValueError):
        apply_ansatz_amplitudes(states, 2, 1, False, np.zeros(9))


def test_stages_follow_the_gate_order():
    """Stages run layer by layer; within a layer the Ry groups come first.

    Every parameter of a stage belongs to one layer, and the Ry parameters
    of a layer sit in earlier stages than its Rz and Rzz parameters, which
    share the layer's one phase stage.
    """
    for n, layers, ring in ((1, 1, True), (5, 2, False), (9, 3, True), (16, 2, False)):
        count, stages = ansatz_stages(n, layers, ring)
        n_ent = n if ring else n - 1
        per_layer = 2 * n + n_ent
        assert stages.flags.writeable is False
        layer_of = np.minimum(np.arange(len(stages)) // per_layer, layers)
        per_stage_layer = {(s, l) for s, l in zip(stages.tolist(), layer_of.tolist())}
        assert len(per_stage_layer) == len(set(stages.tolist())) == count
        for layer in range(layers + 1):
            base = layer * per_layer
            ry = stages[base:base + n]
            phase = stages[base + n:(base + per_layer if layer < layers else base + 2 * n)]
            assert ry.max() < phase.min() and len(set(phase.tolist())) == 1
    assert ansatz_stages(16, 2, False)[0] == 15


def test_stage_arguments_are_checked():
    psi = np.ones(4, dtype=complex) / 2
    count, _ = ansatz_stages(2, 1, False)
    for start, stop in ((-1, None), (count, None), (0, 0), (2, 2), (3, 2), (0, count + 1)):
        with pytest.raises(ValueError):
            apply_ansatz_amplitudes(psi, 2, 1, False, np.zeros(9), start=start, stop=stop)


def test_buffers_give_the_bits_of_fresh_arrays():
    """Every start/stop split, run through a lent pair, matches the call
    without one bit for bit; the result is one of the pair, and neither
    psi0 nor what the buffers held before is read into it."""
    rng = np.random.default_rng(11)
    for n, layers, ring in ((5, 2, True), (9, 1, False), (14, 2, False)):
        count, stages = ansatz_stages(n, layers, ring)
        params = rng.uniform(-np.pi, np.pi, len(stages))
        psi0 = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        before = psi0.copy()
        pair = (np.full_like(psi0, np.nan), np.full_like(psi0, np.nan))
        for start in range(count):
            for stop in range(start + 1, count + 1):
                fresh = apply_ansatz_amplitudes(psi0, n, layers, ring, params, start, stop)
                lent = apply_ansatz_amplitudes(psi0, n, layers, ring, params, start, stop,
                                               buffers=pair)
                assert lent is pair[(stop - start - 1) % 2], (n, start, stop)
                assert np.array_equal(lent.view(np.int64), fresh.view(np.int64)), (n, start, stop)
                assert np.array_equal(psi0.view(np.int64), before.view(np.int64))


def test_buffers_are_checked():
    n = 3
    psi = np.ones(1 << n, dtype=complex)
    params = np.zeros(ansatz_stages(n, 1, False)[1].size)
    wide = np.empty(2 << n, dtype=complex)
    ok = np.empty_like(psi)
    bad = [
        (psi, ok),  # aliases psi0
        (wide[:1 << n], wide[4:4 + (1 << n)]),  # the two overlap
        (ok, ok),  # the same array twice
        (np.empty(1 << n, dtype=complex), np.empty((1, 1 << n), dtype=complex)),  # shape
        (wide[::2], np.empty_like(psi)),  # not contiguous
        (np.empty(1 << n, dtype=np.complex64), np.empty_like(psi)),  # dtype
        (np.empty_like(psi),),  # not a pair
    ]
    for buffers in bad:
        with pytest.raises(ValueError):
            apply_ansatz_amplitudes(psi, n, 1, False, params, buffers=buffers)
