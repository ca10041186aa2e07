from fractions import Fraction

import numpy as np
import pytest

import reference
from reference import spread, support
from tspvqe import PseudoBooleanPolynomial
from tspvqe.kernels import (
    CallRefused,
    ansatz_rotations,
    ansatz_stages,
    apply_ansatz_amplitudes,
    basis_indices,
    enumerate_spin_energies,
    stages_run,
)


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


def _dense(n, lin_idx, lin_val, qi, qj, qval):
    """The fields ``h`` and the symmetric couplings ``J`` of a sparse form."""
    h = np.zeros(n, dtype=np.int64)
    h[lin_idx] = lin_val
    J = np.zeros((n, n), dtype=np.int64)
    J[qi, qj] = J[qj, qi] = qval
    return h, J


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
            out = enumerate_spin_energies(n, const, *_dense(n, *form[1:]))
            assert out.dtype == np.int64 and len(out) == 1 << n
            for z in range(1 << n):
                assert out[z] == _reference_spin_energy(z, n, *form), (n, z)


def _dense_form(rng, n, bound=50):
    """Random int64 fields and symmetric couplings, zero diagonal, each
    entry below ``bound`` in size."""
    h = rng.integers(-bound, bound, n)
    J = np.triu(rng.integers(-bound, bound, (n, n)), 1)
    return h, J + J.T


def test_spin_energies_bit_equal_to_the_pairwise_recurrence():
    """The low-spin table path gives the bits of the one-call-per-pair
    recurrence, on every side of the table's 8 spins."""
    rng = np.random.default_rng(2)
    for n in range(21):
        h, J = _dense_form(rng, n)
        const = int(rng.integers(-100, 100))
        out = enumerate_spin_energies(n, const, h, J)
        assert out.dtype == np.int64
        assert np.array_equal(out, reference.spin_energies(n, const, h, J)), n


def test_spin_rows_bit_equal_to_the_pairwise_recurrence():
    rng = np.random.default_rng(3)
    n = 12
    h, J = _dense_form(rng, n)
    for m in range(1, 11):
        spins = np.array([rng.choice(n, m, replace=False) for _ in range(9)])
        out = enumerate_spin_energies(n, 7, h, J, spins=spins)
        assert out.shape == (9, 1 << m)
        assert np.array_equal(out, reference.spin_energies(n, 7, h, J, spins=spins)), m


def _exact_energies(const, h, J, spins):
    """Python-int energies of the states of ``spins``, a (states, n) array of
    +-1, one per row."""
    s = spins.astype(object)
    return const + s @ h.astype(object) + ((s @ np.triu(J, 1).astype(object)) * s).sum(axis=1)


@pytest.mark.parametrize("n", [1, 2, 8, 9, 12])
@pytest.mark.parametrize("sign", [1, -1])
def test_spin_energies_exact_at_the_2_62_bound(n, sign):
    """|const| + sum |h| + sum_{j<k} |J| = 2^62 - 1, with the signs set so
    that one state reaches sign * (2^62 - 1): every energy is the exact
    Python-int one, on the full vector and on rows of spins."""
    rng = np.random.default_rng(n)
    target = rng.choice([-1, 1], n)  # the state at the extreme
    h, J = _dense_form(rng, n, 1 << 55)
    h, J = np.abs(h) * target, np.abs(J) * np.outer(target, target)
    const = (1 << 62) - 1 - int(np.abs(h).sum()) - int(np.abs(np.triu(J, 1)).sum())
    assert const > 0
    h, J, const = sign * h, sign * J, sign * const
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    exact = _exact_energies(const, h, J, 1 - 2 * bits)
    out = enumerate_spin_energies(n, const, h, J)
    assert np.array_equal(out, reference.spin_energies(n, const, h, J))
    assert out.tolist() == exact.tolist()
    assert sign * max(sign * exact) == sign * ((1 << 62) - 1)
    spins = np.array([rng.permutation(n)[:min(n, 5)] for _ in range(4)])
    rows = enumerate_spin_energies(n, const, h, J, spins=spins)
    assert np.array_equal(rows, reference.spin_energies(n, const, h, J, spins=spins))
    for row, chosen in zip(rows, spins):
        states = np.ones((rows.shape[1], n), dtype=np.int64)
        states[:, chosen] = 1 - 2 * bits[:rows.shape[1], :len(chosen)]
        assert row.tolist() == _exact_energies(const, h, J, states).tolist()


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
    at n = 2 it repeats the edge (0, 1).  With random parameters every row
    runs every stage, so an (R, 2^n) stack must give each row bit for bit as
    a call on that row alone, and two calls that split the stages at any
    boundary bit for bit as the full call.
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
                        resumed = apply_ansatz_amplitudes(prefix, n, layers, ring, theta,
                                                          start=stage)
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


def test_ansatz_rejects_a_wrong_parameter_count():
    # n = 2, one linear layer: 9 parameters; a 10th would take the place of
    # the zero angle of the real/imaginary bit
    psi = np.ones(4, dtype=complex) / 2
    for params in (np.full(10, 0.3), np.full(8, 0.3), np.zeros(0), np.float64(0.3),
                   np.full((1, 10), 0.3)):
        states = psi if params.ndim < 2 else psi[None]
        with pytest.raises(ValueError, match="9 parameters"):
            apply_ansatz_amplitudes(states, 2, 1, False, params)


def _zero_stages(params, stages, zeroed, sign=1.0):
    """``params`` with every parameter of the stages in ``zeroed`` set to ``sign * 0.0``."""
    return np.where(np.isin(stages, list(zeroed)), sign * 0.0, params)


def test_zero_stages_are_skipped_exactly():
    """Stages whose parameters are all zero are skipped, and the result is
    still the circuit's: every split of the stages matches the gate-by-gate
    reference, with the parameters of the stages outside the split zeroed.

    In a 2-row stack whose other row moves every stage, those stages run
    for both rows; the row's amplitudes then equal (under ==) those of the
    row alone, and its probabilities are the same bits.
    """
    rng = np.random.default_rng(5)
    for n in range(1, 10):
        for layers in (1, 2, 3):
            for ring in (False, True):
                count, stages = ansatz_stages(n, layers, ring)
                psi0 = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
                psi0 /= np.linalg.norm(psi0)
                random = rng.uniform(-np.pi, np.pi, len(stages))
                subsets = [(), range(count)] + [
                    np.flatnonzero(rng.random(count) < 0.5) for _ in range(2)]
                for zeroed in subsets:
                    sign = rng.choice([-1.0, 1.0])
                    params = _zero_stages(random, stages, zeroed, sign)
                    key = (n, layers, ring, tuple(zeroed))
                    whole = apply_ansatz_amplitudes(psi0, n, layers, ring, params)
                    reference = _ansatz_gate_by_gate(psi0, n, layers, ring, params)
                    assert np.max(np.abs(whole - reference)) < 1e-12, key
                    for split in range(1, count):
                        prefix = apply_ansatz_amplitudes(psi0, n, layers, ring, params, stop=split)
                        resumed = apply_ansatz_amplitudes(prefix, n, layers, ring, params,
                                                          start=split)
                        later = _zero_stages(params, stages, range(split, count))
                        head = _ansatz_gate_by_gate(psi0, n, layers, ring, later)
                        assert np.max(np.abs(prefix - head)) < 1e-12, (key, split)
                        assert np.array_equal(resumed.view(np.int64), whole.view(np.int64))

                    stack = np.stack([psi0, rng.normal(size=1 << n) + 0j])
                    rows = apply_ansatz_amplitudes(stack, n, layers, ring,
                                                   np.stack([params, random]))
                    assert np.array_equal(rows[0], whole), key
                    other = apply_ansatz_amplitudes(stack[1], n, layers, ring, random)
                    assert np.array_equal(rows[1].view(np.int64), other.view(np.int64)), key
                    assert np.array_equal((np.abs(rows[0]) ** 2).view(np.int64),
                                          (np.abs(whole) ** 2).view(np.int64)), key


def test_negative_zero_counts_as_zero():
    rng = np.random.default_rng(8)
    n, layers, ring = 5, 1, True
    count, stages = ansatz_stages(n, layers, ring)
    assert count % 2 == 0  # all stages run would leave the result in pair[1]
    psi0 = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    pair = (np.full_like(psi0, np.nan), np.full_like(psi0, np.nan))
    out = apply_ansatz_amplitudes(psi0, n, layers, ring, np.full(len(stages), -0.0),
                                  buffers=pair)
    assert out is pair[0]
    assert np.array_equal(out.view(np.int64), psi0.view(np.int64))
    params = _zero_stages(rng.uniform(-np.pi, np.pi, len(stages)), stages, range(1, count), -1.0)
    out = apply_ansatz_amplitudes(psi0, n, layers, ring, params, buffers=pair)
    assert out is pair[0]  # stage 0 alone ran


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


def test_rotations_follow_the_parameter_layout():
    """Layer l holds its Ry parameters at l * per_layer + q and its Rz at
    l * per_layer + n + q, the closing layer too; the arrays are read-only."""
    for n, layers, ring in ((1, 1, True), (5, 2, False), (9, 3, True), (16, 2, False)):
        ry, rz = ansatz_rotations(n, layers, ring)
        per_layer = 2 * n + (n if ring else n - 1)
        base = np.arange(layers + 1)[:, None] * per_layer + np.arange(n)
        assert ry.tolist() == base.tolist() and rz.tolist() == (base + n).tolist()
        assert rz.max() < ansatz_stages(n, layers, ring)[1].size
        assert not ry.flags.writeable and not rz.flags.writeable


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


def test_the_result_is_in_the_buffer_the_last_run_stage_wrote():
    """With r of the stages from start to stop run, the result is buffer
    ``(r - 1) % 2`` of the pair; a call that runs no stage copies ``psi0``
    into buffer 0, and writes neither ``psi0`` nor buffer 1.  Without a
    pair, such a call returns a new array, never ``psi0``."""
    rng = np.random.default_rng(13)
    n, layers, ring = 6, 2, False
    count, stages = ansatz_stages(n, layers, ring)
    psi0 = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    before = psi0.copy()
    for zeroed in ((), range(count), (0, 2, 3), np.flatnonzero(rng.random(count) < 0.5)):
        params = _zero_stages(rng.uniform(-np.pi, np.pi, len(stages)), stages, zeroed)
        for start in range(count):
            for stop in range(start + 1, count + 1):
                ran = sum(stage not in zeroed for stage in range(start, stop))
                pair = (np.full_like(psi0, np.nan), np.full_like(psi0, np.nan))
                out = apply_ansatz_amplitudes(psi0, n, layers, ring, params, start, stop,
                                              buffers=pair)
                assert out is pair[max(ran - 1, 0) % 2], (zeroed, start, stop)
                fresh = apply_ansatz_amplitudes(psi0, n, layers, ring, params, start, stop)
                assert fresh is not psi0
                assert np.array_equal(out.view(np.int64), fresh.view(np.int64))
                if ran == 0:
                    assert np.array_equal(out.view(np.int64), psi0.view(np.int64))
                    assert np.isnan(pair[1]).all()
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


def _stage_groups(n, layers, ring):
    """Each stage's index within its layer: its Ry group, or the group count
    for the layer's phase stage; and that group count."""
    count, _ = ansatz_stages(n, layers, ring)
    width = count // (layers + 1)
    return np.arange(count) % width, width - 1


def test_stages_run_lists_the_moved_stages():
    rng = np.random.default_rng(17)
    for n, layers, ring in ((1, 1, True), (4, 2, False), (9, 3, True)):
        count, stages = ansatz_stages(n, layers, ring)
        zeroed = np.flatnonzero(rng.random(count) < 0.5)
        params = _zero_stages(rng.uniform(-np.pi, np.pi, len(stages)), stages, zeroed, -1.0)
        moved = [s for s in range(count) if s not in zeroed]
        assert stages_run(n, layers, ring, params) == moved
        assert stages_run(n, layers, ring, np.zeros(len(stages))) == []
        for start in range(count):
            for stop in range(start + 1, count + 1):
                expected = [s for s in moved if start <= s < stop]
                assert stages_run(n, layers, ring, params, start, stop) == expected
                # in a stack, a stage runs when one row moves it
                stack = np.stack([params, np.zeros(len(stages))])
                assert stages_run(n, layers, ring, stack, start, stop) == expected
        for bad in (np.zeros(len(stages) + 1), np.zeros((2, len(stages) - 1))):
            with pytest.raises(ValueError, match="parameters"):
                stages_run(n, layers, ring, bad)
        for start, stop in ((-1, None), (count, None), (1, 1), (0, count + 1)):
            with pytest.raises(ValueError, match="range"):
                stages_run(n, layers, ring, params, start, stop)


def _check_stack(n, layers, ring, psi0, thetas, key):
    """A stack's call against each row alone, every split and the reference,
    and its result in the buffer the rule ``(r - 1) % 2`` names."""
    count, _ = ansatz_stages(n, layers, ring)
    whole = apply_ansatz_amplitudes(psi0, n, layers, ring, thetas)
    for r, (state, theta) in enumerate(zip(psi0, thetas)):
        alone = apply_ansatz_amplitudes(state, n, layers, ring, theta)
        assert np.array_equal(whole[r], alone), (key, r)
        assert np.array_equal((np.abs(whole[r]) ** 2).view(np.int64),
                              (np.abs(alone) ** 2).view(np.int64)), (key, r)
        reference = _ansatz_gate_by_gate(state, n, layers, ring, theta)
        assert np.max(np.abs(whole[r] - reference)) < 1e-12, (key, r)
    pair = (np.full_like(psi0, np.nan), np.full_like(psi0, np.nan))
    for split in range(1, count):
        prefix = apply_ansatz_amplitudes(psi0, n, layers, ring, thetas, stop=split)
        resumed = apply_ansatz_amplitudes(prefix, n, layers, ring, thetas, start=split,
                                          buffers=pair)
        ran = len(stages_run(n, layers, ring, thetas, split))
        assert resumed is pair[max(ran - 1, 0) % 2], (key, split)
        assert np.array_equal(resumed.view(np.int64), whole.view(np.int64)), (key, split)


def test_tables_are_built_for_the_stages_that_run():
    """Only the tables of the stages that run are built: a Ry group's for
    every layer when one of its stages runs, the phase tables of every layer
    when a phase stage runs.  Stacks whose rows all leave the same Ry group,
    every Ry group or every phase stage at zero, and stacks whose rows move
    disjoint groups, give each row the bits of the row alone (its amplitudes
    under ==, its |a|^2 bit for bit), the whole call's bits at every split,
    and the gate-by-gate reference's amplitudes to 1e-12."""
    rng = np.random.default_rng(19)
    for n in range(1, 10):
        for layers in (1, 2, 3):
            for ring in (False, True):
                count, stages = ansatz_stages(n, layers, ring)
                group_of, groups = _stage_groups(n, layers, ring)
                rows = 3
                psi0 = rng.normal(size=(rows, 1 << n)) + 1j * rng.normal(size=(rows, 1 << n))
                psi0 /= np.linalg.norm(psi0, axis=1, keepdims=True)
                random = rng.uniform(-np.pi, np.pi, (rows, len(stages)))
                still = [group_of == g for g in range(groups + 1)] + [group_of < groups]
                for zeroed in still:
                    thetas = np.stack([
                        _zero_stages(row, stages, np.flatnonzero(zeroed), rng.choice([-1.0, 1.0]))
                        for row in random])
                    assert stages_run(n, layers, ring, thetas) == np.flatnonzero(~zeroed).tolist()
                    _check_stack(n, layers, ring, psi0, thetas, (n, layers, ring, zeroed))
                # row r moves the groups g with g % rows == r, in every layer
                thetas = np.stack([
                    _zero_stages(row, stages, np.flatnonzero(group_of % rows != r))
                    for r, row in enumerate(random)])
                assert stages_run(n, layers, ring, thetas) == list(range(count))
                _check_stack(n, layers, ring, psi0, thetas, (n, layers, ring, "disjoint"))


def _turned(n, layers, ring, params, start, stop):
    """The qubits that a Ry gate of the stages from ``start`` to ``stop - 1``
    turns by a nonzero angle, read off the parameter layout."""
    count, stages = ansatz_stages(n, layers, ring)
    per_layer = 2 * n + (n if ring else n - 1)
    return {q for layer in range(layers + 1) for q in range(n)
            if params[layer * per_layer + q] != 0
            and start <= stages[layer * per_layer + q] < stop}


def test_basis_indices_and_support():
    assert basis_indices(()).tolist() == [0]
    assert basis_indices((1, 4)).tolist() == [0, 2, 16, 18]
    assert basis_indices(tuple(range(5))).tolist() == list(range(32))
    state = np.zeros(1 << 6, dtype=complex)
    assert support(state) == ()
    state[0] = 1
    assert support(state) == ()
    state[0b100100] = -0.5j
    assert support(state) == (2, 5)
    state[0b000011] = 1e-300
    assert support(state) == (0, 1, 2, 5)


def test_held_qubits_match_the_dense_kernel():
    """A state held on part of its qubits, every other one |0>, against the
    dense kernel on the full state: the amplitudes agree to 1e-12, the dense
    state is exactly zero off the output's held set, and that set is the
    input's plus the qubits turned in the stages that run.  Held on every
    qubit a call has the bits of a call without ``held``, and every
    start/stop split of a held call gives the whole call's bits.  Half the
    parameters are exact zeros, so Ry stages run that leave some of their
    qubits at |0>, and whole stages are skipped."""
    rng = np.random.default_rng(29)
    for n in range(1, 10):
        for layers in (1, 2, 3):
            for ring in (False, True):
                count, stages = ansatz_stages(n, layers, ring)
                width = int(rng.integers(1, n)) if n > 1 else 0
                partial = tuple(sorted(rng.choice(n, width, replace=False).tolist()))
                for held in ((), partial, tuple(range(n))):
                    key = (n, layers, ring, held)
                    params = rng.uniform(-np.pi, np.pi, len(stages))
                    params[rng.random(len(stages)) < 0.5] = rng.choice([-0.0, 0.0])
                    psi0 = rng.normal(size=1 << len(held)) + 1j * rng.normal(size=1 << len(held))
                    psi0 /= np.linalg.norm(psi0)
                    full = spread(psi0, held, n)
                    assert support(full) == held
                    dense = apply_ansatz_amplitudes(full, n, layers, ring, params)
                    out, after = apply_ansatz_amplitudes(psi0, n, layers, ring, params,
                                                         held=held)
                    assert after == tuple(sorted(set(held) | _turned(n, layers, ring, params,
                                                                      0, count))), key
                    assert out.shape == (1 << len(after),), key
                    assert np.max(np.abs(spread(out, after, n) - dense)) < 1e-12, key
                    assert not np.any(np.delete(dense, basis_indices(after))), key
                    if len(held) == n:
                        assert np.array_equal(out.view(np.int64), dense.view(np.int64)), key
                    pairs = ([(a, b) for a in range(count) for b in range(a + 1, count + 1)]
                             if held == partial else [(s, count) for s in range(count)])
                    for start, stop in pairs:
                        head, mid = psi0, held
                        if start:
                            head, mid = apply_ansatz_amplitudes(psi0, n, layers, ring, params, 0,
                                                                start, held=held)
                        assert head.shape == (1 << len(mid),)
                        part, late = apply_ansatz_amplitudes(head, n, layers, ring, params, start,
                                                             stop, held=mid)
                        assert late == tuple(sorted(set(mid) | _turned(n, layers, ring, params,
                                                                        start, stop)))
                        rest = part
                        if stop < count:
                            rest, _ = apply_ansatz_amplitudes(part, n, layers, ring, params, stop,
                                                              held=late)
                        assert np.array_equal(rest.view(np.int64), out.view(np.int64)), (
                            key, start, stop)


def test_held_calls_write_the_leading_entries_of_their_buffers():
    """Buffers longer than the state: the stages write their leading entries,
    and the result is a view of the first entries of the one the last stage
    wrote, with the bits of a call without buffers."""
    rng = np.random.default_rng(31)
    n, layers, ring = 7, 2, True
    count, stages = ansatz_stages(n, layers, ring)
    params = np.zeros(len(stages))
    params[[3, n + 1, 2 * n + 2 + (2 * n + n) + 5]] = rng.uniform(-np.pi, np.pi, 3)
    held = (1, 2)
    psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    for start in range(count):
        for stop in range(start + 1, count + 1):
            mid = apply_ansatz_amplitudes(psi0, n, layers, ring, params, 0, start,
                                          held=held)[1] if start else held
            state = spread(psi0, held, n)[basis_indices(mid)]
            pair = (np.full(1 << n, np.nan, complex), np.full(1 << n, np.nan, complex))
            lent, after = apply_ansatz_amplitudes(state, n, layers, ring, params, start, stop,
                                                  buffers=pair, held=mid)
            fresh, _ = apply_ansatz_amplitudes(state, n, layers, ring, params, start, stop,
                                               held=mid)
            ran = len(stages_run(n, layers, ring, params, start, stop))
            written = pair[max(ran - 1, 0) % 2]
            assert lent.size == fresh.size == 1 << len(after)
            assert np.shares_memory(lent, written) and lent.ctypes.data == written.ctypes.data
            assert np.array_equal(lent.view(np.int64), fresh.view(np.int64)), (start, stop)
            assert np.isnan(written[lent.size:]).all()


def test_held_stacks_give_each_row_the_bits_of_its_call_alone():
    """A probe pair (two vectors that differ in one parameter, by +- a
    probe) stacked on two copies of one held state: each row's |a|^2 has
    the bits of its call alone, into fresh arrays or lent buffers, and the
    stack ends on the held set that each row's call returns.  Half the
    parameters are exact zeros, so a row can sit out a stage the other
    runs.  A probe equal to the parameter puts one row's angle at exactly
    0.0; where that row would then hold fewer qubits after some stage, the
    stack is refused."""
    rng = np.random.default_rng(37)
    stacked = refused = 0
    for n in range(2, 10):
        for layers in (1, 2):
            for ring in (False, True):
                count, stages = ansatz_stages(n, layers, ring)
                held = tuple(sorted(rng.choice(n, int(rng.integers(0, n)), replace=False)
                                    .tolist()))
                params = rng.uniform(-np.pi, np.pi, len(stages))
                params[rng.random(len(stages)) < 0.5] = 0.0
                psi0 = rng.normal(size=1 << len(held)) + 1j * rng.normal(size=1 << len(held))
                psi0 /= np.linalg.norm(psi0)
                for start in sorted({0, int(rng.integers(0, count))}):
                    head, mid = (apply_ansatz_amplitudes(psi0, n, layers, ring, params, 0, start,
                                                         held=held) if start else (psi0, held))
                    for k in rng.choice(len(stages), 6).tolist():
                        pair = np.stack([params, params])
                        probe = params[k] if rng.random() < 0.5 else 0.5
                        pair[0, k] += probe
                        pair[1, k] -= probe
                        both = np.stack([head, head])
                        lone = [apply_ansatz_amplitudes(head, n, layers, ring, x, start,
                                                        held=mid) for x in pair]
                        try:
                            out, after = apply_ansatz_amplitudes(both, n, layers, ring, pair,
                                                                 start, held=mid)
                        except CallRefused:
                            # one row turns a qubit the other leaves at |0> for a while
                            assert not all(_same_held_sets(n, layers, ring, pair, mid, start))
                            refused += 1
                            continue
                        assert all(_same_held_sets(n, layers, ring, pair, mid, start))
                        size = 1 << len(after)
                        lent = (np.full((2, size + 3), np.nan, complex),
                                np.full((2, size + 3), np.nan, complex))
                        into, _ = apply_ansatz_amplitudes(both, n, layers, ring, pair, start,
                                                          buffers=lent, held=mid)
                        assert np.array_equal(into.view(np.int64), out.view(np.int64))
                        assert out.shape == (2, size)
                        for row, (alone, alone_after) in zip(out, lone):
                            assert alone_after == after, (n, layers, ring, start, k)
                            assert np.array_equal((np.abs(row) ** 2).view(np.uint64),
                                                  (np.abs(alone) ** 2).view(np.uint64))
                        stacked += 1
    assert stacked > 100 and refused > 5


def _same_held_sets(n, layers, ring, pair, held, start):
    """Per stage the stack runs, whether the rows of ``pair``, each called
    alone on a state held on ``held`` up to that stage, end on one held set."""
    return [apply_ansatz_amplitudes(np.ones(1 << len(held), complex), n, layers, ring, pair[0],
                                    start, stage + 1, held=held)[1]
            == apply_ansatz_amplitudes(np.ones(1 << len(held), complex), n, layers, ring,
                                       pair[1], start, stage + 1, held=held)[1]
            for stage in stages_run(n, layers, ring, pair, start)]


def test_a_held_stack_is_refused_before_any_work():
    # a pair whose rows would hold different qubits after a stage, or whose
    # result is longer than the buffers lent, is refused, and nothing written
    n, layers, ring = 6, 2, False
    ry, _ = ansatz_rotations(n, layers, ring)
    x = np.zeros(ansatz_stages(n, layers, ring)[1].size)
    x[[ry[0, 1], ry[1, 4], ry[2, 4]]] = 0.25
    apart = x.copy()
    apart[ry[0, 1]] = 0.0  # qubit 1 turned from stage 0 in one row, never in the other
    both = np.ones((2, 2), complex) / np.sqrt(2)
    lent = (np.full((2, 4), np.nan, complex), np.full((2, 4), np.nan, complex))
    with pytest.raises(CallRefused, match="different qubits"):
        apply_ansatz_amplitudes(both, n, layers, ring, np.stack([x, apart]), buffers=lent,
                                held=(2,))
    y = x.copy()
    y[ry[0, 2]] = -0.5  # qubit 2 is held already: the rows hold the same qubits
    with pytest.raises(CallRefused, match="more than the 4"):  # they end on (1, 2, 4)
        apply_ansatz_amplitudes(both, n, layers, ring, np.stack([x, y]), buffers=lent, held=(2,))
    assert np.isnan(lent[0]).all() and np.isnan(lent[1]).all()
    out, held = apply_ansatz_amplitudes(both, n, layers, ring, np.stack([x, y]), held=(2,))
    assert out.shape == (2, 8) and held == (1, 2, 4)
    # held on every qubit, the rows of a stack hold the same qubits
    full = np.ones((2, 1 << n), complex) / 8
    out, held = apply_ansatz_amplitudes(full, n, layers, ring, np.stack([x, apart]),
                                        held=tuple(range(n)))
    assert out.shape == (2, 1 << n) and held == tuple(range(n))


def test_held_arguments_are_checked():
    n, layers, ring = 4, 1, False
    params = np.zeros(ansatz_stages(n, layers, ring)[1].size)
    state = np.ones(4, dtype=complex)
    for held in ((2, 1), (1, 1), (0, 4), (-1, 0)):
        with pytest.raises(ValueError, match="ascending"):
            apply_ansatz_amplitudes(state, n, layers, ring, params, held=held)
    with pytest.raises(ValueError, match="amplitudes"):
        apply_ansatz_amplitudes(np.ones(8, dtype=complex), n, layers, ring, params, held=(0, 1))
    # a held stack has one state per row of parameters
    with pytest.raises(ValueError, match="amplitudes"):
        apply_ansatz_amplitudes(state[None], n, layers, ring, params, held=(0, 1))
    with pytest.raises(ValueError, match="amplitudes"):
        apply_ansatz_amplitudes(state[None], n, layers, ring, np.stack([params] * 2),
                                held=(0, 1))
    with pytest.raises(ValueError):
        # buffers shorter than the result
        apply_ansatz_amplitudes(state, n, layers, ring, np.full(params.size, 0.5),
                                buffers=(np.empty(4, complex), np.empty(4, complex)),
                                held=(0, 1))
