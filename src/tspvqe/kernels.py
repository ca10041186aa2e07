"""Hot numeric kernels: exhaustive energy enumeration and ansatz application.

Both are numpy kernels, the same on every install.  Energy enumeration works
in scaled int64 arithmetic (the caller supplies coefficients multiplied by a
common denominator), so results are exact; it gives all 2^n energies, or
those of the 2^m states of each row of a few spins.  The ansatz kernel
applies each layer as a few grouped Ry matmuls and one fused phase vector
for its Rz and Rzz gates.  It takes one state or a stack of them: an ``(R, 2^n)`` stack with
``(R, P)`` parameters applies row r's parameters to row r's state in one call.
A call can also run only some stages of the circuit: calls that split the
stages between them give the bits of one call that runs them all.  A call
allocates two state-sized arrays for its stages to write in turn, unless the
caller lends it a pair to reuse.

A state, or a stack of them, can also be passed on its *held* qubits alone,
as 2^h amplitudes with every other qubit exactly |0>.  Each stage holds the
qubits of the one before and those its Ry gates turn by a nonzero angle, so
the held set after a stage depends only on the input's and on the
parameters of the stages run up to it, and split calls still give the bits
of the whole call.  Such a call returns the held set it ends on with the
state.  Held on every qubit, a call is the one on the full state, bit for
bit.  A held stack runs only when its rows hold the same qubits after every
stage, so each row runs the matmuls it would run alone; else the call is
refused with ``CallRefused``.

A stage whose parameters are all zero (+0.0 or -0.0) in every row of a call
is skipped.  At zero angle a stage's Ry matrix is the identity with signed
zeros off the diagonal and its phase vector is exactly 1 (its imaginary part
a signed zero), so running it could only change the sign of zero amplitudes:
every nonzero amplitude and every probability keeps its bits.  A stack skips
a stage only when it is the identity for every row, so a row of a stack
equals (under ``==``) the same row called alone, and its ``|a|^2`` are the
same bits; only the sign of its zero amplitudes can differ.
:func:`stages_run` is that rule, and a call builds only the tables of the
stages it runs, each the same array, with the same layout, as in a call that
runs every stage, so which stages run changes no bit of the others.
``perfbench/run.py`` measures the kernels end to end.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

# There is no numba kernel.  The flag stays because perfbench/run.py reports
# it in its environment line.
HAVE_NUMBA = False


# -- numpy ansatz kernel -----------------------------------------------------

# The numpy ansatz kernel fuses each layer.  Ry gates on different qubits
# commute, so the Ry gates of up to _RY_GROUP consecutive qubits are applied
# as one real matmul by the kron of their 2x2 matrices, on the float64 view
# of the state (bit 0 of that view is real/imaginary, bit 1 + i is held
# qubit i).
# The layer's Rz and Rzz gates are diagonal and commute too; their product is
# exp(i phi(z)) with phi(z) = sum_t w_t f_t(z), f_t a product of spins
# s_q = 2 b_q - 1 and w_t = theta_t / 2 (negated for Rzz, whose phase uses
# 2 (b1 xor b2) - 1 = -s1 s2).  Splitting z into its high and low qubits,
# every term lies in one half except the entanglers that cross the cut (at
# most two), and exp(i w f) = cos w + i f sin w for f = +-1, so the phase
# vector is a complex rank <= 4 product of small per-half tables.
#
# A state is stored on its *held* qubits, ascending, and every other qubit
# is exactly |0>: a qubit outside the set has spin -1 in every term, which
# folds into the term's sign, and its Ry factor is the identity at zero angle.
# A Ry stage that moves a qubit outside the set first adds it: the qubit is
# |0>, so the stage's matmul reads only the matrix columns with its bit 0.
#
# A stage is one grouped Ry matmul or one layer's phase vector.  The stages
# run in order, layer by layer, and each reads only its own parameters, so a
# state after the first s stages serves every parameter vector that agrees
# with the one it was made with on the parameters of those stages.

_RY_GROUP = 4


class _AnsatzPlan(NamedTuple):
    """Index and sign tables of one (n, layers, ring) ansatz shape on one held set."""

    # per Ry group: (low float bit, bit count, index into the flat entry table)
    # per matmul, or None when the group holds no qubit
    ry_groups: tuple
    phase_angles: np.ndarray  # (layers + 1, terms) index into the padded parameters
    phase_sign: np.ndarray  # +1 for Rz terms, -1 for Rzz terms, times -1 per qubit not held
    hi_phase: np.ndarray  # (terms, 2^hi) f_t of the terms inside the high qubits, else 0
    lo_phase: np.ndarray  # (terms, 2^lo) the same for the low qubits
    cross_terms: tuple  # terms with held qubits on both sides of the cut
    hi_cross: np.ndarray  # (2^hi, 2^m) high factor of each subset of crossing terms
    lo_cross: np.ndarray  # (2^m, 2^lo) low factor of each subset
    stage_count: int  # (layers + 1) * (len(ry_groups) + 1)
    param_stage: np.ndarray  # (P,) the stage each parameter acts in
    ry_stage: np.ndarray  # (layers + 1, n) the stage of the Ry gate on each qubit
    ry_index: np.ndarray  # (layers + 1, n) its parameter


def _spin_products(n_bits, offset, terms):
    """Product of s_q = 2 b_q - 1 over each term's bits in [offset, offset + n_bits)."""
    z = np.arange(1 << n_bits)
    out = np.ones((1 << n_bits, len(terms)))
    for t, qubits in enumerate(terms):
        for q in qubits:
            if offset <= q < offset + n_bits:
                out[:, t] *= 2 * ((z >> (q - offset)) & 1) - 1
    return out


def _expand(acc, pair):
    """Subset products: (..., 2^j) x (..., 2) -> (..., 2^(j+1))."""
    return (acc[..., :, None] * pair[..., None, :]).reshape(*acc.shape[:-1], -1)


@lru_cache(maxsize=128)
def _ansatz_plan(n, layers, ring, held):
    """The tables of the ansatz on a state held on ``held``, ascending qubits.

    The stages and the stage of each parameter are the same on every held
    set; on all n qubits every table is the one of the full state.
    """
    n_ent = n if ring else n - 1
    per_layer = 2 * n + n_ent
    pad = layers * per_layer + 2 * n  # index of the zero angle appended to params
    bases = np.arange(layers + 1)[:, None] * per_layer
    position = {q: i for i, q in enumerate(held)}

    # float-view bit 0 (real/imaginary) takes the zero angle: an identity factor
    ry_angles = np.hstack([np.full((layers + 1, 1), pad), bases + np.array(held, dtype=int)])
    parts = np.array_split(np.arange(n), -(-n // _RY_GROUP))
    # stage g of a layer is its Ry group g, the last one its phase vector
    first_stage = np.arange(layers + 1)[:, None] * (len(parts) + 1)
    param_stage = np.empty(pad + 1, dtype=np.intp)  # the pad's entry is dropped
    ry_groups = []
    for g, part in enumerate(parts):
        param_stage[bases + part] = first_stage + g
        members = [position[q] for q in part.tolist() if q in position]
        if g == 0:
            bit, k = 0, len(members) + 1
        elif members:
            bit, k = 1 + members[0], len(members)
        else:
            ry_groups.append(None)
            continue
        idx = np.arange(1 << k)
        t = np.arange(k)[:, None, None]
        code = 2 * ((idx[:, None] >> t) & 1) + ((idx[None, :] >> t) & 1)
        ry_groups.append((bit, k, code * (pad + 1) + ry_angles[:, bit:bit + k, None, None]))

    terms = [(q,) for q in range(n)] + [(e, (e + 1) % n) for e in range(n_ent)]
    phase_angles = bases + n + np.arange(len(terms))
    phase_angles[-1, n:] = pad  # the closing layer has Rz gates only
    param_stage[phase_angles] = first_stage + len(parts)
    param_stage = param_stage[:pad]
    param_stage.flags.writeable = False
    # each term on the held bits; a qubit outside them has spin -1
    held_terms = [[position[q] for q in qs if q in position] for qs in terms]
    outside = [len(qs) - len(bits) for qs, bits in zip(terms, held_terms)]
    h = len(held)
    lo = h // 2
    hi_f = _spin_products(h - lo, lo, held_terms)
    lo_f = _spin_products(lo, 0, held_terms)
    in_hi = np.array([min(bits, default=lo) >= lo for bits in held_terms])
    in_lo = np.array([bool(bits) and max(bits) < lo for bits in held_terms])
    cross_terms = tuple(np.flatnonzero(~(in_hi | in_lo)))
    hi_cross = np.ones((1 << (h - lo), 1))
    lo_cross = np.ones((1 << lo, 1))
    for t in cross_terms:
        hi_cross = _expand(hi_cross, np.stack([np.ones_like(hi_f[:, t]), hi_f[:, t]], -1))
        lo_cross = _expand(lo_cross, np.stack([np.ones_like(lo_f[:, t]), lo_f[:, t]], -1))
    ry_index = bases + np.arange(n)
    for table in (phase_angles, ry_index):
        table.flags.writeable = False
    return _AnsatzPlan(
        ry_groups=tuple(ry_groups),
        phase_angles=phase_angles,
        phase_sign=np.array([1.0] * n + [-1.0] * n_ent) * (-1.0) ** np.array(outside),
        hi_phase=np.ascontiguousarray((hi_f * in_hi).T),
        lo_phase=np.ascontiguousarray((lo_f * in_lo).T),
        cross_terms=cross_terms,
        hi_cross=hi_cross,
        lo_cross=np.ascontiguousarray(lo_cross.T),
        stage_count=(layers + 1) * (len(parts) + 1),
        param_stage=param_stage,
        ry_stage=param_stage[ry_index],
        ry_index=ry_index,
    )


@lru_cache(maxsize=1024)
def _qubits(mask):
    """The qubits of a bit mask, ascending."""
    return tuple(q for q in range(mask.bit_length()) if mask >> q & 1)


def _phase_tables(plan, half, batch):
    """Each layer's phase vector as the two factors of one matmul."""
    w = half[..., plan.phase_angles] * plan.phase_sign
    coef = np.ones(batch + (plan.phase_angles.shape[0], 1))
    for t in plan.cross_terms:
        coef = _expand(coef, np.stack([np.cos(w[..., t]), 1j * np.sin(w[..., t])], -1))
    left = np.exp(1j * (w @ plan.hi_phase))[..., None] * coef[..., None, :] * plan.hi_cross
    right = np.exp(1j * (w @ plan.lo_phase))[..., None, :] * plan.lo_cross
    return left, right


def _apply_ansatz(psi0, n, layers, ring, params, stages, held_at, buffers):
    """The ``stages`` (ascending), on one state or row by row on a stack.

    ``held_at`` holds the held set of ``psi0`` and then the one after each
    stage, the same for every row of a stack.  The stages that end on one
    held set form a segment and run on its plan; only the first of them can
    add qubits, and held on every qubit a call is one segment.
    Every array carries the leading axes of ``params[..., 0]`` (none for one
    state), so each row goes through the same matmuls, of the same shapes, as
    it would alone; a phase stage on rows of one amplitude multiplies them
    row by row, as numpy's path for one element differs from a longer
    loop's.  Only the tables the stages read are built, per segment:
    a Ry group's table, for every layer, and the phase tables of every layer.
    A table is the same array, of the same layout, whichever stages a call
    runs, so the bits of a stage do not depend on them.  Every table is built
    before the state buffers are allocated (built between the stages
    instead, the 9-qubit stacks of the ``paper-n4`` benchmark ran 6-10%
    slower on a 2-core VM).  The stages write ``buffers`` in turn (their
    leading entries where the state is smaller), two fresh arrays when it is
    None; when ``stages`` is empty, ``psi0`` is copied into the first.
    """
    groups = (n + _RY_GROUP - 1) // _RY_GROUP
    run = [divmod(stage, groups + 1) for stage in stages]  # (layer, group) each
    batch = params.shape[:-1]
    if run:
        half = 0.5 * np.concatenate([params, np.zeros(batch + (1,))], axis=-1)
    if any(g < groups for _, g in run):
        cos, sin = np.cos(half), np.sin(half)
        # entry 2 * row_bit + col_bit of [[c, -s], [s, c]] for every angle, flat
        entries = np.stack([cos, -sin, sin, cos], axis=-2).reshape(batch + (-1,))
    # where a segment starts after the first; held on every qubit, none does
    starts = [] if len(held_at[0]) == n else [
        i for i in range(1, len(run)) if held_at[i + 1] != held_at[i]]
    segments = []  # (first stage, end, plan, Ry tables, phase tables) each
    for first, end in zip([0] + starts, starts + [len(run)]) if run else ():
        plan = _ansatz_plan(n, layers, ring, held_at[end])
        segment = run[first:end]
        # the gather leaves a stack's matrices strided; contiguous ones take the
        # same BLAS path as one state's, so every row gets the same bits
        ry = {g: np.ascontiguousarray(entries[..., plan.ry_groups[g][2]].prod(axis=-3))
              for g in {g for _, g in segment if g < groups}}
        phase = (_phase_tables(plan, half, batch) if any(g == groups for _, g in segment)
                 else None)
        segments.append((first, end, plan, ry, phase))

    # each stage reads amps and writes the other buffer, so psi0 is read in
    # place and never written
    size = 1 << len(held_at[-1])
    if buffers is None:
        buffers = (np.empty(batch + (size,), complex), np.empty(batch + (size,), complex))
    amps = psi0
    for first, end, plan, ry, phase in segments:
        before, held = held_at[first], held_at[end]
        pair = (_leading(buffers[first % 2], 1 << len(held)),
                _leading(buffers[1 - first % 2], 1 << len(held)))
        for i, (layer, g) in enumerate(run[first:end]):
            out = pair[i % 2]
            if g < groups:
                bit, k, _ = plan.ry_groups[g]
                mat, k_in = ry[g][..., layer, :, :], k
                if i == 0 and len(held) > len(before):
                    # the qubits the stage adds are |0> before it: the matmul
                    # reads only the matrix columns with their bits 0
                    added = sum(1 << (1 + p - bit) for p, q in enumerate(held) if q not in before)
                    mat = mat[..., np.flatnonzero((np.arange(1 << k) & added) == 0)]
                    k_in = k - (len(held) - len(before))
                src, dst = amps.view(np.float64), out.view(np.float64)
                if bit == 0:
                    np.matmul(src.reshape(batch + (-1, 1 << k_in)), mat.swapaxes(-1, -2),
                              out=dst.reshape(batch + (-1, 1 << k)))
                else:
                    np.matmul(mat[..., None, :, :], src.reshape(batch + (-1, 1 << k_in, 1 << bit)),
                              out=dst.reshape(batch + (-1, 1 << k, 1 << bit)))
            else:
                # the phase vector goes into the output buffer, so no state-sized temporary
                left, right = phase
                shape = batch + (left.shape[-2], -1)
                np.matmul(left[..., layer, :, :], right[..., layer, :, :], out=out.reshape(shape))
                if batch and out.shape[-1] == 1:
                    # numpy multiplies one complex in place on another path than
                    # a longer loop, with other bits: each row as it would alone
                    for row in np.ndindex(batch):
                        np.multiply(amps[row], out[row], out=out[row])
                else:
                    np.multiply(amps, out, out=out)
            amps = out
    if amps is psi0:
        amps = _leading(buffers[0], size)
        np.copyto(amps, psi0)
    return amps


def _leading(buffer, size):
    """``buffer``, or a view of its first ``size`` entries when it is longer."""
    return buffer if buffer.shape[-1] == size else buffer[..., :size]


# -- entry points ------------------------------------------------------------


class CallRefused(ValueError):
    """An ansatz kernel call refused before any work because its states do
    not fit it: the rows of a held stack would hold different qubits after
    a stage, or the buffers lent are shorter than the result.  The rows can
    go one per call, or into longer buffers."""


def enumerate_spin_energies(n, const, lin_idx, lin_val, qi, qj, qval, spins=None):
    """Scaled-int Ising energies of all 2^n spin assignments (s = 1 - 2*bit).

    A doubling recurrence in O(2^n) int64 additions and no memory beyond the
    result.  Spins from k up are +1 in every state z < 2^k, and flipping
    spin k changes the energy by 2 G_k[z], where
    G_k[z] = -h_k - sum_{j != k} J_jk s_j(z), so E[z + 2^k] = E[z] + 2 G_k[z].
    G_k doubles the same way: G_k[z + 2^j] = G_k[z] + 2 J_jk for j < k.

    ``spins``, a ``(T, m)`` array of distinct spins per row, runs the same
    recurrence on each row's spins alone: the result is ``(T, 2^m)``, and
    entry z of row t is the energy of the state whose spin ``spins[t, k]``
    is -1 for each bit k of z, every other spin +1.  So the energies of a
    few spins' states need no 2^n vector.

    Exact as long as |const| + sum |h| + sum |J| < 2^62, the bound that
    ``ising.scale_to_int64`` enforces: every E and G_k lies within that
    bound, and every 2 G_k, 2 J_jk and partial sum within twice it, below 2^63.
    """
    h = np.zeros(n, dtype=np.int64)
    np.add.at(h, np.asarray(lin_idx, dtype=np.int64), np.asarray(lin_val, dtype=np.int64))
    qi, qj, qval = (np.asarray(a, dtype=np.int64) for a in (qi, qj, qval))
    coupling = np.zeros((n, n), dtype=np.int64)
    np.add.at(coupling, (qi, qj), qval)
    np.add.at(coupling, (qj, qi), qval)
    # one column per row of ``spins``: entry [z, t] is state z of row t
    columns = np.arange(n)[:, None] if spins is None else np.asarray(spins, dtype=np.int64).T
    gain = (-(h + coupling.sum(axis=1)))[columns]  # G_k at the all +1 state
    twice = 2 * coupling[columns[:, None], columns[None, :]]
    energies = np.empty((1 << len(columns), columns.shape[1]), dtype=np.int64)
    energies[0] = np.int64(const) + h.sum() + qval.sum()
    for k in range(len(columns)):
        flip = energies[1 << k:2 << k]  # holds G_k, then the energies it leads to
        flip[0] = gain[k]
        for j in range(k):
            np.add(flip[:1 << j], twice[j, k], out=flip[1 << j:2 << j])
        flip *= 2
        flip += energies[:1 << k]
    return energies[:, 0] if spins is None else energies.T


def ansatz_stages(n, layers, ring):
    """``(stage count, stage of each parameter)`` of the ansatz kernel.

    A stage is one grouped Ry matmul or one layer's phase vector; the stages
    run in order, and parameter p acts in stage ``stages[p]`` alone.  At 16
    qubits and 2 layers there are 15 stages.  The array is read-only.
    """
    plan = _ansatz_plan(n, layers, bool(ring), tuple(range(n)))
    return plan.stage_count, plan.param_stage


def ansatz_rotations(n, layers, ring):
    """``(ry, rz)``: the parameter of the Ry gate and of the Rz gate on each
    qubit, per layer, as read-only ``(layers + 1, n)`` index arrays; row
    ``layers`` is the closing rotation layer."""
    plan = _ansatz_plan(n, layers, bool(ring), tuple(range(n)))
    return plan.ry_index, plan.phase_angles[:, :n]


def stages_run(n, layers, ring, params, start=0, stop=None):
    """The stages from ``start`` to ``stop - 1`` that a kernel call with
    ``params``, ``(P,)`` or ``(R, P)``, runs, ascending.

    A stage runs when one of its parameters is nonzero in some row; one whose
    parameters are all +0.0 or -0.0 in every row is the identity and is
    skipped.  A wrong parameter count or a range outside the ansatz's stages
    is refused with ``ValueError``.
    """
    count, param_stage = ansatz_stages(n, layers, ring)
    params = np.asarray(params, dtype=np.float64)
    if params.shape[-1:] != param_stage.shape:
        raise ValueError(f"the ansatz takes {param_stage.size} parameters per state, "
                         f"got parameters of shape {params.shape}")
    stop = count if stop is None else stop
    if not 0 <= start < stop <= count:
        raise ValueError(f"stages {start} to {stop} are not a range within 0..{count}")
    moved = params != 0 if params.ndim == 1 else params.reshape(-1, param_stage.size).any(axis=0)
    return sorted({stage for stage in param_stage[moved].tolist() if start <= stage < stop})


def basis_indices(held):
    """The basis index, over all qubits, of each amplitude of a state held on
    ``held`` (ascending qubits): bit i of an amplitude's index is qubit
    ``held[i]``, and every other qubit is 0.  The indices ascend."""
    idx = np.zeros(1 << len(held), dtype=np.int64)
    for i, q in enumerate(held):
        idx[1 << i:2 << i] = idx[:1 << i] + (1 << q)
    return idx


@lru_cache(maxsize=16)
def _ry_moves(n, layers, ring):
    """``(P, stage count)``: ``1 << q`` in the stage column of each Ry
    parameter on qubit q, 0 elsewhere.  Read-only."""
    plan = _ansatz_plan(n, layers, ring, tuple(range(n)))
    moves = np.zeros((plan.param_stage.size, plan.stage_count), dtype=np.int64)
    moves[plan.ry_index, plan.ry_stage] = np.left_shift(1, np.arange(n))
    moves.flags.writeable = False
    return moves


def _held_after(n, layers, ring, params, held, stages):
    """``held``, then the held set after each of ``stages``; for a stack, its
    rows' common one, or None when they differ after one of the stages."""
    if len(held) == n or not stages:
        return [held] * (len(stages) + 1)
    # per row, the bit mask of the qubits held after each stage from the
    # first to the last of ``stages``: a stage that is not run turns none
    rows = params.reshape(-1, params.shape[-1])
    first = stages[0]
    masks = np.bitwise_or.accumulate(
        ((rows != 0) @ _ry_moves(n, layers, ring))[:, first:stages[-1] + 1], axis=1)
    top, *others = (masks | sum(1 << q for q in held)).tolist()
    if any(row != top for row in others):
        return None
    return [held] + [_qubits(top[stage - first]) for stage in stages]


def _check_held(psi0, params, n, held):
    """``held`` as a tuple; refuse one that is not ascending qubits of the
    ansatz, or states ``psi0`` that are not held on it, one per row of
    ``params``."""
    held = tuple(int(q) for q in held)
    if list(held) != sorted(set(held)) or not all(0 <= q < n for q in held):
        raise ValueError(f"held must be ascending distinct qubits of 0..{n - 1}, got {held}")
    if psi0.shape != params.shape[:-1] + (1 << len(held),):
        raise ValueError(f"a state held on {len(held)} qubits is {1 << len(held)} amplitudes; "
                         f"states {psi0.shape} do not match parameters {params.shape}")
    return held


def _check_buffers(psi0, buffers, size):
    """Refuse a ``buffers`` pair the stages cannot ping-pong through, with
    ``CallRefused`` when it is only too short for the result."""
    if len(buffers) != 2:
        raise ValueError(f"buffers must be a pair, got {len(buffers)}")
    for buffer in buffers:
        if not (isinstance(buffer, np.ndarray) and buffer.dtype == np.complex128
                and buffer.shape[:-1] == psi0.shape[:-1] and buffer.ndim == psi0.ndim
                and buffer.flags.c_contiguous):
            raise ValueError(
                f"each buffer must be a C-contiguous complex128 array of shape "
                f"{psi0.shape[:-1] + (size,)} or longer in its last axis"
            )
        if buffer.shape[-1] < size:
            raise CallRefused(f"the result holds {size} amplitudes per state, more than the "
                              f"{buffer.shape[-1]} of the buffers lent")
        # contiguous arrays share memory exactly when their extents overlap
        if np.may_share_memory(buffer, psi0):
            raise ValueError("a buffer shares memory with the input state")
    if np.may_share_memory(*buffers):
        raise ValueError("the two buffers share memory")


def apply_ansatz_amplitudes(psi0, n, layers, ring, params, start=0, stop=None, buffers=None,
                            held=None):
    """Apply the layered Ry/Rz/Rzz ansatz to a state vector, or to a stack.

    One state ``(2^n,)`` takes parameters ``(P,)``; a stack ``(R, 2^n)`` takes
    ``(R, P)``, row r's parameters acting on row r's state.  The result has
    the shape of ``psi0`` (but see ``held``), and ``psi0`` is not modified.

    ``held``, ascending qubits, passes states on those qubits alone: each an
    array of ``2^len(held)`` amplitudes, bit i of whose index is qubit
    ``held[i]``, with every other qubit exactly |0> (``basis_indices`` maps
    it into the full state), one state or an ``(R, 2^len(held))`` stack.
    The call then returns a pair, the states and the qubits they are held
    on: ``held`` and those that the stages run turn by a nonzero Ry angle,
    ascending.  Held on every qubit, the state has the bits of a call
    without ``held``.  A stack whose rows would hold different qubits after
    a stage the call runs (one row turns a qubit by a nonzero angle that
    another leaves at |0>) is refused with ``CallRefused`` before any work:
    its rows would not run the matmuls they run alone.

    ``start`` and ``stop`` run only the stages from ``start`` to ``stop - 1``
    (see :func:`ansatz_stages`; by default all of them): ``psi0`` is then
    the state after the first ``start`` stages, and the result the state
    after the first ``stop``.  Calls that split the stages between them,
    each with the same parameters on its own stages, give the bits of one
    call that runs them all.

    A stage whose parameters are all +-0.0 in every row is the identity and
    is skipped (:func:`stages_run` lists the stages a call runs).  So the
    rows of a stack equal, under ``==``, what calls on each row alone give,
    and their ``|a|^2`` are the same bits; the sign of a zero amplitude can
    differ where a row sat out a stage another row ran.
    Parameters other than ``P`` per state are refused with ``ValueError``.

    ``buffers``, a pair ``(a, b)`` of distinct C-contiguous complex128 arrays
    of ``psi0``'s leading shape, at least the result's length in the last
    axis, that share no memory with it, lets calls reuse their state memory:
    the stages that run write ``a`` and ``b`` in turn (their leading entries
    where the state is shorter), and the result is the one the last of them
    wrote (``a`` after 1, 3, ... stages, ``b`` after 2, 4, ...), not a new
    array: that buffer itself when it has the result's length, else a view
    of its leading entries.  A call that runs no stage copies ``psi0`` into
    ``a`` and returns it, and writes no other array.  The bits are those of
    a call without ``buffers``.  ``None`` allocates two state-sized arrays
    per call, and the result is never ``psi0`` itself.  Buffers shorter
    than the result are refused with ``CallRefused``, before any work.
    """
    params = np.asarray(params, dtype=np.float64)
    psi0 = np.ascontiguousarray(psi0, dtype=np.complex128)
    stages = stages_run(n, layers, ring, params, start, stop)
    if held is None:
        if psi0.shape[:-1] != params.shape[:-1]:
            raise ValueError(f"states {psi0.shape} do not match parameters {params.shape}")
        held_at = [tuple(range(n))] * (len(stages) + 1)
    else:
        held_at = _held_after(n, layers, bool(ring), params, _check_held(psi0, params, n, held),
                              stages)
        if held_at is None:
            raise CallRefused("the rows of a held stack would hold different qubits after "
                              "a stage the call runs")
    if buffers is not None:
        _check_buffers(psi0, buffers, 1 << len(held_at[-1]))
    amps = _apply_ansatz(psi0, n, layers, bool(ring), params, stages, held_at, buffers)
    return amps if held is None else (amps, held_at[-1])
