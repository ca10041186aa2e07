"""Hot numeric kernels: exhaustive energy enumeration and ansatz application.

Both are numpy kernels, the same on every install.  Energy enumeration works
in scaled int64 arithmetic (the caller supplies coefficients multiplied by a
common denominator), so results are exact.  The ansatz kernel applies each
layer as a few grouped Ry matmuls and one fused phase vector for its Rz and
Rzz gates.  It takes one state or a stack of them: an ``(R, 2^n)`` stack with
``(R, P)`` parameters applies row r's parameters to row r's state in one call,
and each row comes out bit for bit as a call on that row alone would give it.
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
# of the state (bit 0 of that view is real/imaginary, bit 1 + q is qubit q).
# The layer's Rz and Rzz gates are diagonal and commute too; their product is
# exp(i phi(z)) with phi(z) = sum_t w_t f_t(z), f_t a product of spins
# s_q = 2 b_q - 1 and w_t = theta_t / 2 (negated for Rzz, whose phase uses
# 2 (b1 xor b2) - 1 = -s1 s2).  Splitting z into its high and low qubits,
# every term lies in one half except the entanglers that cross the cut (at
# most two), and exp(i w f) = cos w + i f sin w for f = +-1, so the phase
# vector is a complex rank <= 4 product of small per-half tables.

_RY_GROUP = 4


class _AnsatzPlan(NamedTuple):
    """Index and sign tables of one (n, layers, ring) ansatz shape."""

    ry_groups: tuple  # (low float bit, bit count, index into the flat entry table) per matmul
    phase_angles: np.ndarray  # (layers + 1, terms) index into the padded parameters
    phase_sign: np.ndarray  # +1 for Rz terms, -1 for Rzz terms
    hi_phase: np.ndarray  # (terms, 2^hi) f_t of the terms inside the high qubits, else 0
    lo_phase: np.ndarray  # (terms, 2^lo) the same for the low qubits
    cross_terms: tuple  # terms with qubits on both sides of the cut
    hi_cross: np.ndarray  # (2^hi, 2^m) high factor of each subset of crossing terms
    lo_cross: np.ndarray  # (2^m, 2^lo) low factor of each subset


def _spin_products(n_bits, offset, terms):
    """Product of s_q = 2 b_q - 1 over each term's qubits in [offset, offset + n_bits)."""
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


@lru_cache(maxsize=None)
def _ansatz_plan(n, layers, ring):
    n_ent = n if ring else n - 1
    per_layer = 2 * n + n_ent
    pad = layers * per_layer + 2 * n  # index of the zero angle appended to params
    bases = np.arange(layers + 1)[:, None] * per_layer

    # float-view bit 0 (real/imaginary) takes the zero angle: an identity factor
    ry_angles = np.hstack([np.full((layers + 1, 1), pad), bases + np.arange(n)])
    sizes = [len(part) for part in np.array_split(np.arange(n), -(-n // _RY_GROUP))]
    sizes[0] += 1
    ry_groups = []
    bit = 0
    for k in sizes:
        idx = np.arange(1 << k)
        t = np.arange(k)[:, None, None]
        code = 2 * ((idx[:, None] >> t) & 1) + ((idx[None, :] >> t) & 1)
        ry_groups.append((bit, k, code * (pad + 1) + ry_angles[:, bit:bit + k, None, None]))
        bit += k

    terms = [(q,) for q in range(n)] + [(e, (e + 1) % n) for e in range(n_ent)]
    phase_angles = bases + n + np.arange(len(terms))
    phase_angles[-1, n:] = pad  # the closing layer has Rz gates only
    lo = n // 2
    hi_f = _spin_products(n - lo, lo, terms)
    lo_f = _spin_products(lo, 0, terms)
    in_hi = np.array([min(qs) >= lo for qs in terms])
    in_lo = np.array([max(qs) < lo for qs in terms])
    cross_terms = tuple(np.flatnonzero(~(in_hi | in_lo)))
    hi_cross = np.ones((1 << (n - lo), 1))
    lo_cross = np.ones((1 << lo, 1))
    for t in cross_terms:
        hi_cross = _expand(hi_cross, np.stack([np.ones_like(hi_f[:, t]), hi_f[:, t]], -1))
        lo_cross = _expand(lo_cross, np.stack([np.ones_like(lo_f[:, t]), lo_f[:, t]], -1))
    return _AnsatzPlan(
        ry_groups=tuple(ry_groups),
        phase_angles=phase_angles,
        phase_sign=np.array([1.0] * n + [-1.0] * n_ent),
        hi_phase=np.ascontiguousarray((hi_f * in_hi).T),
        lo_phase=np.ascontiguousarray((lo_f * in_lo).T),
        cross_terms=cross_terms,
        hi_cross=hi_cross,
        lo_cross=np.ascontiguousarray(lo_cross.T),
    )


def _apply_ansatz(psi0, n, layers, ring, params):
    """The ansatz on one state, or row by row on a stack of states.

    Every array carries the leading axes of ``params[..., 0]`` (none for one
    state), so each row goes through the same matmuls, of the same shapes, as
    it would alone.
    """
    plan = _ansatz_plan(n, layers, ring)
    batch = params.shape[:-1]
    half = 0.5 * np.concatenate([params, np.zeros(batch + (1,))], axis=-1)
    cos, sin = np.cos(half), np.sin(half)
    # entry 2 * row_bit + col_bit of [[c, -s], [s, c]] for every angle, flat
    entries = np.stack([cos, -sin, sin, cos], axis=-2).reshape(batch + (-1,))
    # the gather leaves a stack's matrices strided; contiguous ones take the
    # same BLAS path as one state's, so every row gets the same bits
    ry = [
        np.ascontiguousarray(entries[..., index].prod(axis=-3))
        for _, _, index in plan.ry_groups
    ]

    w = half[..., plan.phase_angles] * plan.phase_sign
    coef = np.ones(batch + (layers + 1, 1))
    for t in plan.cross_terms:
        coef = _expand(coef, np.stack([np.cos(w[..., t]), 1j * np.sin(w[..., t])], -1))
    left = np.exp(1j * (w @ plan.hi_phase))[..., None] * coef[..., None, :] * plan.hi_cross
    right = np.exp(1j * (w @ plan.lo_phase))[..., None, :] * plan.lo_cross

    amps = np.array(psi0, dtype=np.complex128, order="C")
    spare = np.empty_like(amps)
    for layer in range(layers + 1):
        for (bit, k, _), mats in zip(plan.ry_groups, ry):
            src, dst = amps.view(np.float64), spare.view(np.float64)
            mat = mats[..., layer, :, :]
            if bit == 0:
                shape = batch + (-1, 1 << k)
                np.matmul(src.reshape(shape), mat.swapaxes(-1, -2), out=dst.reshape(shape))
            else:
                shape = batch + (-1, 1 << k, 1 << bit)
                np.matmul(mat[..., None, :, :], src.reshape(shape), out=dst.reshape(shape))
            amps, spare = spare, amps
        # the phase vector goes into the spare buffer, so no state-sized temporary
        shape = batch + (left.shape[-2], -1)
        np.matmul(left[..., layer, :, :], right[..., layer, :, :], out=spare.reshape(shape))
        amps *= spare
    return amps


# -- entry points ------------------------------------------------------------


def enumerate_spin_energies(n, const, lin_idx, lin_val, qi, qj, qval):
    """Scaled-int Ising energies of all 2^n spin assignments (s = 1 - 2*bit).

    A doubling recurrence in O(2^n) int64 additions and no memory beyond the
    result.  Spins from k up are +1 in every state z < 2^k, and flipping
    spin k changes the energy by 2 G_k[z], where
    G_k[z] = -h_k - sum_{j != k} J_jk s_j(z), so E[z + 2^k] = E[z] + 2 G_k[z].
    G_k doubles the same way: G_k[z + 2^j] = G_k[z] + 2 J_jk for j < k.

    Exact as long as |const| + sum |h| + sum |J| < 2^62, the bound that
    ``rationals.scale_to_int64`` enforces: every E and G_k lies within that
    bound, and every 2 G_k, 2 J_jk and partial sum within twice it, below 2^63.
    """
    h = np.zeros(n, dtype=np.int64)
    np.add.at(h, np.asarray(lin_idx, dtype=np.int64), np.asarray(lin_val, dtype=np.int64))
    qi, qj, qval = (np.asarray(a, dtype=np.int64) for a in (qi, qj, qval))
    coupling = np.zeros((n, n), dtype=np.int64)
    np.add.at(coupling, (qi, qj), qval)
    np.add.at(coupling, (qj, qi), qval)
    energies = np.empty(1 << n, dtype=np.int64)
    energies[0] = np.int64(const) + h.sum() + qval.sum()
    for k in range(n):
        flip = energies[1 << k:2 << k]  # holds G_k, then the energies it leads to
        flip[0] = -(h[k] + coupling[k].sum())
        for j in range(k):
            np.add(flip[:1 << j], 2 * coupling[j, k], out=flip[1 << j:2 << j])
        flip *= 2
        flip += energies[:1 << k]
    return energies


def apply_ansatz_amplitudes(psi0, n, layers, ring, params):
    """Apply the layered Ry/Rz/Rzz ansatz to a state vector, or to a stack.

    One state ``(2^n,)`` takes parameters ``(P,)``; a stack ``(R, 2^n)`` takes
    ``(R, P)``, row r's parameters acting on row r's state.  The result has
    the shape of ``psi0``, and ``psi0`` is not modified.
    """
    params = np.asarray(params, dtype=np.float64)
    psi0 = np.asarray(psi0, dtype=np.complex128)
    if psi0.shape[:-1] != params.shape[:-1]:
        raise ValueError(f"states {psi0.shape} do not match parameters {params.shape}")
    return _apply_ansatz(psi0, n, layers, bool(ring), params)
