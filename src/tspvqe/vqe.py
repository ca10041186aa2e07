"""Variational loop: layered ansatz, rotation-descent optimizer, traces.

The ansatz alternates per-qubit Ry/Rz rotations with parameterized Rzz
entanglers and closes with a final rotation layer.  Every gate is the
exponential of a generator scaled by theta/2, so the circuit is the
identity at theta = 0 and the first trace entry is always the initial
state's energy.

The optimizer is rotation descent: exact sequential minimization of the
one-parameter sinusoids that rotation-gate circuits produce, with seeded
sweep orders and deterministic restart points (Nakanishi, Fujii & Todo,
Phys. Rev. Research 2, 043158, 2020).  On the 9-qubit problems here simplex
methods plateau above the ground energy within the evaluation budget, while
sinusoid descent reaches it exactly.  A run is deterministic given its seed,
stops at its evaluation cap, and records the best-so-far energy after every
evaluation.  The cap is the one setting a caller passes: the probe offset,
the resolution and the restart rules are the module dict ``OPTIMIZER``, and
the convergence tolerance the constant ``CONVERGENCE_TOL``, which a report
writes out.

The search is an ask/tell generator.  It yields a tuple of parameter vectors
whose values it needs before it can go on (the two probes of a coordinate,
or a single point), is sent the list of their values, and finally returns
its record, the ``_Recorder`` it kept: the history, the best point and value,
the evaluation count, and the first evaluation within the convergence
tolerance of the target, noted as it is recorded.  Values are recorded in
request order, so the history is the same as if each vector had been
evaluated alone.

:func:`run_lockstep` drives the independent runs of a VQE batch together,
in groups: the runs whose two-vector requests (a probe pair) fill one
kernel call of at most ``LOCKSTEP_AMPLITUDES`` amplitudes (16 runs at 9
qubits, one from 13 qubits up).  Below 14 qubits each round is one
``kernels.apply_ansatz_amplitudes`` call on the pending vectors of every
live run of the group, over an ``(R, 2^n)`` stack of the runs' initial
states, each spread into its row from the qubits its init builds it on.
From 14 qubits up each run goes alone (below).  The kernel skips the
stages whose parameters are zero in every row (they are the identity), so a
stack may run a stage that a row's run alone would skip.  The row's
amplitudes can then differ only in the sign of zeros: they are equal under
``==``, and their probabilities are the same bits; a stack of one row gives
that row's bits.  Each expectation is one dot product per row of
probabilities, so a trace does not depend on the batch it ran in.

Where the runs go alone (14 qubits and up), a run also keeps one
partly applied state, a prefix: its current point after the ansatz stages
below the first stage at which the vectors of a request differ.  Rotation
descent's probe pair and the candidate after it all start from that
prefix, and the kernel runs only the later stages, with the full call's
bits.  The prefix is found by comparing parameter vectors, so the searches
do not know of it.  Carrying it over stages that are all at zero angle
needs no kernel call.  Such a run holds its states on the qubits they can
occupy (the kernel's held set: the qubits its init builds the start on and
every qubit a Ry gate has turned by a nonzero angle), as 2^h amplitudes,
every other qubit exactly |0>: a best-MUB start holds at most 3 of its
qubits, a zeros start none, a random start all of them.  The kernel takes
the start as its init builds it, never as a full state.  Each state is
measured with the energies of its held subspace, gathered once per held set
in the run, and its most probable basis index is mapped back to all n
qubits.  The run also keeps three state buffers, the prefix and a free
pair, and uses their leading 2^h entries: every kernel call writes into the
pair, and each state's probabilities go into the float64 view of the pair's
other buffer.  Each request is one kernel call while it fits one: a probe
pair whose two states together hold at most ``LOCKSTEP_AMPLITUDES``
amplitudes goes in one stacked call, from two copies of the prefix laid in
a fourth buffer, unless the kernel refuses it because its rows would hold
different qubits after some stage; else the vectors go one per call.  A
group is one run, so the runs of a batch go one after another, and all of
them use the same four buffers, allocated once per batch.  So no
evaluation allocates a state-sized array, and of the starts only a random
one is state-sized.  Stacked calls (13 qubits and below) hold
every qubit, as a random start does, and so keep the bits of the kernel on
full states.

A state exists only here, as the amplitudes of the qubits it holds, and
``_Tally`` is the package's one expectation: the dot product of a state's
probabilities with the energies of its held subspace (all 2^n for a
stacked row).  ``quantum`` holds only the MUB table the starts are built
from.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from types import MappingProxyType
from typing import Sequence

import numpy as np

from . import kernels, layouts
from .errors import SizeCapError, ValidationError
from .ising import IsingPolynomial
from .layouts import ENTANGLERS, checked_int, is_int
from .quantum import build_mubs_3q

# amplitudes per ansatz kernel call in a lockstep group; groups are sized for
# two pending states per run (a rotation-descent probe pair)
LOCKSTEP_AMPLITUDES = 1 << 14


def runs_alone(n: int) -> bool:
    """Whether the runs of a lockstep batch on ``n`` qubits go one at a time,
    each from its kept prefix (from 14 qubits up, where a probe pair on
    every qubit no longer fits one kernel call)."""
    return LOCKSTEP_AMPLITUDES >> n <= 1


@dataclass(frozen=True)
class AnsatzConfig:
    """Shape of the variational circuit, on at most ``layouts.SPIN_CAP``
    qubits: a larger ``n`` is refused before any plan is built."""

    n: int
    layers: int = 2
    entangler: str = "linear_rzz"

    def __post_init__(self):
        object.__setattr__(self, "n", checked_int("ansatz n", self.n, 1))
        layouts.check_spins(self.n, "vqe")  # before any other field
        object.__setattr__(self, "layers", checked_int("ansatz layers", self.layers, 1))
        if self.entangler not in ENTANGLERS:
            raise ValidationError(f"unknown entangler {self.entangler!r}")
        if self.ring and self.n < 3:  # a smaller ring repeats a pair, or pairs a qubit with itself
            raise ValidationError(f"ring_rzz needs at least 3 qubits, got {self.n}")
        if self.layers > layouts.LAYER_CAP:
            raise SizeCapError(f"ansatz capped at {layouts.LAYER_CAP} layers, got {self.layers}")

    @property
    def ring(self) -> bool:
        """Whether the entangler chain closes into a ring: n entanglers, not n - 1."""
        return self.entangler == "ring_rzz"

    @property
    def parameter_count(self) -> int:
        """The parameters the ansatz kernel takes per state: the length of its
        plan's stage of each parameter (``kernels.ansatz_stages``)."""
        return kernels.ansatz_stages(self.n, self.layers, self.ring)[1].size


# -- initial states ----------------------------------------------------------
#
# ``build(n)`` returns a start as ``(held, amplitudes, product_angles)``: the
# state on the ascending qubits ``held`` alone, as 2^len(held) amplitudes
# (bit i of an index is qubit ``held[i]``, every other qubit exactly |0>;
# ``kernels.basis_indices`` maps them into the full state), and the per-qubit
# (alpha, beta) angles of a product start, or None.


@dataclass(frozen=True)
class ZerosInit:
    """The all-zero computational state: no qubit held, one amplitude."""

    def label(self) -> str:
        return "zeros"

    def build(self, n: int):
        return (), np.ones(1, dtype=complex), np.zeros((n, 2))


@dataclass(frozen=True)
class RandomInit:
    """Product of per-qubit Ry(alpha)Rz(beta) rotations with seeded angles,
    held on every qubit.  The seed is a non-negative int."""

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", checked_int("seed", self.seed, 0))

    def label(self) -> str:
        return f"random({self.seed})"

    def build(self, n: int):
        rng = np.random.default_rng(self.seed)
        angles = rng.uniform(0.0, 2.0 * np.pi, (n, 2))
        amps = np.array([1.0 + 0j])
        for q in range(n):
            alpha, beta = angles[q]
            qubit = np.array([np.cos(alpha / 2), np.sin(alpha / 2)], dtype=complex)
            qubit *= np.exp(np.array([-1j * beta / 2, 1j * beta / 2]))
            amps = np.kron(qubit, amps)  # qubit q lands on bit q
        return tuple(range(n)), amps, angles


@dataclass(frozen=True)
class MubInit:
    """Element ``element`` (0-7) of 3-qubit MUB ``basis`` (0-8) on the qubits
    ``positions``, three distinct and ascending; every other qubit is |0>.

    The start is held on the qubits it occupies, read from the record: all
    three positions in bases 1-8, and in basis 0 those its element sets.
    Every field is stored as plain ints, the positions as a tuple."""

    positions: tuple
    basis: int
    element: int

    def __post_init__(self):
        object.__setattr__(self, "basis", checked_int("MUB basis", self.basis, 0, 8))
        object.__setattr__(self, "element", checked_int("MUB element", self.element, 0, 7))
        try:
            positions = tuple(self.positions)
        except TypeError:  # not iterable: refused below, shown as given
            positions = self.positions
        if not (isinstance(positions, tuple) and len(positions) == 3
                and all(map(is_int, positions))
                and 0 <= positions[0] < positions[1] < positions[2]):
            raise ValidationError(f"MUB positions must be three distinct ascending qubits, "
                                  f"got {positions}")
        object.__setattr__(self, "positions", tuple(map(int, positions)))

    def label(self) -> str:
        pos = "-".join(str(p) for p in self.positions)
        return f"mub(basis={self.basis},element={self.element},positions={pos})"

    def build(self, n: int):
        if self.positions[-1] >= n:
            raise ValidationError(f"positions {self.positions} out of range for {n} qubits")
        occupied = tuple(i for i in range(3) if self.basis or self.element >> i & 1)
        held = tuple(self.positions[i] for i in occupied)
        amplitudes = build_mubs_3q()[self.basis, self.element, kernels.basis_indices(occupied)]
        return held, amplitudes, None


# -- the optimizer ------------------------------------------------------------

# rotation descent's settings, as a report names them (with ``max_evals``);
# read-only, since every run and report reads this one copy
OPTIMIZER = MappingProxyType({
    "method": "rotation_descent",  # the only one
    # the probe offset, in units of pi: a coordinate's two probes sit at
    # +/- pi * rho_start from the current point
    "rho_start": 0.5,
    # the resolution: a sweep whose largest step is below it has stalled, and
    # a step below rho_end / 1000 is not taken
    "rho_end": 1e-4,
    # sweeps per attempt while chasing a target, after which the search
    # restarts from the next restart point
    "attempt_sweeps": 1,
    # half-width, in units of pi, of the uniform jitter around x0 that a
    # restart falls back to once the restart points are used up
    "restart_jitter": 0.02,
})
# relative tolerance within which a run's energy counts as the ground energy
CONVERGENCE_TOL = 1e-6


class _Recorder:
    """One search's record: its evaluation count, running best and history,
    and the first evaluation within ``target_tol`` of the target."""

    def __init__(self, max_evals, target, target_tol):
        self.max_evals = max_evals
        self.target = target
        self.target_tol = target_tol
        self.n_evaluations = 0
        self.best_params = None
        self.best_value = np.inf
        self.history = []
        self.converged_at = None  # the history index of that evaluation

    def ask(self, *xs):
        """Yield the vectors ``xs`` as one request and record their values.

        Used as ``values = yield from rec.ask(...)``; the values are recorded
        in request order, as if evaluated one after the other.
        """
        values = yield xs
        values = [float(value) for value in values]
        for x, value in zip(xs, values):
            if value < self.best_value:
                self.best_value = value
                self.best_params = np.array(x, dtype=float, copy=True)
                if (self.converged_at is None and self.target is not None
                        and abs(value - self.target) <= self.target_tol):
                    self.converged_at = self.n_evaluations
            self.n_evaluations += 1
            self.history.append(self.best_value)
        return values

    def done(self) -> bool:
        """Whether the search stops: fewer evaluations left than the three of
        a coordinate step, or an evaluation within ``target_tol`` of the
        target."""
        return self.max_evals - self.n_evaluations < 3 or self.converged_at is not None


def _search(x0, max_evals, seed, target, target_tol, restart_points):
    """One rotation-descent run from ``x0``: a generator that yields tuples of
    parameter vectors, is sent the list of their values, and returns its
    ``_Recorder``.  ``history`` is the best-so-far value after every
    evaluation (entry 0 is the value at ``x0``), so it never increases.

    Exact coordinate minimization for per-parameter sinusoidal objectives:
    each coordinate restriction of a rotation-gate energy is
    a + b*cos(u) + c*sin(u) around the current point; the current value and
    two probes at +/- (pi * rho_start) determine the three coefficients
    exactly, and are asked for in one request.  Sweeps visit coordinates in
    a seeded random order; when a sweep stalls (or exceeds the attempt cap
    while chasing a target) the search restarts from the next suggested
    restart point, falling back to small jitters of x0.
    """
    rec = _Recorder(max_evals, target, target_tol)
    yield from rec.ask(x0)
    dim = len(x0)
    rng = np.random.default_rng(seed)
    probe = np.pi * OPTIMIZER["rho_start"]
    cos_p, sin_p = np.cos(probe), np.sin(probe)
    rho_end, jitter = OPTIMIZER["rho_end"], OPTIMIZER["restart_jitter"] * np.pi
    queue = iter(restart_points or ())
    attempt_cap = OPTIMIZER["attempt_sweeps"] * 3 * dim

    x = np.array(x0, copy=True)
    fx = rec.best_value
    attempt_evals = 0
    while dim and not rec.done():
        order = rng.permutation(dim)
        f_sweep_start = fx
        moved = 0.0
        for k in order:
            if rec.done():
                break
            t0 = x[k]
            plus = x.copy()
            plus[k] = t0 + probe
            minus = x.copy()
            minus[k] = t0 - probe
            f_plus, f_minus = yield from rec.ask(plus, minus)
            attempt_evals += 2
            # fit a + b*cos(u) + c*sin(u) through fx, f(+probe), f(-probe)
            b = (fx - (f_plus + f_minus) / 2.0) / (1.0 - cos_p)
            c = (f_plus - f_minus) / (2.0 * sin_p)
            if np.hypot(b, c) < 1e-14:
                continue
            u = float(np.arctan2(-c, -b))
            if abs(u) < rho_end * 1e-3:
                continue
            candidate = x.copy()
            candidate[k] = t0 + u
            [f_candidate] = yield from rec.ask(candidate)
            attempt_evals += 1
            if f_candidate <= fx:
                moved = max(moved, abs(u))
                x, fx = candidate, f_candidate
        if rec.done():
            break
        stalled = (f_sweep_start - fx) < 1e-12 or moved < rho_end
        # the attempt cap only cuts slow attempts when chasing a known target;
        # without one, attempts run until they genuinely stall
        capped = rec.target is not None and attempt_evals >= attempt_cap
        if stalled or capped:
            x = next(queue, None)
            if x is None:
                x = x0 + rng.uniform(-jitter, jitter, dim)
            else:
                x = np.asarray(x, dtype=float)
            [fx] = yield from rec.ask(x)
            attempt_evals = 0
    return rec


# -- restart-point construction ----------------------------------------------


def _restart_points(config, product_angles, seed, count=16):
    """Parameters steering a product state ``Ry(a)Rz(b)|0>`` per qubit onto
    computational basis states: the one nearest the start (unless the start
    is ``|0...0>``), then ``count`` seeded random ones.

    Layer 1's Rz undoes the azimuthal angle, layer 2's Ry rotates each qubit
    to the requested pole (their parameters as ``kernels.ansatz_rotations``
    places them); everything else stays zero.  Needs layers >= 2.

    A generator: the points are built when the first one is asked for, so a
    run that never restarts builds none.  They draw from their own
    generator, so when they are built changes none of them.
    """
    if config.layers < 2:
        return
    n = config.n
    rng = np.random.default_rng([seed, 0x5EED])
    alpha, beta = (product_angles if product_angles is not None else np.zeros((n, 2))).T
    bits = [rng.integers(0, 2, n) for _ in range(count)]
    if product_angles is not None and np.any(product_angles):
        bits.insert(0, np.sin(alpha / 2.0) ** 2 > 0.5)
    ry, rz = kernels.ansatz_rotations(n, config.layers, config.ring)
    points = np.zeros((len(bits), config.parameter_count))
    points[:, rz[0]] = -beta
    points[:, ry[1]] = np.where(np.reshape(bits, (-1, n)), np.pi - alpha, -alpha)
    yield from points


# -- the VQE loop --------------------------------------------------------------


@dataclass
class VqeTrace:
    """Per-run record: best-so-far energy after every evaluation."""

    init: str
    seed: int
    energies: list
    final_energy: float
    final_parameters: list
    best_bitstring: str
    converged: bool
    n_evaluations: int
    iterations_to_convergence: int | None


def run_lockstep(
    ising: IsingPolynomial,
    starts: Sequence,
    ansatz: AnsatzConfig | None = None,
    max_evals: int = 2000,
    ground_energy: float | None = None,
) -> list:
    """One VQE run per ``(init, seed)`` in ``starts``, run in lockstep, each
    of at most ``max_evals`` evaluations.

    Runs go in consecutive groups of at most ``LOCKSTEP_AMPLITUDES / 2^(n+1)``
    (at least one), whose two-vector requests fill one kernel call; below 14
    qubits each round is one call, and from 14 qubits up each request of a
    run while it fits one.  Each trace equals that of its start alone.
    Expectations are exact state-vector averages (no sampling noise).  When
    ``ground_energy`` is given a run stops as soon as its energy is within
    ``CONVERGENCE_TOL`` (relative) of it; otherwise convergence stays False
    and each run goes until it runs out of evaluations.  A ``max_evals``
    below 1 or a seed that is not a non-negative int is refused before any
    start is built.
    """
    max_evals = checked_int("max_evals", max_evals, 1)
    starts = [(init, checked_int("seed", seed, 0)) for init, seed in starts]
    ansatz = ansatz or AnsatzConfig(n=ising.n)
    if ansatz.n != ising.n:
        raise ValidationError("ansatz qubit count must match the Hamiltonian")
    energy_vector = ising.energy_float_vector()
    target_tol = (
        CONVERGENCE_TOL * max(1.0, abs(ground_energy)) if ground_energy is not None else 0.0
    )
    group_size = max(1, LOCKSTEP_AMPLITUDES >> (ising.n + 1))
    # from 14 qubits up a group is one run: the runs go one at a time, each
    # with its prefix in the same buffers
    buffers = _state_buffers(ising.n) if runs_alone(ising.n) else None
    traces = []
    for first in range(0, len(starts), group_size):
        traces += _run_group(
            starts[first:first + group_size], ansatz, max_evals, energy_vector,
            ground_energy, target_tol, buffers,
        )
    return traces


def _state_buffers(n) -> list:
    """Three 2^n-amplitude complex128 arrays, then one of
    ``LOCKSTEP_AMPLITUDES``, where a probe pair's stacked call takes its
    input, in one anonymous memory map.

    Not from the C heap: a batch's buffers outlive many smaller allocations,
    and freed there they left holes that later commands' arrays did not fit
    (the seed-1 ``vqe-n5`` benchmark's peak memory grew by 1.8-2.7 MB).  The
    map goes back to the system whole once no array uses it.
    """
    size = 3 << n
    block = np.frombuffer(mmap.mmap(-1, 16 * (size + LOCKSTEP_AMPLITUDES)), dtype=np.complex128)
    return list(block[:size].reshape(3, 1 << n)) + [block[size:]]


def _run_group(group, ansatz, max_evals, energy_vector, ground_energy, target_tol, buffers):
    """The traces of one lockstep group; its states are freed on return.

    Each round evaluates the pending vectors of every live search.
    ``buffers`` is the batch's state buffers (``_state_buffers``) where the
    runs go alone, and then every call starts from the run's ``_Prefix``,
    which writes into them.  Else it is None, each start is spread into its row of
    one ``(R, 2^n)`` array, and a round is one kernel call on a stack of
    those rows.  Each state is measured by its run's ``_Tally`` as soon as
    its kernel call returns.
    """
    built = [init.build(ansatz.n) for init, _ in group]
    searches = [_search(np.zeros(ansatz.parameter_count), max_evals, seed, ground_energy,
                        target_tol, _restart_points(ansatz, product_angles, seed))
                for (_, seed), (_, _, product_angles) in zip(group, built)]
    tallies = [_Tally(energy_vector) for _ in group]
    if buffers is None:
        states = np.zeros((len(group), 1 << ansatz.n), dtype=complex)
        for row, (held, amps, _) in zip(states, built):
            row[kernels.basis_indices(held)] = amps
    else:
        prefixes = [_Prefix(held, amps, ansatz, buffers) for held, amps, _ in built]
    traces = [None] * len(group)
    pending = {i: next(search) for i, search in enumerate(searches)}
    while pending:
        if buffers is None:
            values = _stacked_values(pending, states, tallies, ansatz)
        else:
            values = [value for i, request in pending.items()
                      for value in prefixes[i].values(request, tallies[i])]
        start = 0
        for i, request in list(pending.items()):
            try:
                pending[i] = searches[i].send(values[start:start + len(request)])
            except StopIteration as done:
                traces[i] = _trace(*group[i], done.value, tallies[i].peak, ansatz)
                del pending[i]
            start += len(request)
    return traces


def _stacked_values(pending, states, tallies, ansatz) -> list:
    """The energies of the pending vectors, in request order, from one kernel
    call on the stack of their runs' initial states."""
    owners = [i for i, request in pending.items() for _ in request]
    params = np.array([x for request in pending.values() for x in request])
    amps = _amplitudes(states[owners], params, ansatz)
    return [tallies[i](row) for i, row in zip(owners, np.abs(amps) ** 2)]


class _Tally:
    """One run's energy measurements, and its most probable basis state at
    the first evaluation of lowest energy (the strict ``<`` of ``_Recorder``)."""

    def __init__(self, energy_vector):
        self.energy_vector = energy_vector
        self.best = np.inf
        self.peak = None
        self._subspaces = {}  # held qubits -> (their energies, basis index of each)

    def __call__(self, probabilities, held=None) -> float:
        """The energy of a state's probabilities; one dot product.  A state
        held on ``held`` (a ``kernels`` held set) short of every qubit is
        measured with the energies of its subspace, cached per held set."""
        energies, index = self.energy_vector, None
        if probabilities.size < energies.size:
            if held not in self._subspaces:
                index = kernels.basis_indices(held)
                self._subspaces[held] = energies[index], index
            energies, index = self._subspaces[held]
        value = float(probabilities @ energies)
        if value < self.best:
            peak = int(np.argmax(probabilities))
            self.best, self.peak = value, peak if index is None else int(index[peak])
        return value


def _amplitudes(psi, theta, ansatz, **options):
    return kernels.apply_ansatz_amplitudes(psi, ansatz.n, ansatz.layers, ansatz.ring, theta,
                                           **options)


class _Prefix:
    """One run's initial state and its kept prefix, for calls on held states.

    The initial state is ``psi0`` held on the qubits ``held0``, as an init
    builds it.  ``state`` is the ansatz state after the stages below
    ``stage``, applied with the parameters ``params`` (stage 0: the initial
    state itself), held on the qubits ``held`` (see
    ``kernels.apply_ansatz_amplitudes``): ``held0`` and the qubits those
    stages turn.  The run writes into the leading entries of its batch's
    state buffers, ``buffers`` (``_state_buffers``): every kernel call
    writes into the two of the first three that do not hold ``state``, and
    a carried prefix becomes ``state`` in place.  A carry whose stages are
    all at zero angle (``kernels.stages_run`` finds none to run) moves
    ``stage`` and ``params`` forward without a kernel call: the call would
    only have copied ``state``.  A call on one state skips a stage and adds
    a qubit exactly when a call on the whole ansatz would, so the split
    calls give the bits of one full call.  A probe pair goes in one stacked
    call only when each row holds the qubits it would hold alone, after
    every stage, so each row has the bits of its call alone.
    """

    def __init__(self, held0, psi0, ansatz, buffers):
        self.ansatz, self.held0, self.psi0 = ansatz, held0, psi0
        self.stage_count, self.param_stage = kernels.ansatz_stages(
            ansatz.n, ansatz.layers, ansatz.ring)
        self._buffers, self._pair_input = buffers[:3], buffers[3]
        self._reset()

    def _reset(self):
        self.params, self.stage, self.state, self.held = None, 0, self.psi0, self.held0

    def _free(self) -> tuple:
        """The two buffers that do not hold ``state``."""
        return tuple(b for b in self._buffers if not np.may_share_memory(b, self.state))[:2]

    def _shared(self, a, b) -> int:
        """The number of leading stages on which ``a`` and ``b`` agree, bit for bit."""
        differ = self.param_stage[a.view(np.int64) != b.view(np.int64)]
        return int(differ.min()) if differ.size else self.stage_count

    def values(self, request, tally) -> list:
        """The energies of the vectors of ``request``, in order.

        Starts from the kept prefix when every vector agrees with it on the
        stages below it, else from the initial state.  When the vectors
        first differ past that start, the prefix is first carried forward
        to there, with the first vector's parameters.  A pair of states that
        together hold at most ``LOCKSTEP_AMPLITUDES`` amplitudes goes in one
        call on two copies of ``state``, laid in the input buffer, with
        buffer rows of half that: the kernel refuses it
        (``kernels.CallRefused``, before any work) when its rows would not
        hold the same qubits after every stage, or would come to hold more,
        and the vectors then go one per call, as any other request.
        """
        xs = [np.asarray(x, dtype=np.float64) for x in request]
        if self.stage and min(self._shared(self.params, x) for x in xs) < self.stage:
            self._reset()
        split = min((self._shared(xs[0], x) for x in xs[1:]), default=0)
        if self.stage < split < self.stage_count:
            # a carry that runs no stage would only copy the state
            if kernels.stages_run(self.ansatz.n, self.ansatz.layers, self.ansatz.ring, xs[0],
                                  self.stage, split):
                self.state, self.held = _amplitudes(self.state, xs[0], self.ansatz,
                                                    start=self.stage, stop=split,
                                                    buffers=self._free(), held=self.held)
            # a copy: a search may reuse the memory of the vectors it asked for
            self.params, self.stage = xs[0].copy(), split
        free = self._free()
        if len(xs) == 2 and 2 * self.state.size <= LOCKSTEP_AMPLITUDES:
            rows = self._pair_input[:2 * self.state.size].reshape(2, -1)
            rows[:] = self.state
            lent = tuple(b[:LOCKSTEP_AMPLITUDES].reshape(2, -1) for b in free)
            try:
                return self._measured(rows, np.stack(xs), lent, tally)
            except kernels.CallRefused:
                pass
        return [value for x in xs for value in self._measured(self.state, x, free, tally)]

    def _measured(self, psi, params, buffers, tally) -> list:
        """The energies of one kernel call from ``stage`` on ``psi``, one
        state or a stack, measured before the next call overwrites it: the
        probabilities go into the float64 view of the buffer the kernel did
        not return."""
        amps, held = _amplitudes(psi, params, self.ansatz, start=self.stage, buffers=buffers,
                                 held=self.held)
        idle = buffers[1] if np.may_share_memory(amps, buffers[0]) else buffers[0]
        probabilities = idle.view(np.float64)[..., :amps.shape[-1]]
        np.abs(amps, out=probabilities)
        np.square(probabilities, out=probabilities)
        return [tally(row, held) for row in probabilities.reshape(-1, amps.shape[-1])]


def _trace(init, seed, record, peak, ansatz) -> VqeTrace:
    return VqeTrace(
        init=init.label(),
        seed=seed,
        energies=record.history,
        final_energy=record.best_value,
        final_parameters=[float(p) for p in record.best_params],
        best_bitstring=layouts.bits_to_string(layouts.index_to_bits(peak, ansatz.n)),
        converged=record.converged_at is not None,
        n_evaluations=record.n_evaluations,
        iterations_to_convergence=record.converged_at,
    )
