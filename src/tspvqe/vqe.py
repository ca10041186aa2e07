"""Variational loop: layered ansatz, derivative-free optimizers, traces.

The ansatz alternates per-qubit Ry/Rz rotations with parameterized Rzz
entanglers and closes with a final rotation layer.  Every gate is the
exponential of a generator scaled by theta/2, so the circuit is the
identity at theta = 0 and the first trace entry is always the initial
state's energy.

Two derivative-free optimizers share one contract (initial step rho_start,
terminal resolution rho_end, evaluation cap, deterministic given a seed,
best-so-far history):

* ``nelder_mead``     -- adaptive simplex reflection with seeded restarts;
  the general-purpose default of :func:`optimize`.
* ``rotation_descent`` -- exact sequential minimization of the one-parameter
  sinusoids that rotation-gate circuits produce, with seeded sweep orders
  and deterministic restart points.  This is the default for VQE runs: on
  the 9-qubit problems here simplex methods plateau around 1e-3 above the
  ground energy within the evaluation budget, while sinusoid descent
  reaches it exactly.

Both are ask/tell generators.  A search yields a tuple of parameter vectors
whose values it needs before it can go on (rotation descent's two probes,
the vertices of a new simplex, or a single point), is sent the list of
their values, and finally returns its ``OptimizeResult``.  Values are
recorded in request order, so the history is the same as if each vector had
been evaluated alone.  :func:`optimize` drives one search with a scalar
objective.

:func:`run_lockstep` drives the independent runs of a VQE batch together.
Each round it gathers the pending vectors of every live run and evaluates
them in one ``kernels.apply_ansatz_amplitudes`` call over an ``(R, 2^n)``
stack of the runs' initial states.  A call holds at most
``LOCKSTEP_AMPLITUDES`` amplitudes (32 states at 9 qubits), and a group
holds as many runs as fill a call with two states each (16 at 9 qubits, at
least one), so at 16 qubits a group is one run and a call one unstacked
state.  The kernel gives each row the bits a call on it alone would, and each
expectation is one dot product per row, so a trace does not depend on the
batch it ran in.  :func:`run_vqe` is a group of one.

Where a call holds one state (14 qubits and up), a run also keeps one
partly applied state, a prefix: its current point after the ansatz stages
below the first stage at which the vectors of a request differ.  Rotation
descent's probe pair and the candidate after it all start from that
prefix, and the kernel runs only the later stages, with the full call's
bits.  The prefix is found by comparing parameter vectors, so the searches
do not know of it.  Such a run also keeps three state buffers, the prefix
and a free pair: every kernel call writes into the pair, and each state's
probabilities go into the float64 view of the pair's other buffer.  A group
is then one run, so the runs of a batch go one after another, and all of
them use the same three buffers, allocated once per batch.  So no
evaluation allocates a state-sized array, and since only where results are
written changes, the bits do not.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import kernels, layouts
from .errors import SizeCapError, ValidationError
from .ising import IsingPolynomial
from .quantum import QuantumState, build_mubs_3q, embed_state

ENTANGLERS = ("linear_rzz", "ring_rzz")
# the optimizer methods, the VQE default first
METHODS = ("rotation_descent", "nelder_mead")

# amplitudes per ansatz kernel call in a lockstep group; groups are sized for
# two pending states per run (a rotation-descent probe pair)
LOCKSTEP_AMPLITUDES = 1 << 14


@dataclass(frozen=True)
class AnsatzConfig:
    """Shape of the variational circuit."""

    n: int
    layers: int = 2
    entangler: str = "linear_rzz"

    def __post_init__(self):
        if self.entangler not in ENTANGLERS:
            raise ValidationError(f"unknown entangler {self.entangler!r}")
        if self.layers < 1:
            raise ValidationError("ansatz needs at least one layer")
        if self.layers > layouts.LAYER_CAP:
            raise SizeCapError(f"ansatz capped at {layouts.LAYER_CAP} layers, got {self.layers}")

    @property
    def ring(self) -> bool:
        """Whether the entangler chain closes into a ring: n entanglers, not n - 1."""
        return self.entangler == "ring_rzz"

    @property
    def entangler_count(self) -> int:
        return self.n if self.ring else self.n - 1

    @property
    def parameter_count(self) -> int:
        return self.layers * (2 * self.n + self.entangler_count) + 2 * self.n


def apply_ansatz(config: AnsatzConfig, params, state: QuantumState) -> QuantumState:
    if len(params) != config.parameter_count:
        raise ValidationError(
            f"expected {config.parameter_count} parameters, got {len(params)}"
        )
    return QuantumState(_amplitudes(state.amplitudes, params, config), check=False)


# -- initial states ----------------------------------------------------------


@dataclass(frozen=True)
class ZerosInit:
    """The all-zero computational state."""

    def label(self) -> str:
        return "zeros"

    def build(self, n: int):
        amps = np.zeros(1 << n, dtype=complex)
        amps[0] = 1.0
        return QuantumState(amps, check=False), np.zeros((n, 2))


@dataclass(frozen=True)
class RandomInit:
    """Product of per-qubit Ry(alpha)Rz(beta) rotations with seeded angles."""

    seed: int

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
        return QuantumState(amps), angles


@dataclass(frozen=True)
class MubInit:
    """A 3-qubit MUB basis element embedded at the given qubit positions."""

    positions: tuple
    basis: int
    element: int

    def label(self) -> str:
        pos = "-".join(str(p) for p in self.positions)
        return f"mub(basis={self.basis},element={self.element},positions={pos})"

    def build(self, n: int):
        local = build_mubs_3q().bases[self.basis][self.element]
        return embed_state(local, self.positions, n), None


# -- optimizers ---------------------------------------------------------------

# sweeps per rotation-descent attempt while chasing a target, after which the
# search restarts from the next restart point
ATTEMPT_SWEEPS = 1
# half-width, in units of pi, of the uniform jitter around x0 that a restart
# falls back to once the restart points are used up
RESTART_JITTER = 0.02


@dataclass(frozen=True)
class OptimizerConfig:
    """Shared contract for the derivative-free optimizers.

    ``rho_start`` scales the initial simplex (and, times pi, the sinusoid
    probe offset); ``rho_end`` is the resolution at which a descent is
    considered finished.  Both must be finite and positive, and
    ``rotation_descent`` needs ``rho_start`` below 1.
    """

    method: str = "nelder_mead"
    rho_start: float = 0.5
    rho_end: float = 1e-4
    max_evals: int = 2000

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"unknown optimizer method {self.method!r}")
        if self.max_evals < 1:
            raise ValidationError(f"max_evals must be at least 1, got {self.max_evals}")
        for name in ("rho_start", "rho_end"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValidationError(f"{name} must be finite and positive, got {value}")
        if self.method == "rotation_descent" and self.rho_start >= 1:
            raise ValidationError("rotation_descent needs rho_start in (0, 1); "
                                  "the probe offset is pi * rho_start")


@dataclass
class OptimizeResult:
    best_params: np.ndarray
    best_value: float
    history: list
    n_evaluations: int


class _Recorder:
    """The evaluation count and running best of one search."""

    def __init__(self, max_evals, target, target_tol):
        self.max_evals = max_evals
        self.target = target
        self.target_tol = target_tol
        self.n_evals = 0
        self.best_x = None
        self.best_f = np.inf
        self.history = []

    def ask(self, *xs):
        """Yield the vectors ``xs`` as one request and record their values.

        Used as ``values = yield from rec.ask(...)``; the values are recorded
        in request order, as if evaluated one after the other.
        """
        values = yield xs
        values = [float(value) for value in values]
        for x, value in zip(xs, values):
            self.n_evals += 1
            if value < self.best_f:
                self.best_f = value
                self.best_x = np.array(x, dtype=float, copy=True)
            self.history.append(self.best_f)
        return values

    @property
    def left(self) -> int:
        return self.max_evals - self.n_evals

    def exhausted(self, need: int = 1) -> bool:
        return self.left < need

    def target_hit(self) -> bool:
        return self.target is not None and abs(self.best_f - self.target) <= self.target_tol


def _search(x0, config, seed, target, target_tol, restart_points):
    """The ask/tell form of :func:`optimize`: a generator that yields tuples
    of parameter vectors, is sent the list of their values, and returns the
    ``OptimizeResult``."""
    rec = _Recorder(config.max_evals, target, target_tol)
    yield from rec.ask(x0)
    if config.method == "rotation_descent":
        yield from _rotation_descent(rec, x0, config, seed, restart_points)
    else:
        yield from _nelder_mead(rec, x0, config, seed)
    return OptimizeResult(
        best_params=rec.best_x,
        best_value=rec.best_f,
        history=rec.history,
        n_evaluations=rec.n_evals,
    )


def optimize(
    objective: Callable,
    x0,
    config: OptimizerConfig | None = None,
    seed: int = 0,
    target: float | None = None,
    target_tol: float = 0.0,
    restart_points: Sequence | None = None,
) -> OptimizeResult:
    """Minimize a black-box objective under the shared optimizer contract.

    ``history`` is the best-so-far value after every evaluation (entry 0 is
    the objective at ``x0``), hence monotone non-increasing.  Given the same
    seed, objective, and config the run is fully deterministic.
    """
    search = _search(
        np.asarray(x0, dtype=float), config or OptimizerConfig(), seed, target, target_tol,
        restart_points,
    )
    request = next(search)
    while True:
        try:
            request = search.send([objective(x) for x in request])
        except StopIteration as done:
            return done.value


def _nelder_mead(rec, x0, config, seed):
    """Adaptive simplex reflection with seeded axis signs and restarts."""
    dim = len(x0)
    if dim == 0:
        return
    rng = np.random.default_rng(seed)
    alpha = 1.0
    beta = 1.0 + 2.0 / dim
    gamma = 0.75 - 1.0 / (2.0 * dim)
    delta = 1.0 - 1.0 / dim
    rho = config.rho_start
    while not (rec.exhausted() or rec.target_hit()):
        # the simplex vertices are independent, so they form one request
        xs = [np.array(rec.best_x, copy=True)]
        for i in range(min(dim, rec.left)):
            vertex = xs[0].copy()
            vertex[i] += rho * rng.choice((-1.0, 1.0))
            xs.append(vertex)
        fs = [rec.best_f] + (yield from rec.ask(*xs[1:]))
        if len(xs) < dim + 1:
            break
        xs = np.array(xs)
        fs = np.array(fs)
        while not (rec.exhausted(need=2) or rec.target_hit()):
            order = np.argsort(fs, kind="stable")
            xs, fs = xs[order], fs[order]
            if np.max(np.abs(xs[1:] - xs[0])) < config.rho_end:
                break
            centroid = xs[:-1].mean(axis=0)
            reflected = centroid + alpha * (centroid - xs[-1])
            [f_reflected] = yield from rec.ask(reflected)
            if f_reflected < fs[0]:
                expanded = centroid + beta * (reflected - centroid)
                [f_expanded] = yield from rec.ask(expanded)
                if f_expanded < f_reflected:
                    xs[-1], fs[-1] = expanded, f_expanded
                else:
                    xs[-1], fs[-1] = reflected, f_reflected
            elif f_reflected < fs[-2]:
                xs[-1], fs[-1] = reflected, f_reflected
            else:
                if f_reflected < fs[-1]:
                    contracted = centroid + gamma * (reflected - centroid)
                else:
                    contracted = centroid - gamma * (reflected - centroid)
                [f_contracted] = yield from rec.ask(contracted)
                if f_contracted < min(f_reflected, fs[-1]):
                    xs[-1], fs[-1] = contracted, f_contracted
                elif rec.left:
                    shrunk = slice(1, 1 + min(dim, rec.left))
                    xs[shrunk] = xs[0] + delta * (xs[shrunk] - xs[0])
                    fs[shrunk] = yield from rec.ask(*xs[shrunk])
        # restart around the incumbent with a smaller simplex
        rho = max(rho * 0.5, config.rho_end * 10.0)


def _rotation_descent(rec, x0, config, seed, restart_points):
    """Exact coordinate minimization for per-parameter sinusoidal objectives.

    Each coordinate restriction of a rotation-gate energy is
    a + b*cos(u) + c*sin(u) around the current point; the current value and
    two probes at +/- (pi * rho_start) determine the three coefficients
    exactly, and are asked for in one request.  Sweeps visit coordinates in
    a seeded random order; when a sweep stalls (or exceeds the attempt cap
    while chasing a target) the search restarts from the next suggested
    restart point, falling back to small jitters of x0.
    """
    dim = len(x0)
    if dim == 0:
        return
    rng = np.random.default_rng(seed)
    probe = np.pi * config.rho_start
    cos_p, sin_p = np.cos(probe), np.sin(probe)
    queue = [np.asarray(p, dtype=float) for p in (restart_points or [])]
    attempt_cap = ATTEMPT_SWEEPS * 3 * dim

    x = np.array(x0, copy=True)
    fx = rec.best_f
    attempt_evals = 0
    while not (rec.exhausted(need=3) or rec.target_hit()):
        order = rng.permutation(dim)
        f_sweep_start = fx
        moved = 0.0
        for k in order:
            if rec.exhausted(need=3) or rec.target_hit():
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
            a = fx - b
            if np.hypot(b, c) < 1e-14:
                continue
            u = float(np.arctan2(-c, -b))
            if abs(u) < config.rho_end * 1e-3:
                continue
            candidate = x.copy()
            candidate[k] = t0 + u
            [f_candidate] = yield from rec.ask(candidate)
            attempt_evals += 1
            if f_candidate <= fx:
                moved = max(moved, abs(u))
                x, fx = candidate, f_candidate
        if rec.exhausted(need=3) or rec.target_hit():
            break
        stalled = (f_sweep_start - fx) < 1e-12 or moved < config.rho_end
        # the attempt cap only cuts slow attempts when chasing a known target;
        # without one, attempts run until they genuinely stall
        capped = rec.target is not None and attempt_evals >= attempt_cap
        if stalled or capped:
            if queue:
                x = queue.pop(0)
            else:
                x = x0 + rng.uniform(-RESTART_JITTER * np.pi, RESTART_JITTER * np.pi, dim)
            [fx] = yield from rec.ask(x)
            attempt_evals = 0


# -- restart-point construction ----------------------------------------------


def _restart_points(config, product_angles, seed, count=16):
    """Parameters steering a product state ``Ry(a)Rz(b)|0>`` per qubit onto
    computational basis states: the one nearest the start (unless the start
    is ``|0...0>``), then ``count`` seeded random ones.

    Layer 1's Rz undoes the azimuthal angle, layer 2's Ry rotates each qubit
    to the requested pole; everything else stays zero.  Needs layers >= 2.
    """
    if config.layers < 2:
        return []
    n = config.n
    rng = np.random.default_rng([seed, 0x5EED])
    alpha, beta = (product_angles if product_angles is not None else np.zeros((n, 2))).T
    bits = [rng.integers(0, 2, n) for _ in range(count)]
    if product_angles is not None and np.any(product_angles):
        bits.insert(0, np.sin(alpha / 2.0) ** 2 > 0.5)
    points = np.zeros((len(bits), config.parameter_count))
    points[:, n:2 * n] = -beta
    per_layer = 2 * n + config.entangler_count
    points[:, per_layer:per_layer + n] = np.where(np.reshape(bits, (-1, n)), np.pi - alpha, -alpha)
    return list(points)


# -- the VQE loop --------------------------------------------------------------


@dataclass
class VqeTrace:
    """Per-run record: best-so-far energy after every evaluation."""

    initial_label: str
    seed: int
    energies: list
    final_energy: float
    final_parameters: list
    best_bitstring: str
    converged: bool
    n_evaluations: int
    iterations_to_convergence: int | None

    def to_dict(self) -> dict:
        return {
            "init": self.initial_label,
            "seed": self.seed,
            "energies": self.energies,
            "final_energy": self.final_energy,
            "final_parameters": self.final_parameters,
            "best_bitstring": self.best_bitstring,
            "converged": self.converged,
            "n_evaluations": self.n_evaluations,
            "iterations_to_convergence": self.iterations_to_convergence,
        }


def run_vqe(
    ising: IsingPolynomial,
    init,
    ansatz: AnsatzConfig | None = None,
    optimizer: OptimizerConfig | None = None,
    seed: int = 0,
    ground_energy: float | None = None,
    convergence_tol: float = 1e-6,
) -> VqeTrace:
    """Minimize the expectation of a diagonal Hamiltonian from a given state.

    Expectations are exact state-vector averages (no sampling noise).  When
    ``ground_energy`` is supplied the run stops as soon as the energy is
    within ``convergence_tol`` (relative) of it; otherwise convergence stays
    False and the optimizer runs to its own termination.  This is
    :func:`run_lockstep` with one run.
    """
    [trace] = run_lockstep(
        ising, [(init, seed)], ansatz, optimizer, ground_energy, convergence_tol
    )
    return trace


def run_lockstep(
    ising: IsingPolynomial,
    starts: Sequence,
    ansatz: AnsatzConfig | None = None,
    optimizer: OptimizerConfig | None = None,
    ground_energy: float | None = None,
    convergence_tol: float = 1e-6,
) -> list:
    """One VQE run per ``(init, seed)`` in ``starts``, run in lockstep.

    Runs go in consecutive groups of at most ``LOCKSTEP_AMPLITUDES / 2^(n+1)``
    (at least one).  Each trace equals that of :func:`run_vqe` on its own
    start.
    """
    ansatz = ansatz or AnsatzConfig(n=ising.n)
    optimizer = optimizer or OptimizerConfig(method="rotation_descent")
    if ansatz.n != ising.n:
        raise ValidationError("ansatz qubit count must match the Hamiltonian")
    energy_vector = ising.energy_float_vector()
    target_tol = (
        convergence_tol * max(1.0, abs(ground_energy)) if ground_energy is not None else 0.0
    )
    group_size = max(1, LOCKSTEP_AMPLITUDES >> (ising.n + 1))
    # where a kernel call holds one state, a group is one run: the runs go
    # one at a time, each with its prefix in the same three buffers
    buffers = _state_buffers(ising.n) if LOCKSTEP_AMPLITUDES >> ising.n <= 1 else None
    traces = []
    for first in range(0, len(starts), group_size):
        traces += _run_group(
            starts[first:first + group_size], ansatz, optimizer, energy_vector,
            ground_energy, target_tol, buffers,
        )
    return traces


def _state_buffers(n) -> list:
    """Three 2^n-amplitude complex128 arrays in one anonymous memory map.

    Not from the C heap: a batch's buffers outlive many smaller allocations,
    and freed there they left holes that later commands' arrays did not fit
    (the seed-1 ``vqe-n5`` benchmark's peak memory grew by 1.8-2.7 MB).  The
    map goes back to the system whole once no array uses it.
    """
    block = np.frombuffer(mmap.mmap(-1, 3 * 16 * (1 << n)), dtype=np.complex128)
    return list(block.reshape(3, 1 << n))


def _run_group(group, ansatz, optimizer, energy_vector, ground_energy, target_tol, buffers):
    """The traces of one lockstep group; its states are freed on return."""
    built = [init.build(ansatz.n) for init, _ in group]
    searches = [
        _search(
            np.zeros(ansatz.parameter_count), optimizer, seed, ground_energy, target_tol,
            _restart_points(ansatz, product_angles, seed),
        )
        for (_, seed), (_, product_angles) in zip(group, built)
    ]
    # a group of one is not copied into a stack
    states = (
        np.stack([psi0.amplitudes for psi0, _ in built]) if len(built) > 1
        else built[0][0].amplitudes[None]
    )
    results, peaks = _lockstep(searches, states, energy_vector, ansatz, buffers)
    return [
        _trace(init, seed, result, peak, ansatz, ground_energy, target_tol)
        for (init, seed), result, peak in zip(group, results, peaks)
    ]


def _lockstep(searches, states, energy_vector, ansatz, buffers):
    """Drive ask/tell searches together; return their results in order, and
    for each the basis state of highest probability at its best point.

    Search i starts from row i of ``states``.  Each round evaluates the
    pending vectors of every live search, in kernel calls of at most
    ``LOCKSTEP_AMPLITUDES`` amplitudes; a call with one state passes it
    unstacked, and starts from the run's ``_Prefix``, which writes into
    ``buffers``: the batch's three state-sized arrays where a call holds one
    state (then ``states`` has one row), else None.  Each state is
    measured by its run's ``_Tally`` as soon as its kernel call returns.
    """
    per_call = max(1, LOCKSTEP_AMPLITUDES >> ansatz.n)
    results = [None] * len(searches)
    tallies = [_Tally(energy_vector) for _ in searches]
    prefixes = None if buffers is None else [_Prefix(psi0, ansatz, buffers) for psi0 in states]
    pending = {i: next(search) for i, search in enumerate(searches)}
    while pending:
        if prefixes is None:
            values = _stacked_values(pending, states, tallies, per_call, ansatz)
        else:
            values = [value for i, request in pending.items()
                      for value in prefixes[i].values(request, tallies[i])]
        start = 0
        for i, request in list(pending.items()):
            try:
                pending[i] = searches[i].send(values[start:start + len(request)])
            except StopIteration as done:
                results[i] = done.value
                del pending[i]
            start += len(request)
    return results, [tally.peak for tally in tallies]


def _stacked_values(pending, states, tallies, per_call, ansatz) -> list:
    """The energies of the pending vectors, in request order, each kernel call
    a stack of up to ``per_call`` of the runs' initial states."""
    owners = [i for i, request in pending.items() for _ in request]
    params = [x for request in pending.values() for x in request]
    values = []
    for first in range(0, len(params), per_call):
        rows = owners[first:first + per_call]
        if len(rows) == 1:
            amps = _amplitudes(states[rows[0]], params[first], ansatz)[None]
        else:
            amps = _amplitudes(states[rows], np.array(params[first:first + per_call]), ansatz)
        values += [tallies[i](row) for i, row in zip(rows, np.abs(amps) ** 2)]
    return values


class _Tally:
    """One run's energy measurements, and its most probable basis state at
    the first evaluation of lowest energy (the strict ``<`` of ``_Recorder``)."""

    def __init__(self, energy_vector):
        self.energy_vector = energy_vector
        self.best = np.inf
        self.peak = None

    def __call__(self, probabilities) -> float:
        """The energy of a state's probabilities; one dot product."""
        value = float(probabilities @ self.energy_vector)
        if value < self.best:
            self.best, self.peak = value, int(np.argmax(probabilities))
        return value


def _amplitudes(psi, theta, ansatz, **options):
    return kernels.apply_ansatz_amplitudes(psi, ansatz.n, ansatz.layers, ansatz.ring, theta,
                                           **options)


class _Prefix:
    """One run's initial state and its kept prefix, for unstacked calls.

    ``state`` is the ansatz state after the stages below ``stage``, applied
    with the parameters ``params`` (stage 0: the initial state itself).  The
    run writes into the three state buffers of its batch, ``buffers``: every
    kernel call writes into the two that do not hold ``state``, and a carried
    prefix becomes ``state`` in place.
    """

    def __init__(self, psi0, ansatz, buffers):
        self.psi0 = psi0
        self.ansatz = ansatz
        self.stage_count, self.param_stage = kernels.ansatz_stages(
            ansatz.n, ansatz.layers, ansatz.ring)
        self._buffers = buffers
        self._reset()

    def _reset(self):
        self.params, self.stage, self.state = None, 0, self.psi0

    def _free(self) -> tuple:
        """The two buffers that do not hold ``state``."""
        return tuple(b for b in self._buffers if b is not self.state)[:2]

    def _shared(self, a, b) -> int:
        """The number of leading stages on which ``a`` and ``b`` agree, bit for bit."""
        differ = self.param_stage[a.view(np.int64) != b.view(np.int64)]
        return int(differ.min()) if differ.size else self.stage_count

    def values(self, request, tally) -> list:
        """The energies of the vectors of ``request``, in order.

        Starts from the kept prefix when every vector agrees with it on the
        stages below it, else from the initial state.  When the vectors
        first differ past that start, the prefix is first carried forward
        to there, with the first vector's parameters.  Each state is
        measured before the next call overwrites it: its probabilities go
        into the float64 view of the free buffer the kernel did not return.
        """
        xs = [np.asarray(x, dtype=np.float64) for x in request]
        if self.stage and min(self._shared(self.params, x) for x in xs) < self.stage:
            self._reset()
        split = min((self._shared(xs[0], x) for x in xs[1:]), default=0)
        if self.stage < split < self.stage_count:
            self.state = _amplitudes(self.state, xs[0], self.ansatz, start=self.stage,
                                     stop=split, buffers=self._free())
            # a copy: a search may reuse the memory of the vectors it asked for
            self.params, self.stage = xs[0].copy(), split
        free = self._free()
        values = []
        for x in xs:
            amps = _amplitudes(self.state, x, self.ansatz, start=self.stage, buffers=free)
            idle = free[1] if amps is free[0] else free[0]
            probabilities = idle.view(np.float64)[:amps.size]
            np.abs(amps, out=probabilities)
            np.square(probabilities, out=probabilities)
            values.append(tally(probabilities))
        return values


def _trace(init, seed, result, peak, ansatz, ground_energy, target_tol) -> VqeTrace:
    converged = (
        ground_energy is not None
        and abs(result.best_value - ground_energy) <= target_tol
    )
    iterations = None
    if converged:
        hits = np.flatnonzero(
            np.abs(np.asarray(result.history) - ground_energy) <= target_tol
        )
        iterations = int(hits[0])
    return VqeTrace(
        initial_label=init.label(),
        seed=seed,
        energies=list(result.history),
        final_energy=result.best_value,
        final_parameters=[float(p) for p in result.best_params],
        best_bitstring=layouts.bits_to_string(layouts.index_to_bits(peak, ansatz.n)),
        converged=converged,
        n_evaluations=result.n_evaluations,
        iterations_to_convergence=iterations,
    )
