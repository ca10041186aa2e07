"""Partial-DQES landscape: score every embedded 3-qubit MUB state, pick the
best k as VQE starting points, and run comparison experiments.

For an n-qubit diagonal Hamiltonian the landscape holds C(n,3) * 72 records:
all qubit triples (lexicographic) x 9 bases x 8 elements, with the
non-selected qubits at |0>.  Records keep a deterministic order, so ranks
and best-k selections are stable across runs and platforms.  The landscape
is computed on whole arrays (one energy gather and one contraction per
Hamiltonian); records are built only when they are read.  The CSV is
rendered as bytes by ``ising.render_rows``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import layouts, oracle
from .encoder import spin_form
from .errors import ValidationError
from .graph import ProblemInstance
from .ising import IsingPolynomial, cell_table, join_cells, render_rows
from .quantum import build_mubs_3q
from .rationals import rational_to_json
from .vqe import (
    ATTEMPT_SWEEPS,
    RESTART_JITTER,
    AnsatzConfig,
    MubInit,
    OptimizerConfig,
    RandomInit,
    ZerosInit,
    run_lockstep,
)

MODES = ("zeros", "best_mubs", "random")
LAYOUT = "efficient"  # of an experiment's Ising form, landscape and ansatz
_RECORDS_PER_TRIPLE = 72  # 9 bases x 8 elements

# run i of an experiment uses seed*_SEED_STRIDE + 2i for the optimizer and
# seed*_SEED_STRIDE + 2i + 1 for its random initial state (when applicable)
_SEED_STRIDE = 100003

# bit k of support m selects the k-th qubit of a triple: (3 bits, 8 supports)
_SUPPORT_BITS = (np.arange(8) >> np.arange(3)[:, None]) & 1
# the ",basis,element," cells of one triple's rows, in record order
_BASIS_ELEMENT_CELLS = tuple(f",{b},{e}," for b in range(9) for e in range(8))
# rows rendered at a time by the landscape CSV writer: it divides 10^4, so the
# indices of a block share their digits above the last four, and a block's
# buffers stay a few hundred KB
_BLOCK_ROWS = 2500


@dataclass(frozen=True)
class LandscapeRecord:
    index: int
    positions: tuple
    basis: int
    element: int
    energy: float
    rank: int


@dataclass(frozen=True, eq=False)
class Landscape(Sequence):
    """The landscape records of one Hamiltonian, held as read-only arrays.

    ``triples`` is the (C(n,3), 3) table of qubit triples; ``energies`` and
    ``ranks`` hold one entry per record.  Record i embeds element i % 8 of
    basis i // 8 % 9 on triple i // 72; indexing builds that
    ``LandscapeRecord`` on demand, and a slice gives a list of them.
    """

    triples: np.ndarray
    energies: np.ndarray
    ranks: np.ndarray

    def __post_init__(self):
        for array in (self.triples, self.energies, self.ranks):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.energies)

    def __getitem__(self, i):
        picked = range(len(self.energies))[i]
        if isinstance(picked, range):
            return [self[j] for j in picked]
        triple, basis_element = divmod(picked, _RECORDS_PER_TRIPLE)
        return LandscapeRecord(
            index=picked,
            positions=tuple(self.triples[triple].tolist()),
            basis=basis_element // 8,
            element=basis_element % 8,
            energy=float(self.energies[picked]),
            rank=int(self.ranks[picked]),
        )


def compute_landscape(ising: IsingPolynomial):
    """Energies of all embedded MUB states, as a ``Landscape`` in record order.

    A form above ``layouts.SPIN_CAP`` spins is refused before its C(n,3)
    qubit triples are built.
    """
    n = ising.n
    if n < 3:
        raise ValidationError("partial-DQES needs at least 3 qubits")
    layouts.check_spins(n, "landscape")
    probs = np.abs(np.array(build_mubs_3q().bases)) ** 2  # (9 bases, 8 elements, 8 supports)
    triples = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), 3)), dtype=np.int64
    ).reshape(-1, 3)
    support_energies = ising.energies_at((1 << triples) @ _SUPPORT_BITS)
    # einsum adds each row's 8 terms in the order of the OpenBLAS 8x8
    # matrix-vector product per (triple, basis) it replaces, so the energies
    # keep their float bits there; a plain running sum does not
    energies = np.einsum("bes,ts->tbe", probs, support_energies).reshape(-1)
    # dense ascending rank on energies rounded to 1e-9 (merges float noise)
    rounded = np.round(energies, 9)
    ranks = np.searchsorted(np.unique(rounded), rounded)
    return Landscape(triples, energies, ranks)


def best_k(landscape: Landscape, k: int):
    """The k lowest-energy records; ties keep the deterministic record order."""
    if not 1 <= k <= len(landscape):
        raise ValidationError(f"k must be in 1..{len(landscape)}, got {k}")
    return [landscape[i] for i in np.argsort(landscape.energies, kind="stable")[:k]]


def _index_cells():
    """The last four digits of the indices 0-9999 as ``V4`` cells, twice:
    zero-padded ("0042"), for indices of five or more digits, and with zero
    bytes in place of the leading zeros ("42"), for the indices below 10^4."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    padded = np.stack(np.meshgrid(digits, digits, digits, digits, indexing="ij"), axis=-1)
    padded = padded.reshape(-1, 4)
    bare = padded.copy()
    for k, below in enumerate((1000, 100, 10)):
        bare[:below, k] = 0
    return padded.view("V4").ravel(), bare.view("V4").ravel()


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of ``values``, ascending: the ``np.unique`` of
    an int64 array, in a quarter of its time with numpy 2.4."""
    ordered = np.sort(values)
    keep = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def landscape_csv_rows(landscape: Landscape):
    """The landscape CSV as bytes: the header line, then blocks of 2500 rows.

    Row i is ``i,positions,basis,element,energy``, the energy written as its
    ``repr``.  ``ising.render_rows`` renders each block from slices and
    gathers of small tables of zero-padded cells: the index's last four
    digits (a block lies inside one run of 10^4 indices, so the digits above
    them are one cell), the positions (each triple's cell, repeated 72
    times), the basis and element (one period of 72 cells, repeated) and the
    energy, whose ``repr`` is rendered once per distinct float64 bit pattern.
    """
    yield b"index,positions,basis,element,energy\n"
    bits = landscape.energies.view(np.int64)
    patterns = _distinct(bits)
    energy_cells = cell_table([b"%r\n" % e for e in patterns.view(np.float64).tolist()])
    triples = landscape.triples
    qubits = range(int(triples.max(initial=0)) + 1)
    first, other = (cell_table([b"%s%d" % (sep, q) for q in qubits]) for sep in (b",", b"-"))
    position_cells = join_cells([first[triples[:, 0]], other[triples[:, 1]], other[triples[:, 2]]])
    basis_cells = np.tile(cell_table([cells.encode() for cells in _BASIS_ELEMENT_CELLS]),
                          _BLOCK_ROWS // _RECORDS_PER_TRIPLE + 2)
    padded, bare = _index_cells()
    for at in range(0, len(landscape), _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, len(landscape) - at)
        high, low = divmod(at, 10_000)
        index = [bare[low:low + rows]] if not high else [
            np.broadcast_to(cell_table([b"%d" % high]), (rows,)), padded[low:low + rows]]
        triple, phase = divmod(at, _RECORDS_PER_TRIPLE)
        spanned = -(-(phase + rows) // _RECORDS_PER_TRIPLE)
        positions = np.repeat(position_cells[triple:triple + spanned], _RECORDS_PER_TRIPLE)
        level = np.searchsorted(patterns, bits[at:at + rows])
        yield render_rows(index + [positions[phase:phase + rows],
                                   basis_cells[phase:phase + rows], energy_cells[level]])


# -- experiments ---------------------------------------------------------------


@dataclass
class ExperimentReport:
    """VQE batch results plus the classical ground truth they are judged by."""

    mode: str
    k: int
    seed: int
    n_qubits: int
    ground_energy: float
    ground_energy_exact: Fraction
    oracle_cost: Fraction | None
    oracle_tours: tuple
    convergence_tol: float
    traces: list
    converged_count: int
    n_runs: int
    mean_iterations_to_convergence: float | None
    decoded_tours: list
    config: dict

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "k": self.k,
            "seed": self.seed,
            "n_qubits": self.n_qubits,
            "ground_energy": self.ground_energy,
            "ground_energy_exact": rational_to_json(self.ground_energy_exact),
            "oracle_cost": (
                rational_to_json(self.oracle_cost) if self.oracle_cost is not None else None
            ),
            "oracle_tours": [list(t.order) for t in self.oracle_tours],
            "convergence_tol": self.convergence_tol,
            "converged_count": self.converged_count,
            "n_runs": self.n_runs,
            "mean_iterations_to_convergence": self.mean_iterations_to_convergence,
            "decoded_tours": self.decoded_tours,
            "config": self.config,
            "traces": [t.to_dict() for t in self.traces],
        }


def _run_part(args):
    return run_lockstep(*args)


def run_experiment(
    instance: ProblemInstance,
    mode: str,
    k: int = 10,
    seed: int = 0,
    layers: int = 2,
    entangler: str = "linear_rzz",
    optimizer: OptimizerConfig | None = None,
    convergence_tol: float = 1e-6,
    threads: int = 1,
) -> ExperimentReport:
    """Encode in ``LAYOUT``, run a VQE batch, certify against the oracle.

    The ansatz has ``layers`` layers of ``entangler`` on one qubit per spin
    of ``LAYOUT``, counted from the node count.  Runs are decoded in the
    Ising form's own layout.  An invalid ansatz, a negative seed or a
    non-finite ``convergence_tol`` is refused before anything is encoded.

    Modes: ``zeros`` (single run), ``best_mubs`` (k lowest landscape states),
    ``random`` (k seeded product states).
    """
    n = layouts.variable_count(LAYOUT, instance.node_count)
    ansatz = AnsatzConfig(n=n, layers=layers, entangler=entangler)
    if mode not in MODES:
        raise ValidationError(f"unknown experiment mode {mode!r}")
    if mode == "random" and k < 1:
        raise ValidationError(f"k must be at least 1, got {k}")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    if not 0 <= convergence_tol < math.inf:
        raise ValidationError(f"convergence_tol must be finite and >= 0, got {convergence_tol}")
    if threads < 1:
        raise ValidationError(f"threads must be at least 1, got {threads}")
    ising = spin_form(instance, LAYOUT, "vqe")
    optimizer = optimizer or OptimizerConfig(method="rotation_descent")
    # the minimum of the cached energies; no ground bitstring is rendered
    ground_exact = Fraction(int(ising.energy_int_vector().min()), ising.to_int_arrays()[0])
    ground = float(ground_exact)
    oracle_cost, oracle_tours = oracle.solve_exact_tsp(instance)

    if mode == "zeros":
        inits = [ZerosInit()]
    elif mode == "best_mubs":
        inits = [
            MubInit(positions=r.positions, basis=r.basis, element=r.element)
            for r in best_k(compute_landscape(ising), k)
        ]
    else:
        inits = [
            RandomInit(seed=seed * _SEED_STRIDE + 2 * i + 1) for i in range(k)
        ]

    starts = [(init, seed * _SEED_STRIDE + 2 * i) for i, init in enumerate(inits)]
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor  # only this branch pays its import

        # one contiguous part of the runs per worker, each run in lockstep
        size = -(-len(starts) // threads)
        jobs = [
            (ising, starts[first:first + size], ansatz, optimizer, ground, convergence_tol)
            for first in range(0, len(starts), size)
        ]
        # one worker per part: a fork-started pool forks all its workers at once
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            traces = [trace for part in pool.map(_run_part, jobs) for trace in part]
    else:
        traces = run_lockstep(ising, starts, ansatz, optimizer, ground, convergence_tol)

    converged = [t for t in traces if t.converged]
    mean_iters = (
        float(np.mean([t.iterations_to_convergence for t in converged]))
        if converged
        else None
    )
    decoded = [
        oracle.validate_bitstring(instance, ising.layout, t.best_bitstring).to_dict()
        for t in traces
    ]
    return ExperimentReport(
        mode=mode,
        k=len(inits),
        seed=seed,
        n_qubits=ising.n,
        ground_energy=ground,
        ground_energy_exact=ground_exact,
        oracle_cost=oracle_cost,
        oracle_tours=oracle_tours,
        convergence_tol=convergence_tol,
        traces=traces,
        converged_count=len(converged),
        n_runs=len(traces),
        mean_iterations_to_convergence=mean_iters,
        decoded_tours=decoded,
        config={
            "ansatz": {**asdict(ansatz), "parameter_count": ansatz.parameter_count},
            "optimizer": {**asdict(optimizer), "attempt_sweeps": ATTEMPT_SWEEPS,
                          "restart_jitter": RESTART_JITTER},
            "threads": threads,
        },
    )
