"""Partial-DQES landscape: score every embedded 3-qubit MUB state, pick the
best k as VQE starting points, and run comparison experiments.

For an n-qubit diagonal Hamiltonian the landscape holds C(n,3) * 72 records:
all qubit triples (lexicographic) x 9 bases x 8 elements, with the
non-selected qubits at |0>.  Every element of bases 1-8 has overlap 1/8 with
each of its triple's 8 support states, so the 64 records of bases 1-8 of a
triple share one energy, and the landscape is held as one row of nine
entries per triple: the 8 elements of basis 0, then that shared one.  Each
energy is an exact rational, computed from integer keys with no float
contraction, so ranks and best-k selections follow the exact (energy,
record index) order on every platform.  Records are built only when they
are read.  The CSV is rendered as bytes by ``ising.render_rows``.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import kernels, layouts, oracle
from .encoder import spin_form
from .errors import SizeCapError, ValidationError
from .graph import ProblemInstance
from .ising import IsingPolynomial, cell_table, join_cells, render_rows
from .layouts import MODES
from .vqe import (
    CONVERGENCE_TOL,
    OPTIMIZER,
    AnsatzConfig,
    MubInit,
    RandomInit,
    ZerosInit,
    _is_int,
    run_lockstep,
    runs_alone,
)

LAYOUT = "efficient"  # of an experiment's Ising form, landscape and ansatz
_RECORDS_PER_TRIPLE = 72  # 9 bases x 8 elements

# run i of an experiment uses seed*_SEED_STRIDE + 2i for the optimizer and
# seed*_SEED_STRIDE + 2i + 1 for its random initial state (when applicable)
_SEED_STRIDE = 100003

# the table column of each of a triple's 72 records: element e of basis 0 is
# column e, and the 64 records of bases 1-8 are column 8
_RECORD_COLUMN = np.minimum(np.arange(_RECORDS_PER_TRIPLE), 8)
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
    """The landscape records of one Hamiltonian, held as read-only tables.

    ``triples`` is the (C(n,3), 3) table of qubit triples.  ``energy_table``
    and ``rank_table`` are (C(n,3), 9) tables of the energies and their dense
    ranks: column e < 8 of row t is element e of basis 0 on triple t, and
    column 8 stands for the 64 records of bases 1-8 on it, which share one
    energy.  Record i embeds element i % 8 of basis i // 8 % 9 on triple
    i // 72; indexing builds that ``LandscapeRecord`` on demand, and a slice
    gives a list of them.
    """

    triples: np.ndarray
    energy_table: np.ndarray
    rank_table: np.ndarray

    def __post_init__(self):
        shape = (len(self.triples), 9)
        if not self.energy_table.shape == self.rank_table.shape == shape:
            raise ValidationError(f"landscape tables must have shape {shape}, got "
                                  f"{self.energy_table.shape} and {self.rank_table.shape}")
        for array in (self.triples, self.energy_table, self.rank_table):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.triples) * _RECORDS_PER_TRIPLE

    def __getitem__(self, i):
        picked = range(len(self))[i]
        if isinstance(picked, range):
            return [self[j] for j in picked]
        triple, basis_element = divmod(picked, _RECORDS_PER_TRIPLE)
        column = _RECORD_COLUMN[basis_element]
        return LandscapeRecord(
            index=picked,
            positions=tuple(self.triples[triple].tolist()),
            basis=basis_element // 8,
            element=basis_element % 8,
            energy=float(self.energy_table[triple, column]),
            rank=int(self.rank_table[triple, column]),
        )


def landscape_size(n: int) -> int:
    """The record count of the landscape on ``n`` qubits, C(n,3) * 72; the
    landscape needs at least 3 qubits."""
    if n < 3:
        raise ValidationError(f"partial-DQES needs at least 3 qubits, got {n}")
    return math.comb(n, 3) * _RECORDS_PER_TRIPLE


def _check_k(k: int, records: int):
    """Refuse a best-MUB ``k`` that is not an int in 1..``records``, the
    records of its landscape."""
    if not _is_int(k):
        raise ValidationError(f"k must be an int, got {k!r}")
    if not 1 <= k <= records:
        raise ValidationError(f"k must be in 1..{records}, got {k}")


def compute_landscape(ising: IsingPolynomial):
    """Energies of all embedded MUB states, as a ``Landscape`` of one row of
    nine entries per triple.

    Each energy is its key over 8 x scale, correctly rounded.  The key is 8
    x E of support state e for basis 0 element e (column e), and the sum of
    the triple's 8 support energies for bases 1-8 (column 8); ranks are the
    dense ranks of the 9 x C(n,3) keys.  The support energies are scaled
    ints from the coefficients of ``to_int_arrays``, each triple's 8 by the
    enumeration kernel's recurrence on its 3 spins alone, so no 2^n vector
    is built.  Keys are int64 while 8 x scale and each support energy are
    below 2^50 (keys below 2^53 divide exactly), else Python ints.  A form
    above ``layouts.SPIN_CAP`` spins is refused before its C(n,3) qubit
    triples are built.
    """
    n = ising.n
    landscape_size(n)
    layouts.check_spins(n, "landscape")
    triples = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), 3)), dtype=np.int64
    ).reshape(-1, 3)
    scale, *coefficients = ising.to_int_arrays()
    denominator = 8 * scale  # of every key
    # (triples, 8): support m sets qubit k of its triple for each bit k of m
    support = kernels.enumerate_spin_energies(n, *coefficients, spins=triples)
    if max(denominator, int(np.abs(support).max())) >= 1 << 50:
        support = support.astype(object)
    keys = np.empty((len(triples), 9), dtype=support.dtype)
    keys[:, :8] = 8 * support
    keys[:, 8] = support.sum(axis=1)
    ranks = np.searchsorted(_distinct(keys.reshape(-1)), keys)
    return Landscape(triples, (keys / denominator).astype(np.float64, copy=False), ranks)


def best_k(landscape: Landscape, k: int):
    """The k lowest-energy records, in exact (energy, record index) order.

    The table's entries in stable rank order give that order: the records
    of an entry are contiguous, and the 64 of a triple's column 8 come after
    its basis-0 ones.  Each column-8 entry is expanded into its 64 records
    until there are k.  The ranks are sorted in the smallest unsigned type
    that holds them: below 2^16, numpy's stable sort is then a radix sort,
    in the same order as on the int64 table.
    """
    _check_k(k, len(landscape))
    ranks = landscape.rank_table
    # every entry holds at least one record, so the first k entries hold the k
    entries = np.argsort(ranks.astype(np.min_scalar_type(ranks.max())), axis=None,
                         kind="stable")[:k]
    triple, column = np.divmod(entries, 9)
    first = (triple * _RECORDS_PER_TRIPLE + column).tolist()
    records = itertools.chain.from_iterable(
        range(f, f + (64 if c == 8 else 1)) for f, c in zip(first, column.tolist()))
    return [landscape[i] for i in itertools.islice(records, k)]


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
    an int64 or Python-int array, in a quarter of its time with numpy 2.4."""
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
    energy, whose ``repr`` is rendered once per distinct float64 bit pattern
    of the energy table, and whose cells are expanded from the table one
    block at a time.
    """
    yield b"index,positions,basis,element,energy\n"
    bits = landscape.energy_table.view(np.int64)
    patterns = _distinct(bits.reshape(-1))
    energy_cells = cell_table([b"%r\n" % e for e in patterns.view(np.float64).tolist()])[
        np.searchsorted(patterns, bits)]  # (triples, 9), the cells of the energy table
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
        spanned = slice(triple, triple - (-(phase + rows) // _RECORDS_PER_TRIPLE))
        positions = np.repeat(position_cells[spanned], _RECORDS_PER_TRIPLE)
        energies = energy_cells[spanned, _RECORD_COLUMN].reshape(-1)
        yield render_rows(index + [positions[phase:phase + rows], basis_cells[phase:phase + rows],
                                   energies[phase:phase + rows]])


# -- experiments ---------------------------------------------------------------


@dataclass
class ExperimentReport:
    """VQE batch results plus the classical ground truth they are judged by.

    ``oracle_tours`` holds the visiting orders of the optimal tours, and
    ``decoded_tours`` the decoding of each trace's best bitstring, a
    ``Tour`` or a ``ViolationReport``.
    """

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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(
    instance: ProblemInstance,
    mode: str,
    k: int = 10,
    seed: int = 0,
    layers: int = 2,
    entangler: str = "linear_rzz",
    max_evals: int = 2000,
    threads: int = 1,
) -> ExperimentReport:
    """Encode in ``LAYOUT``, run a VQE batch, certify against the oracle.

    The ansatz has ``layers`` layers of ``entangler`` on one qubit per spin
    of ``LAYOUT``, counted from the node count.  Each run is rotation
    descent of at most ``max_evals`` evaluations, at the settings of
    ``vqe.OPTIMIZER``, and converges within ``CONVERGENCE_TOL`` (relative)
    of the ground energy.  Runs are decoded in the Ising form's own layout.
    An instance too small for ``LAYOUT`` (one node), an invalid ansatz, a
    ``k``, ``seed``, ``max_evals`` or ``threads`` that is not an int, a
    ``k`` below 1 (for ``best_mubs``, one outside 1..C(n,3) * 72, the
    landscape's records), a negative seed, a ``max_evals`` or ``threads``
    below 1, or a batch that would record more than ``layouts.RECORD_CAP``
    numbers (each run's history and parameters: runs x (max_evals +
    parameter count), ``SizeCapError``) is refused before anything is
    encoded.  Numbers are stored as plain ints, so the report can be
    written as JSON.

    Modes: ``zeros`` (single run), ``best_mubs`` (k lowest landscape states),
    ``random`` (k seeded product states).  ``threads`` caps the worker
    processes: from 14 qubits up (``runs_alone``: one run at a time) the
    batch runs here, on BLAS threads, else in ``min(threads, usable CPUs, runs)``
    contiguous parts, a worker each from two up; the traces are the same.
    """
    layouts.lookup(LAYOUT, nodes=instance.node_count)
    n = layouts.variable_count(LAYOUT, instance.node_count)
    ansatz = AnsatzConfig(n=n, layers=layers, entangler=entangler)
    if mode not in MODES:
        raise ValidationError(f"unknown experiment mode {mode!r}")
    for name, value in (("k", k), ("seed", seed), ("max_evals", max_evals),
                        ("threads", threads)):
        if not _is_int(value):
            raise ValidationError(f"{name} must be an int, got {value!r}")
    # a numpy int would reach the report
    k, seed, max_evals, threads = int(k), int(seed), int(max_evals), int(threads)
    if mode != "zeros" and k < 1:
        raise ValidationError(f"k must be at least 1, got {k}")
    if mode == "best_mubs":
        _check_k(k, landscape_size(n))
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    if max_evals < 1:
        raise ValidationError(f"max_evals must be at least 1, got {max_evals}")
    if threads < 1:
        raise ValidationError(f"threads must be at least 1, got {threads}")
    runs = 1 if mode == "zeros" else k
    recorded = runs * (max_evals + ansatz.parameter_count)
    if recorded > layouts.RECORD_CAP:
        raise SizeCapError(f"a VQE batch is capped at {layouts.RECORD_CAP} recorded numbers, "
                           f"got {runs} runs x ({max_evals} evaluations + "
                           f"{ansatz.parameter_count} parameters) = {recorded}")
    ising = spin_form(instance, LAYOUT, "vqe")
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
    run = functools.partial(run_lockstep, ising, ansatz=ansatz, max_evals=max_evals,
                            ground_energy=ground)
    # a forked worker keeps every BLAS thread it inherits, so a batch whose
    # kernel calls run on BLAS threads stays in this process
    workers = 1 if runs_alone(n) else min(threads, _usable_cpus(), len(starts))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only this branch pays its import

        # one contiguous part of the runs per worker, each run in lockstep
        size = -(-len(starts) // workers)
        parts = [starts[first:first + size] for first in range(0, len(starts), size)]
        with ProcessPoolExecutor(max_workers=len(parts)) as pool:
            traces = [trace for part in pool.map(run, parts) for trace in part]
    else:
        traces = run(starts)

    converged = [t for t in traces if t.converged]
    mean_iters = (
        float(np.mean([t.iterations_to_convergence for t in converged]))
        if converged
        else None
    )
    return ExperimentReport(
        mode=mode,
        k=len(inits),
        seed=seed,
        n_qubits=ising.n,
        ground_energy=ground,
        ground_energy_exact=ground_exact,
        oracle_cost=oracle_cost,
        oracle_tours=tuple(t.order for t in oracle_tours),
        convergence_tol=CONVERGENCE_TOL,
        traces=traces,
        converged_count=len(converged),
        n_runs=len(traces),
        mean_iterations_to_convergence=mean_iters,
        decoded_tours=[oracle.validate_bitstring(instance, ising.layout, t.best_bitstring)
                       for t in traces],
        config={
            "ansatz": {**asdict(ansatz), "parameter_count": ansatz.parameter_count},
            "optimizer": {**OPTIMIZER, "max_evals": max_evals},
            "threads": threads,
        },
    )
