"""Partial-DQES landscape: score every embedded 3-qubit MUB state, pick the
best k as VQE starting points, and run comparison experiments.

For an n-qubit diagonal Hamiltonian the landscape holds C(n,3) * 72 records:
all qubit triples (lexicographic) x 9 bases x 8 elements, with the
non-selected qubits at |0>.  Records keep a deterministic order, so ranks
and best-k selections are stable across runs and platforms.  The landscape
is computed on whole arrays (one energy gather and one contraction per
Hamiltonian); records are built only when they are read.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import oracle
from .encoder import encode_efficient
from .errors import SizeCapError, ValidationError
from .graph import ProblemInstance
from .ising import IsingPolynomial, ground_states, to_ising
from .quantum import build_mubs_3q
from .rationals import rational_to_json
from .vqe import AnsatzConfig, MubInit, OptimizerConfig, RandomInit, ZerosInit, run_lockstep

LANDSCAPE_QUBIT_CAP = 24
MODES = ("zeros", "best_mubs", "random")
_RECORDS_PER_TRIPLE = 72  # 9 bases x 8 elements

# run i of an experiment uses seed*_SEED_STRIDE + 2i for the optimizer and
# seed*_SEED_STRIDE + 2i + 1 for its random initial state (when applicable)
_SEED_STRIDE = 100003

# bit k of support m selects the k-th qubit of a triple: (3 bits, 8 supports)
_SUPPORT_BITS = (np.arange(8) >> np.arange(3)[:, None]) & 1
# the ",basis,element," cells of one triple's rows, in record order
_BASIS_ELEMENT_CELLS = tuple(f",{b},{e}," for b in range(9) for e in range(8))


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


def compute_landscape(ising: IsingPolynomial, mubs=None, cap: int = LANDSCAPE_QUBIT_CAP):
    """Energies of all embedded MUB states, as a ``Landscape`` in record order.

    ``cap`` can lower the 24-qubit limit but not raise it.
    """
    n = ising.n
    if n < 3:
        raise ValidationError("partial-DQES needs at least 3 qubits")
    cap = min(cap, LANDSCAPE_QUBIT_CAP)
    if n > cap:
        raise SizeCapError(f"landscape capped at {cap} qubits, got {n}")
    mubs = mubs or build_mubs_3q()
    probs = np.abs(np.array(mubs.bases)) ** 2  # (9 bases, 8 elements, 8 supports)
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


def landscape_csv_rows(landscape: Landscape):
    """The landscape CSV: the header line, then one 72-line chunk per triple."""
    yield "index,positions,basis,element,energy\n"
    for t, triple in enumerate(landscape.triples.tolist()):
        pos = "-".join(map(str, triple))
        start = t * _RECORDS_PER_TRIPLE
        energies = landscape.energies[start:start + _RECORDS_PER_TRIPLE].tolist()
        yield "".join(
            f"{start + j},{pos}{cells}{energy!r}\n"
            for j, (cells, energy) in enumerate(zip(_BASIS_ELEMENT_CELLS, energies))
        )


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
    ansatz: AnsatzConfig | None = None,
    optimizer: OptimizerConfig | None = None,
    convergence_tol: float = 1e-6,
    threads: int = 1,
) -> ExperimentReport:
    """Encode (efficient layout), run a VQE batch, certify against the oracle.

    Modes: ``zeros`` (single run), ``best_mubs`` (k lowest landscape states),
    ``random`` (k seeded product states).
    """
    if mode not in MODES:
        raise ValidationError(f"unknown experiment mode {mode!r}")
    if mode == "random" and k < 1:
        raise ValidationError(f"k must be at least 1, got {k}")
    if convergence_tol < 0:
        raise ValidationError(f"convergence_tol must be >= 0, got {convergence_tol}")
    ising = to_ising(encode_efficient(instance))
    ansatz = ansatz or AnsatzConfig(n=ising.n)
    optimizer = optimizer or OptimizerConfig(method="rotation_descent")
    ground_exact, _ = ground_states(ising)
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
        # one contiguous part of the runs per worker, each run in lockstep
        size = -(-len(starts) // threads)
        jobs = [
            (ising, starts[first:first + size], ansatz, optimizer, ground, convergence_tol)
            for first in range(0, len(starts), size)
        ]
        with ProcessPoolExecutor(max_workers=threads) as pool:
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
        oracle.validate_bitstring(instance, "efficient", t.best_bitstring).to_dict()
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
            "ansatz": {
                "n": ansatz.n,
                "layers": ansatz.layers,
                "entangler": ansatz.entangler,
                "parameter_count": ansatz.parameter_count,
            },
            "optimizer": {
                "method": optimizer.method,
                "rho_start": optimizer.rho_start,
                "rho_end": optimizer.rho_end,
                "max_evals": optimizer.max_evals,
                "attempt_sweeps": optimizer.attempt_sweeps,
                "restart_jitter": optimizer.restart_jitter,
            },
            "threads": threads,
        },
    )
