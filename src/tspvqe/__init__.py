"""TSP-to-Ising encodings, penalty audits, MUB landscapes, and VQE simulation."""

from .dqes import Landscape, LandscapeRecord, best_k, compute_landscape, run_experiment
from .encoder import (
    PseudoBooleanPolynomial,
    audit_penalties,
    encode_cycle_hamiltonian,
    encode_efficient,
    encode_fixed_start,
    encode_tsp_hamiltonian,
    fix_variables,
    suggest_penalties,
)
from .errors import ParseError, SizeCapError, TspVqeError, ValidationError
from .graph import ProblemInstance, is_complete, load_instance, save_instance
from .ising import IsingPolynomial, energy_of_bitstring, ground_states, to_ising
from .oracle import Tour, solve_exact_tsp, validate_bitstring
from .quantum import MubLibrary, QuantumState, build_mubs_3q, embed_state, expectation
from .vqe import (
    AnsatzConfig,
    MubInit,
    OptimizerConfig,
    RandomInit,
    VqeTrace,
    ZerosInit,
    apply_ansatz,
    optimize,
    run_vqe,
)

__version__ = "0.1.0"

__all__ = [
    "AnsatzConfig",
    "IsingPolynomial",
    "Landscape",
    "LandscapeRecord",
    "MubInit",
    "MubLibrary",
    "OptimizerConfig",
    "ParseError",
    "ProblemInstance",
    "PseudoBooleanPolynomial",
    "QuantumState",
    "RandomInit",
    "SizeCapError",
    "Tour",
    "TspVqeError",
    "ValidationError",
    "VqeTrace",
    "ZerosInit",
    "apply_ansatz",
    "audit_penalties",
    "best_k",
    "build_mubs_3q",
    "compute_landscape",
    "embed_state",
    "encode_cycle_hamiltonian",
    "encode_efficient",
    "encode_fixed_start",
    "encode_tsp_hamiltonian",
    "fix_variables",
    "energy_of_bitstring",
    "expectation",
    "ground_states",
    "is_complete",
    "load_instance",
    "optimize",
    "run_experiment",
    "run_vqe",
    "save_instance",
    "solve_exact_tsp",
    "suggest_penalties",
    "to_ising",
    "validate_bitstring",
]
