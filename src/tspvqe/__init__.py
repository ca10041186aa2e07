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
from .graph import ProblemInstance, load_instance, save_instance
from .ising import IsingPolynomial, ground_states, to_ising
from .oracle import Tour, solve_exact_tsp, validate_bitstring
from .quantum import MubLibrary, build_mubs_3q
from .vqe import AnsatzConfig, MubInit, OptimizerConfig, RandomInit, VqeTrace, ZerosInit

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
    "RandomInit",
    "SizeCapError",
    "Tour",
    "TspVqeError",
    "ValidationError",
    "VqeTrace",
    "ZerosInit",
    "audit_penalties",
    "best_k",
    "build_mubs_3q",
    "compute_landscape",
    "encode_cycle_hamiltonian",
    "encode_efficient",
    "encode_fixed_start",
    "encode_tsp_hamiltonian",
    "fix_variables",
    "ground_states",
    "load_instance",
    "run_experiment",
    "save_instance",
    "solve_exact_tsp",
    "suggest_penalties",
    "to_ising",
    "validate_bitstring",
]
