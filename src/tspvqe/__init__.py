"""TSP-to-Ising encodings, penalty audits, MUB landscapes, and VQE simulation.

The public names are listed once, in ``_EXPORTS``, by their home module.
Importing the package loads none of those modules (and so no numpy): a
name's module is imported when the name is first read, and the name is then
bound here, so the next read is a plain lookup.  ``from tspvqe import
build_mubs_3q`` loads ``tspvqe.quantum`` alone.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "dqes": ("Landscape", "LandscapeRecord", "best_k", "compute_landscape", "run_experiment"),
    "encoder": (
        "PseudoBooleanPolynomial",
        "audit_penalties",
        "encode_cycle_hamiltonian",
        "encode_efficient",
        "encode_fixed_start",
        "encode_tsp_hamiltonian",
        "suggest_penalties",
    ),
    "errors": ("ParseError", "SizeCapError", "TspVqeError", "ValidationError"),
    "graph": ("ProblemInstance", "load_instance", "save_instance"),
    "ising": ("IsingPolynomial", "ground_states", "to_ising"),
    "oracle": ("Tour", "solve_exact_tsp", "validate_bitstring"),
    "quantum": ("build_mubs_3q",),
    "vqe": ("AnsatzConfig", "MubInit", "RandomInit", "VqeTrace", "ZerosInit"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
