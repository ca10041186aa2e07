"""Per-layer tracing of tspvqe from outside the package.

``Tracer.install()`` replaces the public functions of each layer with timing
wrappers at every place they are looked up: the defining module and every
module that bound the name with ``from ... import``.  ``uninstall()`` puts
the originals back.  Each call is a span; a span's self time is its
duration minus the time of the spans it called, so the self times of all
spans add up to the time spent inside traced calls.  Nothing here edits the
package's source.

Layers are the package's modules.  ``layouts`` and ``rationals`` are not
wrapped: their time counts in their callers.  ``Tracer.unwrapped()`` lists
any module-level name still bound to an original after ``install()``, so a
``from ... import`` site missing from ``TARGETS`` is reported, not silently
counted in its caller's layer.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

LAYERS = ("graph", "encoder", "ising", "kernels", "oracle", "quantum", "dqes", "vqe", "cli")

_ENCODERS = (
    "encode_cycle_hamiltonian",
    "encode_efficient",
    "encode_fixed_start",
    "encode_tsp_hamiltonian",
)

# span name -> every (module, attribute path) through which it is called
TARGETS = {
    "cli.main": [("cli", "main")],
    "graph.load_instance": [("graph", "load_instance"), ("cli", "load_instance")],
    **{
        f"encoder.{name}": [("encoder", name), ("cli", name)]
        + ([("dqes", name)] if name == "encode_efficient" else [])
        for name in _ENCODERS
    },
    "encoder.audit_penalties": [("encoder", "audit_penalties"), ("cli", "audit_penalties")],
    "encoder.suggest_penalties": [("encoder", "suggest_penalties"), ("cli", "suggest_penalties")],
    "ising.to_ising": [("ising", "to_ising"), ("dqes", "to_ising")],
    "ising.spectrum": [("ising", "spectrum")],
    "ising.ground_states": [("ising", "ground_states"), ("dqes", "ground_states")],
    "ising.energy_float_vector": [("ising", "IsingPolynomial.energy_float_vector")],
    "ising.energies_at": [("ising", "IsingPolynomial.energies_at")],
    "kernels.enumerate_bit_energies": [("kernels", "enumerate_bit_energies")],
    "kernels.enumerate_spin_energies": [("kernels", "enumerate_spin_energies")],
    "kernels.spin_energies_at": [("kernels", "spin_energies_at")],
    "kernels.apply_ansatz_amplitudes": [("kernels", "apply_ansatz_amplitudes")],
    "oracle.solve_exact_tsp": [("oracle", "solve_exact_tsp")],
    "oracle.validate_bitstring": [("oracle", "validate_bitstring")],
    "quantum.build_mubs_3q": [
        ("quantum", "build_mubs_3q"), ("dqes", "build_mubs_3q"), ("vqe", "build_mubs_3q"),
    ],
    "quantum.embed_state": [("quantum", "embed_state"), ("vqe", "embed_state")],
    "dqes.compute_landscape": [("dqes", "compute_landscape")],
    "dqes.best_k": [("dqes", "best_k")],
    "dqes.run_experiment": [("dqes", "run_experiment")],
    "vqe.run_vqe": [("vqe", "run_vqe"), ("dqes", "run_vqe")],
    "vqe.optimize": [("vqe", "optimize")],
    "vqe.apply_ansatz": [("vqe", "apply_ansatz")],
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and counts, kept in memory for one traced pass."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.root_s = 0.0
        self.run_s_max = 0.0
        self.encode_s = 0.0  # outermost encoder.encode_* spans only
        self._stack = []  # [span name, time spent in child spans]
        self._saved = []

    # -- wrapping -----------------------------------------------------------

    def install(self):
        """Wrap every target; return the sites that no longer exist."""
        missing = []
        for name, sites in TARGETS.items():
            for module_name, attr in sites:
                owner = importlib.import_module(f"tspvqe.{module_name}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, leaf, None)
                if original is None:
                    missing.append(f"tspvqe.{module_name}.{attr}")
                    continue
                self._saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(name, original))
        return missing

    def unwrapped(self):
        """``module.name`` of every layer binding that escaped ``install()``."""
        originals = {id(original) for _, _, original in self._saved}  # kept alive there
        found = []
        for module_name in (*LAYERS, "layouts", "rationals"):
            module = importlib.import_module(f"tspvqe.{module_name}")
            for attr, value in vars(module).items():
                if id(value) in originals:
                    found.append(f"tspvqe.{module_name}.{attr}")
        return found

    def uninstall(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)

        return traced

    def _span(self, name, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else None
        frame = [name, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += duration
            else:
                self.root_s += duration
            self.total[name] += duration
            self.self_time[name] += duration - frame[1]
            self.calls[name] += 1
        self._count(name, parent, args, kwargs, result, duration)
        return result

    def _count(self, name, parent, args, kwargs, result, duration):
        """Work counters, taken where the work happens."""
        c = self.counts
        if name == "kernels.apply_ansatz_amplitudes":
            n = _arg(args, kwargs, 1, "n")
            layers = _arg(args, kwargs, 2, "layers")
            ring = _arg(args, kwargs, 3, "ring")
            gates = layers * (2 * n + (n if ring else n - 1)) + 2 * n
            c["ansatz_amp_gates"] += gates << n
        elif name in ("kernels.enumerate_spin_energies", "kernels.enumerate_bit_energies"):
            c["enum_states"] += 1 << _arg(args, kwargs, 0, "n")
        elif name == "dqes.compute_landscape":
            c["landscape_records"] += len(result)
        elif name.startswith("encoder.encode_") and not (parent or "").startswith("encoder.encode_"):
            c["terms"] += len(result.linear) + len(result.quadratic)
            self.encode_s += duration
        elif name == "vqe.run_vqe":
            c["evals"] += result.n_evaluations
            if result.converged:
                c["useful_evals"] += result.iterations_to_convergence + 1
            self.run_s_max = max(self.run_s_max, duration)

    # -- per-layer metrics ----------------------------------------------------

    def layer_self_s(self):
        out = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_time.items():
            out[name.split(".", 1)[0]] += value
        return out

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        t, s, n, c = self.total, self.self_time, self.calls, self.counts
        ansatz_s = t["kernels.apply_ansatz_amplitudes"]
        enum_s = t["kernels.enumerate_spin_energies"] + t["kernels.enumerate_bit_energies"]
        evals = c["evals"]
        out = {
            "kernels.ansatz_s": (ansatz_s, "s"),
            "kernels.ansatz_calls": (n["kernels.apply_ansatz_amplitudes"], "count"),
            "kernels.ansatz_ns_per_amp_gate": (
                ansatz_s * 1e9 / c["ansatz_amp_gates"] if c["ansatz_amp_gates"] else 0.0, "ns"),
            # complex128 read + write per amplitude per gate; computed, not measured
            "kernels.ansatz_bytes_computed": (c["ansatz_amp_gates"] * 16 * 2, "B"),
            "kernels.enum_s": (enum_s, "s"),
            "kernels.enum_states": (c["enum_states"], "count"),
            "kernels.enum_ns_per_state": (
                enum_s * 1e9 / c["enum_states"] if c["enum_states"] else 0.0, "ns"),
            "kernels.energies_at_s": (t["kernels.spin_energies_at"], "s"),
            "vqe.optimize_self_s": (s["vqe.optimize"], "s"),
            "vqe.evals": (evals, "count"),
            "vqe.run_s_max": (self.run_s_max, "s"),
            "vqe.useful_eval_ratio": (c["useful_evals"] / evals if evals else 0.0, "ratio"),
            "ising.to_ising_s": (t["ising.to_ising"], "s"),
            "ising.spectrum_self_s": (s["ising.spectrum"], "s"),
            "ising.ground_states_s": (t["ising.ground_states"], "s"),
            "oracle.solve_s": (t["oracle.solve_exact_tsp"], "s"),
            "oracle.validate_s": (t["oracle.validate_bitstring"], "s"),
            "oracle.validate_calls": (n["oracle.validate_bitstring"], "count"),
            "dqes.landscape_s": (t["dqes.compute_landscape"], "s"),
            "dqes.landscape_records": (c["landscape_records"], "count"),
            "dqes.experiment_self_s": (s["dqes.run_experiment"], "s"),
            "encoder.encode_s": (self.encode_s, "s"),
            "encoder.terms": (c["terms"], "count"),
            "encoder.audit_self_s": (s["encoder.audit_penalties"], "s"),
            "graph.load_s": (t["graph.load_instance"], "s"),
            "quantum.mub_build_s": (t["quantum.build_mubs_3q"], "s"),
        }
        # cli.self_s (argparse, file I/O, JSON/CSV output) is the cli layer's
        # self time, since cli.main is its only span
        for layer, value in self.layer_self_s().items():
            out[f"{layer}.self_s"] = (value, "s")
        return out
