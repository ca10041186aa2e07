"""Workloads of the tspvqe benchmark: seeded inputs, command passes, checks.

A pass is a list of CLI invocations (``Op``) whose input files are generated
from ``(workload, seed)``, so the same seed always gives the same inputs; a
run repeats the same pass a fixed number of times.  Every invocation carries a
check of its output against a reference that does not share code with the
program under test (a Held-Karp DP for tour costs, the golden files, row
counts).

Workloads (all closed loop: one process, one command after the other,
``--threads 1``):

* ``paper-n4``: the paper's best-MUB vs random vs zeros comparison (k=10)
  on the shipped 9-qubit instance, at a 300-evaluation budget per run.
  Per-gate call overhead and optimizer Python dominate.
* ``vqe-n5``: a seeded complete 5-node TSP (16 qubits): landscape, then a
  short best-MUB batch.  Every gate is a full pass over 2^16 amplitudes.
* ``certify``: classical only: goldens, all six variant x direction
  combinations at N=4, an N=9 exact solve, and N=5 spectrum, landscape and
  Ising encoding.  No ansatz is evaluated.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter, process_time
from typing import Callable

import tspvqe
from tspvqe import cli

# workload -> its unit of work for ms_per_unit
UNITS = {"paper-n4": "evaluation", "vqe-n5": "evaluation", "certify": "command"}

# workload -> command seconds of one full-size pass on the 2-core machine the
# benchmark was tuned on.  A run of ``--seconds S`` makes round(S / this)
# passes: a count fixed by S alone, so a faster program times the same work
# as a slower one rather than more samples of it.
PASS_SECONDS = {"paper-n4": 4.5, "vqe-n5": 5.0, "certify": 5.5}

# The one failure the program is known to produce today: the exact oracle
# enumerates closed tours for every variant, so ``solve`` reports no solution
# on a path instance that has a Hamiltonian path but no Hamiltonian cycle.
KNOWN_FAILURES = {
    "path-oracle-null": "solve returns null on a solvable hamiltonian_path instance",
}

GOLDEN_CASES = [
    (["solve", "landscape.json"], "landscape_solve.json"),
    (["solve", "counterexample.json"], "counterexample_solve.json"),
    (["audit", "landscape.json"], "landscape_audit.json"),
    (["audit", "counterexample.json"], "counterexample_audit.json"),
    (["audit", "counterexample.json", "--penalties", "safe"], "counterexample_audit_safe.json"),
    (["encode", "landscape.json", "--layout", "efficient", "--form", "ising"],
     "landscape_efficient_ising.json"),
]

# (full size, smoke size); the smoke sizes keep every command kind but run
# in seconds.
_SIZES = {
    "paper_k": (10, 1),
    # a 300-evaluation budget (the CLI default is 2000) keeps a pass to a few
    # seconds, so every run has several passes to take per-command medians over
    "paper_max_evals": (300, 40),
    "n5_k": (2, 1),
    "n5_max_evals": (20, 4),
    "certify_small": (4, 3),
    "certify_solve": (9, 6),
    "certify_medium": (5, 4),
}


@dataclass
class Outcome:
    """What one checked command did: failures and VQE counts."""

    failures: list = field(default_factory=list)  # [(name, message)]
    evals: int = 0
    runs: int = 0
    converged: int = 0

    def fail(self, name: str, message: str):
        self.failures.append((name, message))


@dataclass
class Op:
    """One CLI invocation plus the check of its output file."""

    argv: list
    output: str
    check: Callable[[int, str], Outcome]


@dataclass
class CommandResult:
    kind: str  # the CLI subcommand
    seconds: float  # wall time of cli.main
    cpu_seconds: float  # process CPU time of cli.main, all threads
    outcome: Outcome
    bytes_out: int
    reference_seconds: float = 0.0  # see run_pass


def run_pass(ops, reference=None):
    """Run one pass's commands in order; time each and check its output.

    With ``reference`` (a function that times fixed work and returns its
    seconds), each command is bracketed by a call before and one after, and
    their mean is kept as the command's ``reference_seconds``.
    """
    results = []
    for op in ops:
        before = reference() if reference else 0.0
        start, cpu_start = perf_counter(), process_time()
        rc = cli.main(op.argv)  # looked up per call, so tracing sees it
        seconds, cpu_seconds = perf_counter() - start, process_time() - cpu_start
        after = reference() if reference else 0.0
        try:
            outcome = op.check(rc, op.output)
        except Exception as exc:  # a malformed output is a failed operation
            outcome = Outcome()
            outcome.fail("check-error", f"{type(exc).__name__}: {exc}")
        bytes_out = 0
        if os.path.exists(op.output):
            bytes_out = os.path.getsize(op.output)
            os.remove(op.output)
        results.append(CommandResult(op.argv[0], seconds, cpu_seconds, outcome, bytes_out,
                                     (before + after) / 2))
    return results


# -- references ---------------------------------------------------------------


def held_karp(instance, closed: bool):
    """Minimum tour cost over Hamiltonian cycles (closed) or paths, or None.

    Dynamic programming over (visited set, last node).  Cycles start at node
    1; paths have free ends.  Independent of the program's own oracle.
    """
    n = instance.node_count
    best = {}
    for start in ([0] if closed else range(n)):
        best[(1 << start, start)] = Fraction(0)
    for mask in range(1, 1 << n):
        for last in range(n):
            cost = best.get((mask, last))
            if cost is None:
                continue
            for nxt in range(n):
                if mask >> nxt & 1 or not instance.has_edge(last + 1, nxt + 1):
                    continue
                key = (mask | 1 << nxt, nxt)
                value = cost + instance.cost(last + 1, nxt + 1)
                if key not in best or value < best[key]:
                    best[key] = value
    full = (1 << n) - 1
    ends = []
    for last in range(n):
        cost = best.get((full, last))
        if cost is None:
            continue
        if closed:
            if not instance.has_edge(last + 1, 1):
                continue
            cost += instance.cost(last + 1, 1)
        ends.append(cost)
    return min(ends) if ends else None


def _rational(value):
    return None if value is None else Fraction(str(value))


def _order_cost(instance, order, closed):
    """Cost of visiting ``order``, or None if a step has no edge."""
    steps = len(order) if closed else len(order) - 1
    total = Fraction(0)
    for i in range(steps):
        u, v = order[i], order[(i + 1) % len(order)]
        if not instance.has_edge(u, v):
            return None
        total += instance.cost(u, v)
    return total


def _rational_text(text):
    # int() first: integer energies are the common case and parse much faster
    return int(text) if "/" not in text else Fraction(text)


def _read_spectrum(path):
    """(row count, minimum energy, bitstrings at the minimum, sorted?)."""
    with open(path) as handle:
        header = handle.readline().strip()
        rows = [line.split(",", 1) for line in handle.read().splitlines()]
    if header != "bitstring,energy":
        raise ValueError(f"bad spectrum header {header!r}")
    energies = [_rational_text(energy) for _, energy in rows]
    ordered = all(a <= b for a, b in zip(energies, energies[1:]))
    low = energies[0]
    ground = [bits for (bits, _), e in zip(rows, energies) if e == low]
    return len(rows), Fraction(low), ground, ordered


def _read_landscape(path):
    with open(path) as handle:
        header = handle.readline().strip()
        rows = handle.read().splitlines()
    if header != "index,positions,basis,element,energy":
        raise ValueError(f"bad landscape header {header!r}")
    return len(rows), min(float(r.rsplit(",", 1)[1]) for r in rows)


# -- instance generation ------------------------------------------------------


def _write_instance(path, n, variant, directed, edges):
    doc = {
        "nodes": n,
        "directed": directed,
        "variant": variant,
        "edges": [[u, v, c] for (u, v), c in sorted(edges.items())],
        "penalty_a": 1,
        "penalty_b": 1,
    }
    with open(path, "w") as handle:
        json.dump(doc, handle)
    with open(path, "rb") as handle:
        return tspvqe.load_instance(handle)


def _pairs(n, directed):
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u != v and (directed or u < v):
                yield u, v


def _key(u, v, directed):
    return (u, v) if directed else (min(u, v), max(u, v))


def random_instance(rng, path, n, variant, directed, max_cost=9):
    """A seeded instance; cycle and path instances have a planted solution.

    tsp: complete graph.  cycle/path: a random Hamiltonian cycle/path plus
    each other edge with probability 0.3.
    """
    if variant == "tsp":
        edges = {p: rng.randint(1, max_cost) for p in _pairs(n, directed)}
    else:
        order = rng.sample(range(1, n + 1), n)
        steps = n if variant == "cycle" else n - 1
        edges = {}
        for i in range(steps):
            edges[_key(order[i], order[(i + 1) % n], directed)] = rng.randint(1, max_cost)
        for p in _pairs(n, directed):
            if p not in edges and rng.random() < 0.3:
                edges[p] = rng.randint(1, max_cost)
    return _write_instance(path, n, variant, directed, edges)


# -- checks -------------------------------------------------------------------


def _check_rc(rc, expected, out):
    if rc != expected:
        out.fail("exit-code", f"exit {rc}, expected {expected}")
        return False
    return True


def check_golden(golden_path):
    def check(rc, output):
        out = Outcome()
        if _check_rc(rc, 0, out):
            with open(output, "rb") as a, open(golden_path, "rb") as b:
                if a.read() != b.read():
                    out.fail("golden", f"output differs from {os.path.basename(golden_path)}")
        return out

    return check


def check_solve(instance, ctx, key):
    """solve vs Held-Karp; leaves its answer in ctx[key] for the spectrum."""
    closed = instance.variant != "hamiltonian_path"
    reference = held_karp(instance, closed)

    def check(rc, output):
        out = Outcome()
        if not _check_rc(rc, 0, out):
            return out
        with open(output) as handle:
            report = json.load(handle)
        cost = _rational(report["optimal_cost"])
        ctx[key] = (cost, out)
        if cost is None and reference is not None:
            if closed:
                out.fail("solve-null", "solve reports no tour but one exists")
            else:
                out.fail("path-oracle-null", KNOWN_FAILURES["path-oracle-null"])
            return out
        if reference is None and cost is not None:
            out.fail("solve-phantom", "solve reports a tour but none exists")
            return out
        if closed and cost != reference:
            out.fail("solve-cost", f"optimal_cost {cost} != reference {reference}")
        if report["tour_count"] != len(report["tours"]):
            out.fail("solve-count", "tour_count does not match tours")
        for tour in report["tours"]:
            order = tuple(tour["order"])
            if sorted(order) != list(range(1, instance.node_count + 1)):
                out.fail("solve-tour", f"{order} is not a permutation")
            elif closed and _order_cost(instance, order, True) != cost:
                out.fail("solve-tour", f"{order} does not cost {cost}")
            elif not closed and _order_cost(instance, order, False) is None:
                out.fail("solve-tour", f"{order} is not a valid path")
        return out

    return check


def check_spectrum(instance, layout, ctx, key, n_spins):
    """Spectrum minimum vs Held-Karp, and vs what ``solve`` reported.

    With safe penalties the minimum is B * optimal cost for tsp and 0 for a
    feasible cycle/path instance; every minimizing bitstring must decode to
    a valid tour.  A disagreement with ``solve`` is counted once: on the
    solve command when its own check already failed, here otherwise.
    """
    closed = instance.variant != "hamiltonian_path"
    reference = held_karp(instance, closed)

    def check(rc, output):
        out = Outcome()
        if not _check_rc(rc, 0, out):
            return out
        rows, low, ground, ordered = _read_spectrum(output)
        ctx[f"{key}:ground"] = (low, ground[0])
        if rows != 1 << n_spins:
            out.fail("spectrum-rows", f"{rows} rows, expected {1 << n_spins}")
        if not ordered:
            out.fail("spectrum-order", "energies are not sorted")
        if reference is None:
            if low <= 0:
                out.fail("spectrum-min", f"minimum {low} on an infeasible instance")
        else:
            expected = instance.penalty_b * reference if instance.variant == "tsp" else 0
            if low != expected:
                out.fail("spectrum-min", f"minimum {low} != {expected}")
            for bits in ground:
                if not isinstance(tspvqe.validate_bitstring(instance, layout, bits), tspvqe.Tour):
                    out.fail("spectrum-decode", f"ground state {bits} is not a tour")
                    break
        if key in ctx:
            cost, solve_outcome = ctx[key]
            if instance.variant == "tsp":
                agree = cost is not None and instance.penalty_b * cost == low
            else:
                agree = (cost is not None) == (low == 0)
            if not agree and not solve_outcome.failures:
                out.fail("oracle-vs-spectrum", "solve and the spectrum minimum disagree")
        return out

    return check


def check_audit(instance, mode):
    """Audit vs Held-Karp; path instances must be refused with exit 2."""
    reference = held_karp(instance, True) if instance.variant != "hamiltonian_path" else None

    def check(rc, output):
        out = Outcome()
        if instance.variant == "hamiltonian_path":
            _check_rc(rc, 2, out)
            return out
        if not _check_rc(rc, 0, out):
            return out
        with open(output) as handle:
            report = json.load(handle)
        best = _rational(report["best_valid_energy"])
        low = _rational(report["minimum_energy"])
        if reference is None:
            expected = None
        elif instance.variant == "tsp":
            expected = instance.penalty_b * reference
        else:
            expected = Fraction(0)
        if best != expected:
            out.fail("audit-best", f"best_valid_energy {best} != {expected}")
        if report["minimum_is_valid_tour"] and low != best:
            out.fail("audit-min", "valid minimum differs from the best valid energy")
        if mode == "safe" and expected is not None and not report["minimum_is_valid_tour"]:
            out.fail("audit-safe", "safe penalties left an invalid minimum")
        if best is not None and low > best:
            out.fail("audit-min", "minimum above the best valid energy")
        return out

    return check


def check_landscape(n_qubits, ground):
    def check(rc, output):
        out = Outcome()
        if not _check_rc(rc, 0, out):
            return out
        rows, low = _read_landscape(output)
        expected = math.comb(n_qubits, 3) * 72
        if rows != expected:
            out.fail("landscape-rows", f"{rows} records, expected {expected}")
        if low < float(ground) - 1e-9:
            out.fail("landscape-min", f"landscape energy {low} below the ground {ground}")
        return out

    return check


def check_encode_ising(ctx, key, n_spins):
    """The emitted Ising form evaluated at the spectrum's ground state."""

    def check(rc, output):
        out = Outcome()
        if not _check_rc(rc, 0, out):
            return out
        with open(output) as handle:
            doc = json.load(handle)
        if doc["n"] != n_spins:
            out.fail("encode-n", f"n = {doc['n']}, expected {n_spins}")
            return out
        low, bits = ctx[f"{key}:ground"]
        spins = [1 - 2 * int(b) for b in bits]
        energy = Fraction(str(doc["constant"]))
        energy += sum(Fraction(str(h)) * spins[i] for i, h in doc["fields"])
        energy += sum(Fraction(str(c)) * spins[i] * spins[j] for i, j, c in doc["couplings"])
        if energy != low:
            out.fail("encode-energy", f"Ising energy {energy} != spectrum minimum {low}")
        return out

    return check


def check_vqe(instance, k):
    """Ground energy = B * optimal cost; converged runs decode to optima."""
    reference = held_karp(instance, True)

    def check(rc, output):
        out = Outcome()
        if not _check_rc(rc, 0, out):
            return out
        with open(output) as handle:
            report = json.load(handle)
        traces = report["traces"]
        out.runs = len(traces)
        out.evals = sum(t["n_evaluations"] for t in traces)
        out.converged = sum(1 for t in traces if t["converged"])
        if _rational(report["oracle_cost"]) != reference:
            out.fail("vqe-oracle", f"oracle_cost {report['oracle_cost']} != {reference}")
        if _rational(report["ground_energy_exact"]) != instance.penalty_b * reference:
            out.fail("vqe-ground", "ground_energy_exact != B * optimal cost")
        if len(traces) != k or report["n_runs"] != k:
            out.fail("vqe-runs", f"{len(traces)} runs, expected {k}")
        if report["converged_count"] != out.converged:
            out.fail("vqe-converged", "converged_count does not match the traces")
        for trace in traces:
            if not trace["converged"]:
                continue
            decoded = tspvqe.validate_bitstring(instance, "efficient", trace["best_bitstring"])
            if not isinstance(decoded, tspvqe.Tour) or decoded.cost != reference:
                out.fail("vqe-decode", f"converged run {trace['seed']} is not an optimal tour")
        return out

    return check


# -- passes -------------------------------------------------------------------


class PassBuilder:
    """Writes the inputs of a pass into ``workdir`` and lists its ops."""

    def __init__(self, root, workdir, workload, seed, smoke):
        self.root = root
        self.workdir = workdir
        self.workload = workload
        self.seed = seed
        self.size = {name: sizes[1 if smoke else 0] for name, sizes in _SIZES.items()}

    def build(self):
        rng = random.Random(f"{self.workload}:{self.seed}")
        os.makedirs(self.workdir, exist_ok=True)
        ops = []

        def add(argv, check):
            output = os.path.join(self.workdir, f"out{len(ops)}")
            ops.append(Op(argv + ["--no-timestamp", "-o", output], output, check))

        builder = {
            "paper-n4": self._paper_n4,
            "vqe-n5": self._vqe_n5,
            "certify": self._certify,
        }[self.workload]
        builder(rng, self.workdir, add)
        return ops

    def _paper_n4(self, rng, workdir, add):
        path = os.path.join(self.root, "instances", "landscape.json")
        with open(path, "rb") as handle:
            instance = tspvqe.load_instance(handle)
        k = self.size["paper_k"]
        common = ["--seed", str(self.seed), "--threads", "1",
                  "--max-evals", str(self.size["paper_max_evals"])]
        for init in ("best-mubs", "random"):
            add(["vqe", path, "--init", init, "--k", str(k)] + common,
                check_vqe(instance, k))
        add(["vqe", path, "--init", "zeros"] + common, check_vqe(instance, 1))

    def _vqe_n5(self, rng, workdir, add):
        n = 5
        path = os.path.join(workdir, "n5.json")
        raw = random_instance(rng, path, n, "tsp", False, max_cost=20)
        instance = raw.with_penalties(*tspvqe.suggest_penalties(raw, "safe"))
        qubits = (n - 1) ** 2
        ground = instance.penalty_b * held_karp(instance, True)
        add(["landscape", path, "--penalties", "safe"],
            check_landscape(qubits, ground))
        k = self.size["n5_k"]
        add(["vqe", path, "--penalties", "safe", "--init", "best-mubs",
             "--k", str(k), "--max-evals", str(self.size["n5_max_evals"]),
             "--seed", str(self.seed), "--threads", "1"],
            check_vqe(instance, k))

    def _certify(self, rng, workdir, add):
        instances_dir = os.path.join(self.root, "instances")
        for args, golden in GOLDEN_CASES:
            argv = [args[0], os.path.join(instances_dir, args[1])] + args[2:]
            add(argv, check_golden(os.path.join(instances_dir, "golden", golden)))
        ctx = {}
        n = self.size["certify_small"]
        for variant in ("tsp", "cycle", "path"):
            for directed in (False, True):
                key = f"{variant}-{'directed' if directed else 'undirected'}"
                path = os.path.join(workdir, f"{key}.json")
                raw = random_instance(rng, path, n, variant, directed)
                safe = raw.with_penalties(*tspvqe.suggest_penalties(raw, "safe"))
                add(["solve", path], check_solve(raw, ctx, key))
                add(["spectrum", path, "--layout", "full", "--penalties", "safe"],
                    check_spectrum(safe, "full", ctx, key, n * n))
                modes = ("safe",) if variant == "path" else ("lucas", "safe")
                for mode in modes:
                    penalized = raw.with_penalties(*tspvqe.suggest_penalties(raw, mode))
                    add(["audit", path, "--penalties", mode],
                        check_audit(penalized, mode))
        n = self.size["certify_solve"]
        path = os.path.join(workdir, "solve.json")
        raw = random_instance(rng, path, n, "tsp", False, max_cost=99)
        add(["solve", path], check_solve(raw, ctx, "large"))
        n = self.size["certify_medium"]
        path = os.path.join(workdir, "medium.json")
        raw = random_instance(rng, path, n, "tsp", False, max_cost=20)
        safe = raw.with_penalties(*tspvqe.suggest_penalties(raw, "safe"))
        qubits = (n - 1) ** 2
        add(["spectrum", path, "--penalties", "safe"],
            check_spectrum(safe, "efficient", ctx, "medium", qubits))
        add(["landscape", path, "--penalties", "safe"],
            check_landscape(qubits, safe.penalty_b * held_karp(safe, True)))
        add(["encode", path, "--penalties", "safe", "--form", "ising"],
            check_encode_ising(ctx, "medium", qubits))
