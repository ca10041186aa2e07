"""Compare the outputs of fixed tspvqe commands between this tree and a git ref.

Run from the root of a tspvqe checkout::

    python tools/compare_outputs.py REF

Every command of ``commands()`` runs with ``--no-timestamp`` twice on this
machine: once on the working tree's ``src/`` and once on a temporary
``git worktree`` of REF (a branch, tag or commit).  Each pair of output files
is then compared byte for byte.  The floats of the ``vqe`` reports and the
``landscape`` CSVs depend on the BLAS build and the CPU, so no golden file
can hold them; two checkouts on one machine can be compared.  At 16 qubits
they depend on the OpenBLAS thread count too: the kernel's amplitudes do
not, but each expectation is a BLAS dot over 2^16 entries whose sum order
follows the threads, and a random-start 16-qubit report differs between
``OPENBLAS_NUM_THREADS=1`` and two threads.  Both sides run in this
process's environment, so they are compared under one setting.

The list: the ``vqe`` batches of the benchmark's ``paper-n4`` workload on
``instances/landscape.json`` (best-MUB and random, k=10, and zeros, at
``--max-evals 300``), seeded 5-node instances (16 qubits) run as the
``vqe-n5`` workload runs them (landscape, then a best-MUB batch of k=2 at
``--max-evals 20``) plus four longer 16-qubit batches, the seed-0 ``paper-n4``
best-MUB batch once more on two worker processes (``--threads 2``), both
landscape CSVs and the spectrum CSVs.  The 16-qubit batches run circuits of 15, 20 and 10
stages (2, 3 and 1 layers), so the pair of buffers a run's kernel calls
write in turn ends on either one.  Then the exact-rational outputs: ``encode`` in all
three layouts, binary and Ising; ``audit`` under file, lucas and safe
penalties; ``solve``; and the full-layout ``spectrum``, on both shipped
instances and on a seeded 4-node instance with p/q costs for each of the six
variant x direction cases.  Last, the commands that must be refused: a seeded
complete 6-node instance is above the 24-spin cap (25 efficient spins, 36
full) for ``spectrum`` in both layouts, ``landscape``, ``vqe`` and ``audit``,
and ``spectrum --cap -1`` is refused as invalid.  The generated instances are
written by this script, the same for both sides.  Three commands of the
list, a spectrum, a 16-qubit landscape and an audit, also run once more each
without ``-o``, in a process of their own, and their standard output is
compared in the same way.

A command that both sides refuse with the same exit code (a path audit, an
efficient encoding of a non-tsp instance, an instance above the cap) counts
as identical.  Prints one line per output that differs or whose command
failed, then a summary.  Exits 0 when every output is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import filecmp
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile

SEEDS = range(11)  # 0 to 10

# runs a JSON list of argv lists, read from stdin, through tspvqe.cli.main
# in one process, and prints their exit codes as a JSON list; an argparse
# refusal counts as its SystemExit code, so later commands still run
_RUNNER = """\
import json, sys
sys.path.insert(0, "src")
from tspvqe import cli

def run(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code

print(json.dumps([run(argv) for argv in json.load(sys.stdin)]))
"""

# runs one command through tspvqe.cli.main, writing to standard output
_STDOUT_RUNNER = """\
import sys
sys.path.insert(0, "src")
from tspvqe import cli
sys.exit(cli.main(sys.argv[1:]))
"""

# outputs of commands() also compared as written to standard output
STDOUT_NAMES = ("spectrum_landscape.csv", "n5_landscape_0.csv", "audit_counterexample_file.json")


def _write_complete(path, nodes, seed):
    """A seeded complete undirected TSP with costs 1-20."""
    rng = random.Random(f"compare-outputs:n{nodes}:{seed}")
    edges = [[u, v, rng.randint(1, 20)]
             for u in range(1, nodes + 1) for v in range(u + 1, nodes + 1)]
    doc = {"nodes": nodes, "directed": False, "variant": "tsp", "edges": edges,
           "penalty_a": 1, "penalty_b": 1}
    with open(path, "w") as handle:
        json.dump(doc, handle)


def _write_pq(path, variant, directed):
    """A seeded 4-node instance with p/q costs and penalties, some edges missing."""
    rng = random.Random(f"compare-outputs:pq:{variant}:{directed}")
    pairs = (itertools.permutations if directed else itertools.combinations)(range(1, 5), 2)
    edges = [[u, v, f"{rng.randint(0, 20)}/{rng.randint(1, 9)}"]
             for u, v in pairs if rng.random() < 0.8]
    doc = {"nodes": 4, "directed": directed, "variant": variant, "edges": edges,
           "penalty_a": f"{rng.randint(20, 90)}/{rng.randint(1, 7)}",
           "penalty_b": f"{rng.randint(1, 9)}/{rng.randint(1, 5)}"}
    with open(path, "w") as handle:
        json.dump(doc, handle)


def commands(inputs):
    """(output name, argv without the output flags) of every compared command.

    Writes the generated instances into ``inputs``.  Paths of shipped instances
    are relative to the checkout the command runs in.
    """
    landscape, counterexample = "instances/landscape.json", "instances/counterexample.json"
    out = [
        ("landscape_landscape.csv", ["landscape", landscape]),
        ("spectrum_landscape.csv", ["spectrum", landscape]),
        ("spectrum_counterexample_safe.csv",
         ["spectrum", counterexample, "--penalties", "safe"]),
    ]
    for seed in SEEDS:
        common = ["--seed", str(seed), "--threads", "1"]
        paper = common + ["--max-evals", "300"]
        out += [
            (f"paper_best_mubs_{seed}.json",
             ["vqe", landscape, "--init", "best-mubs", "--k", "10"] + paper),
            (f"paper_random_{seed}.json", ["vqe", landscape, "--init", "random", "--k", "10"] + paper),
            (f"paper_zeros_{seed}.json", ["vqe", landscape, "--init", "zeros"] + paper),
        ]
        n5 = os.path.join(inputs, f"n5_{seed}.json")
        _write_complete(n5, 5, seed)
        safe = [n5, "--penalties", "safe"]
        out += [
            (f"n5_landscape_{seed}.csv", ["landscape"] + safe),
            (f"n5_best_mubs_{seed}.json",
             ["vqe"] + safe + ["--init", "best-mubs", "--k", "2", "--max-evals", "20"] + common),
        ]
    n5 = [os.path.join(inputs, "n5_0.json"), "--penalties", "safe", "--threads", "1"]
    out += [
        ("n5_spectrum_0.csv", ["spectrum"] + n5[:3]),
        ("n5_long_0.json", ["vqe"] + n5 + ["--init", "best-mubs", "--k", "2", "--max-evals", "400"]),
        ("n5_ring3_0.json", ["vqe"] + n5 + ["--init", "random", "--k", "1", "--layers", "3",
                                           "--entangler", "ring_rzz", "--max-evals", "200"]),
        ("n5_layers1_0.json",
         ["vqe"] + n5 + ["--init", "best-mubs", "--k", "2", "--layers", "1", "--max-evals", "200"]),
        ("n5_nelder_mead_0.json",
         ["vqe"] + n5 + ["--init", "zeros", "--optimizer", "nelder_mead", "--max-evals", "200"]),
        # the process-pool path: two workers, one part of the batch each
        ("paper_best_mubs_threads2_0.json",
         ["vqe", landscape, "--init", "best-mubs", "--k", "10", "--max-evals", "300",
          "--seed", "0", "--threads", "2"]),
    ]
    exact = [landscape, counterexample]
    for variant, directed in itertools.product(("tsp", "cycle", "path"), (False, True)):
        exact.append(os.path.join(inputs, f"pq_{variant}_{'di' if directed else 'un'}.json"))
        _write_pq(exact[-1], variant, directed)
    for path in exact:
        stem = os.path.splitext(os.path.basename(path))[0]
        for layout, form in itertools.product(("full", "fixed", "efficient"), ("binary", "ising")):
            out.append((f"encode_{stem}_{layout}_{form}.json",
                        ["encode", path, "--layout", layout, "--form", form]))
        for penalties in ("file", "lucas", "safe"):
            out.append((f"audit_{stem}_{penalties}.json",
                        ["audit", path, "--penalties", penalties]))
        out += [
            (f"solve_{stem}.json", ["solve", path]),
            (f"spectrum_{stem}_full.csv", ["spectrum", path, "--layout", "full"]),
        ]
    n6 = os.path.join(inputs, "n6_0.json")
    _write_complete(n6, 6, 0)
    out += [
        ("n6_spectrum_0.csv", ["spectrum", n6]),
        ("n6_spectrum_full_0.csv", ["spectrum", n6, "--layout", "full"]),
        ("n6_landscape_0.csv", ["landscape", n6]),
        ("n6_vqe_0.json", ["vqe", n6, "--threads", "1"]),
        ("n6_audit_0.json", ["audit", n6]),
        ("n6_spectrum_negative_cap_0.csv", ["spectrum", n6, "--cap", "-1"]),
    ]
    return out


def _run(checkout, listed, outdir):
    """Run the commands in ``checkout``, writing into ``outdir``; their exit codes.

    The commands named in ``STDOUT_NAMES`` then run again, writing to
    standard output; it goes to ``stdout_<name>``, and their exit codes
    follow.
    """
    os.makedirs(outdir)
    argvs = [argv + ["--no-timestamp", "-o", os.path.join(outdir, name)] for name, argv in listed]
    done = subprocess.run([sys.executable, "-c", _RUNNER], cwd=checkout, input=json.dumps(argvs),
                          capture_output=True, text=True, check=True)
    codes = json.loads(done.stdout.splitlines()[-1])
    for name, argv in listed:
        if name in STDOUT_NAMES:
            with open(os.path.join(outdir, f"stdout_{name}"), "wb") as handle:
                done = subprocess.run(
                    [sys.executable, "-c", _STDOUT_RUNNER, *argv, "--no-timestamp"],
                    cwd=checkout, stdout=handle, stderr=subprocess.DEVNULL)
            codes.append(done.returncode)
    return codes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git ref to compare the working tree with")
    args = parser.parse_args(argv)
    root = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="tspvqe-compare-") as tmp:
        inputs = os.path.join(tmp, "inputs")
        os.makedirs(inputs)
        listed = commands(inputs)
        names = [name for name, _ in listed]
        names += [f"stdout_{name}" for name in names if name in STDOUT_NAMES]
        ref_tree = os.path.join(tmp, "ref")
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet", ref_tree, args.ref],
                       cwd=root, check=True)
        try:
            ref_codes = _run(ref_tree, listed, os.path.join(tmp, "out_ref"))
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", ref_tree], cwd=root,
                           check=True)
        codes = _run(root, listed, os.path.join(tmp, "out_tree"))
        bad = refused = 0
        for name, ref_code, code in zip(names, ref_codes, codes):
            ours, theirs = (os.path.join(tmp, side, name) for side in ("out_tree", "out_ref"))
            if code and code == ref_code:
                refused += 1
                continue
            if code or ref_code:
                print(f"FAILED {name}: exit {code} here, {ref_code} at {args.ref}")
            elif not filecmp.cmp(ours, theirs, shallow=False):
                print(f"DIFFERS {name}")
            else:
                continue
            bad += 1
    print(f"{len(names) - bad} of {len(names)} outputs identical to {args.ref}"
          f" ({refused} commands refused alike by both)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
