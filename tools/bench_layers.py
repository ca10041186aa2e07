"""Time the layers of the 16-qubit best-MUB pass, its two commands, the
9-qubit best-MUB batch, and the cold start of a fresh interpreter.

Run from the root of a tspvqe checkout::

    python tools/bench_layers.py --label change
    python tools/bench_layers.py --smoke
    python tools/bench_layers.py --compare BENCH_parent.json BENCH_change.json

The pass is the one the ``vqe-n5`` benchmark workload runs: on a seeded
complete 5-node TSP at safe penalties (16 qubits in the efficient layout),
``landscape``, then ``vqe --init best-mubs --k 2 --max-evals 20``.  The rows:

* ``compute_landscape``: on a fresh Ising form, as the command calls it;
* ``landscape_csv_rows``: the landscape CSV written into a memory buffer;
* ``spectrum_csv_rows``: the 16-spin spectrum CSV into a buffer, its
  energies enumerated beforehand;
* ``run_lockstep``: the best-MUB k=2 batch at 20 evaluations;
* ``run_lockstep_9q``: the best-MUB k=10 batch at 300 evaluations on the
  shipped 9-qubit instance, ``instances/landscape.json``, with the starts and
  seeds the ``paper-n4`` benchmark workload's seed-1 batch runs: the same
  driver on its stacked path, where the 16-qubit row runs alone;
* ``cmd_landscape`` and ``cmd_vqe``: the two commands through ``cli.main``,
  writing into a temporary directory;
* ``cold_setup``: a fresh interpreter running the set-up lines that
  ``perfbench/run.py`` times for ``setup_s`` (``import tspvqe``,
  ``build_mubs_3q()``, ``load_instance`` of the shipped instance);
* ``cold_solve``: a fresh interpreter running ``cli.main`` on ``solve`` of
  the shipped instance.  Both cold rows include starting the interpreter,
  and, where ``PYTHONDONTWRITEBYTECODE`` is set or no bytecode cache exists,
  compiling every module they import.

The rows run in interleaved bursts: each burst times every row in turn, a
few calls each, so a slow spell of a shared machine touches every row
alike.  Each row reports the minimum, median and quartiles, over the
bursts, of its milliseconds per call.  The program is imported from
``src/`` of the checkout the tool runs in, so the same tool times two
checkouts.  Writes ``BENCH_<label>.json`` (into ``--out``, by default the
current directory) with the commit, whether ``src/`` differs from it, the
hash of its ``src/`` tree, the core count, Python, numpy, the BLAS and its
thread count, and ``PYTHONDONTWRITEBYTECODE``, since numbers from another
machine, BLAS setting or bytecode setting do not compare.  ``--smoke`` runs
two short bursts, checks every row produced a time, and writes nothing.

``--compare A.json B.json`` reads two such files, A the parent and B the
change, and prints each row's median in both with its quartiles, and the
change of the median, then each side's minimum and the change of the
minimum: on a shared machine a slow spell lifts the medians of one side
while the minima still agree.  A row whose median moved by no more than A's
interquartile range is marked ``inside``: its gap lies within the parent's
own spread, so it shows no change.  Settings that differ between the two
environments are printed first, since such a pair does not compare.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import tspvqe  # noqa: E402
from tspvqe import cli, dqes, ising, vqe  # noqa: E402

NODES = 5
SEED = 1
K = 2
MAX_EVALS = 20
# the paper-n4 batch: best-MUB starts on the shipped instance
PAPER_K = 10
PAPER_MAX_EVALS = 300
# the cold rows' programs, each run by a fresh interpreter in the checkout;
# COLD_SETUP is perfbench/run.py's SETUP_CODE
COLD_SETUP = """\
import sys
sys.path.insert(0, "src")
import tspvqe
tspvqe.build_mubs_3q()
with open("instances/landscape.json", "rb") as handle:
    tspvqe.load_instance(handle)
"""
COLD_MAIN = """\
import sys
sys.path.insert(0, "src")
from tspvqe import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def seeded_instance(seed=SEED):
    """A complete NODES-node TSP with costs 1-20 drawn from ``seed``, at
    safe penalties."""
    rng = random.Random(seed)
    edges = tuple((u, v, rng.randint(1, 20))
                  for u in range(1, NODES + 1) for v in range(u + 1, NODES + 1))
    raw = tspvqe.ProblemInstance(NODES, False, "tsp", edges, 1, 1)
    return raw.with_penalties(*tspvqe.suggest_penalties(raw, "safe"))


def rows(workdir):
    """{name: (calls per burst, a function of no arguments that times one
    call)} for every row, each set up once."""
    instance = seeded_instance()
    path = os.path.join(workdir, "n5.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(tspvqe.save_instance(instance))
    form = tspvqe.to_ising(tspvqe.encode_efficient(instance))
    landscape = dqes.compute_landscape(form)
    form.energy_int_vector()
    ground = float(tspvqe.ground_states(form)[0])
    starts = [(vqe.MubInit(r.positions, r.basis, r.element), 2 * i)
              for i, r in enumerate(dqes.best_k(landscape, K))]
    ansatz = vqe.AnsatzConfig(n=form.n)
    with open(os.path.join(ROOT, "instances", "landscape.json"), "rb") as handle:
        paper = tspvqe.to_ising(tspvqe.encode_efficient(tspvqe.load_instance(handle)))
    paper_ground = float(tspvqe.ground_states(paper)[0])
    # run_experiment's starts and optimizer seeds
    paper_starts = [(vqe.MubInit(r.positions, r.basis, r.element),
                     SEED * dqes._SEED_STRIDE + 2 * i)
                    for i, r in enumerate(dqes.best_k(dqes.compute_landscape(paper), PAPER_K))]
    common = ["--no-timestamp", "--penalties", "safe"]
    landscape_argv = ["landscape", path, *common, "-o", os.path.join(workdir, "l.csv")]
    vqe_argv = ["vqe", path, *common, "--init", "best-mubs", "--k", str(K), "--max-evals",
                str(MAX_EVALS), "--seed", str(SEED), "--threads", "1",
                "-o", os.path.join(workdir, "v.json")]

    def timed(run, fresh=None):
        def once():
            argument = fresh() if fresh else None
            start = perf_counter()
            run(argument)
            return perf_counter() - start
        return once

    def fresh_form():
        return tspvqe.to_ising(tspvqe.encode_efficient(instance))

    def into_buffer(blocks):
        io.BytesIO().writelines(blocks)

    def command(argv):
        if cli.main(argv) != 0:
            raise SystemExit(f"bench_layers: {argv[0]} failed")

    def fresh_interpreter(code, *argv):
        return lambda _: subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT,
                                        check=True)

    return {
        "compute_landscape": (5, timed(dqes.compute_landscape, fresh_form)),
        "landscape_csv_rows": (3, timed(lambda _: into_buffer(dqes.landscape_csv_rows(landscape)))),
        "spectrum_csv_rows": (1, timed(lambda _: into_buffer(ising.spectrum_csv_rows(form)))),
        "run_lockstep": (2, timed(lambda _: vqe.run_lockstep(
            form, starts, ansatz, MAX_EVALS, ground))),
        "run_lockstep_9q": (1, timed(lambda _: vqe.run_lockstep(
            paper, paper_starts, None, PAPER_MAX_EVALS, paper_ground))),
        "cmd_landscape": (2, timed(lambda _: command(landscape_argv))),
        "cmd_vqe": (2, timed(lambda _: command(vqe_argv))),
        "cold_setup": (1, timed(fresh_interpreter(COLD_SETUP))),
        "cold_solve": (1, timed(fresh_interpreter(
            COLD_MAIN, "solve", os.path.join("instances", "landscape.json"), "--no-timestamp",
            "-o", os.path.join(workdir, "s.json")))),
    }


def measure(table, bursts):
    """{name: [ms per call, one entry per burst]}, the rows interleaved."""
    samples = {name: [] for name in table}
    for _ in range(bursts):
        for name, (calls, once) in table.items():
            samples[name].append(1e3 * sum(once() for _ in range(calls)) / calls)
    return samples


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"unit": "ms", "min": min(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bursts": len(values)}


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, where the platform shows
    its loaded libraries; else None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                return function()
    return None


def _git(*args) -> str:
    """The output of a git command in the checkout, or "" without git."""
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True).stdout.strip()
    except OSError:
        return ""


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = None
    return {
        "commit": _git("rev-parse", "HEAD") or None,
        "src_modified": bool(_git("status", "--porcelain", "--", "src")),
        "src_tree": _git("rev-parse", "HEAD:src") or None,
        "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


# environment settings that must agree for two files to compare
_SETTINGS = ("cores", "python", "numpy", "blas", "blas_threads", "OPENBLAS_NUM_THREADS",
             "PYTHONDONTWRITEBYTECODE")


def compare(parent_path, change_path):
    """Print the rows of two ``BENCH`` files side by side: see the module
    docstring."""
    parent, change = [json.load(open(path, encoding="utf-8"))
                      for path in (parent_path, change_path)]
    for key in _SETTINGS:
        if parent["env"].get(key) != change["env"].get(key):
            print(f"differs: {key} {parent['env'].get(key)} -> {change['env'].get(key)}")
    for side, report in (("A", parent), ("B", change)):
        env = report["env"]
        print(f"{side}: {report['label']}, commit {env.get('commit')}, "
              f"src_modified {env.get('src_modified')}")
    print(f"{'row (ms)':20s} {'A median [q1-q3]':>23s} {'B median [q1-q3]':>23s}  change"
          f"{'':9s}{'A min':>9s} {'B min':>9s}  change")
    for name in {**parent["rows"], **change["rows"]}:
        if name not in parent["rows"] or name not in change["rows"]:
            print(f"{name:20s} only in {'B' if name in change['rows'] else 'A'}")
            continue
        a, b = parent["rows"][name], change["rows"][name]
        gap = b["median"] - a["median"]
        inside = "inside" if abs(gap) <= a["q3"] - a["q1"] else ""
        print(f"{name:20s} {a['median']:9.3f} [{a['q1']:.3f}-{a['q3']:.3f}]"
              f" {b['median']:9.3f} [{b['q1']:.3f}-{b['q3']:.3f}]"
              f"  {100 * gap / a['median']:+6.1f}% {inside:6s}"
              f" {a['min']:9.3f} {b['min']:9.3f}  {100 * (b['min'] - a['min']) / a['min']:+6.1f}%")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="local", help="names the output BENCH_<label>.json")
    parser.add_argument("--bursts", type=int, default=15)
    parser.add_argument("--out", default=".", help="directory of the output file")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="print the rows of two files, A the parent, and time nothing")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    bursts = 2 if args.smoke else args.bursts
    if bursts < 2:
        parser.error("--bursts must be at least 2")
    with tempfile.TemporaryDirectory() as workdir:
        table = rows(workdir)
        for _, once in table.values():  # caches filled and imports done before timing
            once()
        samples = measure(table, bursts)
    report = {"label": args.label, "env": environment(),
              "rows": {name: summary(values) for name, values in samples.items()}}
    for name, row in report["rows"].items():
        print(f"{name:20s} min {row['min']:8.3f}  median {row['median']:8.3f}  "
              f"q1-q3 {row['q1']:.3f}-{row['q3']:.3f} ms")
    if args.smoke:
        if not all(row["min"] > 0 for row in report["rows"].values()):
            raise SystemExit("bench_layers: a row has no time")
        return 0
    path = os.path.join(args.out, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
