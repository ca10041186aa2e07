"""Benchmark of tspvqe: end-to-end metrics, or per-layer metrics from a trace.

Run from the root of a tspvqe checkout::

    python3 perfbench/run.py --workload paper-n4 --seed 1 --seconds 15 --trace 0

The program is imported from ``src/`` of that checkout and driven only
through ``tspvqe.cli.main(argv)`` and the package's public functions.  The
workloads are described in ``perfbench/workloads.py``.

``--trace 0`` builds the workload's commands from the seed, then runs them
round(``--seconds`` / nominal pass time) times; that count depends on
``--seconds`` alone, so every version of the program times the same work.
Fresh interpreters time set-up (``import tspvqe``, ``build_mubs_3q()``,
``load_instance``) between the passes.  It reports the end-to-end metrics:

* ``ms_per_unit``: command time per unit of work in a pass, a unit being
  one ansatz evaluation on the VQE workloads and one CLI command on
  ``certify``.  Each command is bracketed by a fixed piece of reference work
  that does not touch the program (``reference_seconds``); other tenants of
  a shared machine slow both alike, so the command's time over the
  reference's is steady where its raw time is not.  The figure is the sum
  over commands of each one's median ratio over the passes, times
  ``REFERENCE_S``: milliseconds on a machine as fast as the quiet tuning
  machine;
* ``setup_s``: median set-up time of a fresh interpreter, bracketed and
  scaled by the reference work in the same way;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs the commands once untraced, then once with every layer
wrapped (``perfbench/spans.py``), and reports per-layer metrics; it ignores
``--seconds``.  Times of commands are taken around ``cli.main`` only, never
around input generation or the output checks.  ``--smoke`` shrinks every
workload to a few seconds.

Every command's output is checked.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it records
the environment (kernel backend, cores, Python, numpy, BLAS and its thread
count), because numbers from another backend or BLAS setting do not compare.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_out")

SETUP_CODE = """\
import sys
sys.path.insert(0, "src")
import tspvqe
tspvqe.build_mubs_3q()
with open("instances/landscape.json", "rb") as handle:
    tspvqe.load_instance(handle)
"""
SETUP_REPEATS = {False: 12, True: 2}  # keyed by --smoke
# about reference_seconds() on the quiet 2-core machine the benchmark was
# tuned on, so that ms_per_unit reads close to real command time there
REFERENCE_S = 0.0075


def _die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import tspvqe from this checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "tspvqe", "__init__.py")):
        _die("no src/tspvqe here; run from the root of a tspvqe checkout")
    sys.path.insert(0, SRC)
    import tspvqe

    if os.path.dirname(os.path.abspath(tspvqe.__file__)) != os.path.join(SRC, "tspvqe"):
        _die(f"imported tspvqe from {tspvqe.__file__}, not from {SRC}")


def time_setup():
    """Seconds of one fresh interpreter's set-up, scaled like ms_per_unit."""
    before = reference_seconds()
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True)
    seconds = perf_counter() - start
    after = reference_seconds()
    return seconds * REFERENCE_S / ((before + after) / 2)


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as handle:
            maps = handle.read()
    except OSError:
        return None
    paths = sorted(
        {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    )
    for path in paths:
        if not path.startswith("/"):
            continue
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy

    from tspvqe import kernels

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = None
    return {
        "HAVE_NUMBA": kernels.HAVE_NUMBA,
        "TSPVQE_NO_NUMBA": os.environ.get("TSPVQE_NO_NUMBA"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def reference_seconds():
    """Time a fixed piece of work that does not touch the program.

    Interpreted Python and numpy passes over 2^16 doubles, the commands' own
    mix; other tenants of a shared machine slow it as they slow a command.
    """
    import numpy

    values = numpy.arange(1 << 16, dtype=numpy.float64)
    start = perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    for _ in range(5):
        numpy.sort(numpy.sin(values))
    return perf_counter() - start


def _seconds(results, *kinds):
    return sum(r.seconds for r in results if not kinds or r.kind in kinds)


def _total(results, attr):
    return sum(getattr(r.outcome, attr) for r in results)


def end_to_end(workload, ops, seconds, smoke):
    from workloads import PASS_SECONDS, UNITS, run_pass

    passes = max(1, round(seconds / PASS_SECONDS[workload]))
    setups_per_pass = -(-SETUP_REPEATS[smoke] // passes)
    setup, runs = [], []
    for _ in range(passes):  # set-up samples spread over the run, not bunched
        setup += [time_setup() for _ in range(setups_per_pass)]
        runs.append(run_pass(ops, reference_seconds))
    problems = []
    # A command's time over the reference work timed around it cancels most
    # of what other tenants do to both; every pass runs the same commands,
    # so each command's median ratio over the passes is its steady cost.
    scaled = REFERENCE_S * sum(
        statistics.median(run[i].seconds / run[i].reference_seconds for run in runs)
        for i in range(len(ops))
    )
    if UNITS[workload] == "evaluation":
        evals = [_total(run, "evals") for run in runs]
        if len(set(evals)) > 1:
            problems.append(f"identical passes made different evaluation counts {evals}")
        units = evals[0]
    else:
        units = len(ops)
    if not units:  # zero only when every command of the pass failed
        problems.append("no unit of work completed")
    metrics = {
        "ms_per_unit": (1e3 * scaled / units if units else 0.0, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return [r for run in runs for r in run], metrics, problems


def per_layer(ops):
    from spans import Tracer
    from tspvqe import quantum
    from workloads import run_pass

    quantum.build_mubs_3q.cache_clear()
    plain = run_pass(ops)
    wall = _seconds(plain)
    cpu = sum(r.cpu_seconds for r in plain)

    quantum.build_mubs_3q.cache_clear()
    tracer = Tracer()
    for site in tracer.install():
        print(f"perfbench: not traced, {site} does not exist", file=sys.stderr)
    problems = [f"{site} escaped tracing; add it to spans.TARGETS"
                for site in tracer.unwrapped()]
    try:
        traced = run_pass(ops)
    finally:
        tracer.uninstall()
    traced_wall = _seconds(traced)  # timed outside the wrappers
    layer_s = sum(tracer.layer_self_s().values())

    vqe_s = _seconds(plain, "vqe")
    runs = _total(plain, "runs")
    metrics = {
        "wall_s": (wall, "s"),
        "vqe_evals_per_s": (_total(plain, "evals") / vqe_s if vqe_s else 0.0, "1/s"),
        "converged_frac": (_total(plain, "converged") / runs if runs else 0.0, "ratio"),
        "solve_s": (_seconds(plain, "solve"), "s"),
        "audit_s": (_seconds(plain, "audit"), "s"),
        "spectrum_s": (_seconds(plain, "spectrum"), "s"),
        "proc.cpu_s": (cpu, "s"),
        "proc.cpu_over_wall": (cpu / wall, "ratio"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - wall, "s"),
        # command time outside every span: only the call into cli.main's wrapper
        "trace.untraced_s": (traced_wall - layer_s, "s"),
        "cli.bytes_out": (sum(r.bytes_out for r in traced), "B"),
        **tracer.metrics(),
    }
    # the spans' self times must account for the command time measured
    # around them, to within the cost of entering and leaving one wrapper
    slack = 1e-3 * len(traced) + 1e-3 * traced_wall
    if not 0 <= metrics["trace.untraced_s"][0] <= slack:
        problems.append(f"layer self times {layer_s} s do not account for the traced "
                        f"command time {traced_wall} s")
    return plain + traced, metrics, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrink every workload")
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.UNITS:
        _die(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.UNITS)}")
    workdir = os.path.join(WORKDIR, str(os.getpid()))
    builder = workloads.PassBuilder(ROOT, workdir, args.workload, args.seed, args.smoke)
    try:
        ops = builder.build()
        if args.trace:
            results, metrics, problems = per_layer(ops)
        else:
            results, metrics, problems = end_to_end(args.workload, ops, args.seconds, args.smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORKDIR) and not os.listdir(WORKDIR):
            os.rmdir(WORKDIR)

    failed = [r for r in results if r.outcome.failures]
    for r in failed:
        for name, message in r.outcome.failures:
            label = "known" if name in workloads.KNOWN_FAILURES else "FAIL"
            print(f"perfbench: {label} {r.kind} {name}: {message}", file=sys.stderr)
    for message in problems:
        print(f"perfbench: FAIL trace: {message}", file=sys.stderr)
    unexpected = [
        name for r in failed for name, _ in r.outcome.failures
        if name not in workloads.KNOWN_FAILURES
    ]
    if args.trace:
        metrics["ops_failed_frac"] = (len(failed) / len(results), "ratio")
    print(json.dumps({"env": environment()}))
    print(json.dumps({
        "correct": not unexpected and not problems,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
