"""Smoke test of the benchmark itself.

Run from the root of a tspvqe checkout::

    python3 perfbench/smoke.py

For every workload, shrunk with ``--smoke``, it runs ``run.py`` once
untraced and twice traced with the same seed, and checks that

* the last line of output has exactly the keys correct, attempted, failed
  and metrics, with ``correct`` true;
* exactly the end-to-end (untraced) or per-layer (traced) metrics that
  ``BENCHMARK.json`` lists are emitted, each with its listed unit;
* the deterministic counts are identical in the two traced runs;

and that ``run.py`` exits non-zero without a result in a directory holding
only ``BENCHMARK.json`` and ``perfbench/``.  Exits 1 at the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
RUN = os.path.join("perfbench", "run.py")
DETERMINISTIC = (
    "kernels.ansatz_calls",
    "vqe.evals",
    "kernels.enum_states",
    "dqes.landscape_records",
    "encoder.terms",
)


def fail(message):
    print(f"smoke: FAIL {message}", file=sys.stderr)
    sys.exit(1)


def run(workload, trace, cwd=ROOT):
    argv = [sys.executable, RUN, "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc, label):
    if proc.returncode != 0:
        fail(f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        fail(f"{label}: {result['correct']=} {result['attempted']=}\n{proc.stderr}")
    return result


def check_metrics(result, expected, label):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        fail(f"{label}: missing {missing}, unexpected {extra}, wrong unit {wrong}")


def check_bare_directory():
    bare = os.path.join(ROOT, ".perfbench_out", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("certify", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not os.listdir(os.path.dirname(bare)):
            os.rmdir(os.path.dirname(bare))
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    for workload in (w["name"] for w in bench["workloads"]):
        check_metrics(result_of(run(workload, 0), f"{workload} untraced"),
                      bench["end_to_end"], f"{workload} untraced")
        counts = []
        for attempt in (1, 2):
            label = f"{workload} traced #{attempt}"
            result = result_of(run(workload, 1), label)
            check_metrics(result, bench["per_layer"], label)
            counts.append({n: result["metrics"][n]["value"] for n in DETERMINISTIC})
        if counts[0] != counts[1]:
            fail(f"{workload}: deterministic counts drifted: {counts[0]} vs {counts[1]}")
        print(f"smoke: {workload} ok {counts[0]}")
    check_bare_directory()
    print("smoke: bare directory refused ok")


if __name__ == "__main__":
    main()
