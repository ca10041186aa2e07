"""CLI outputs for the shipped fixture instances must match their golden files
byte for byte (run with --no-timestamp, like the goldens were generated)."""

import pathlib

import pytest

from tspvqe.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent / "instances"

CASES = [
    (["solve", "landscape.json"], "landscape_solve.json"),
    (["solve", "counterexample.json"], "counterexample_solve.json"),
    (["audit", "landscape.json"], "landscape_audit.json"),
    (["audit", "counterexample.json"], "counterexample_audit.json"),
    (["audit", "counterexample.json", "--penalties", "safe"],
     "counterexample_audit_safe.json"),
    (["encode", "landscape.json", "--layout", "efficient", "--form", "ising"],
     "landscape_efficient_ising.json"),
    (["spectrum", "landscape.json"], "landscape_spectrum.csv"),
    (["spectrum", "counterexample.json", "--penalties", "safe"],
     "counterexample_spectrum_safe.csv"),
    # exact since its energies come from integer keys, with no BLAS call
    (["landscape", "landscape.json"], "landscape_landscape.csv"),
]


@pytest.mark.parametrize("args,golden", CASES, ids=[c[1] for c in CASES])
def test_golden_output(tmp_path, args, golden):
    out = tmp_path / "out.json"
    argv = [args[0], str(ROOT / args[1])] + args[2:] + ["--no-timestamp", "-o", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (ROOT / "golden" / golden).read_bytes()
