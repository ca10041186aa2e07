import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

import tspvqe
from tspvqe import (
    cli, dqes, encode_tsp_hamiltonian, encoder, energy_of_bitstring, load_instance, to_ising,
)
from tspvqe.cli import main
from tspvqe.layouts import bits_to_string, index_to_bits, term_bound
from tspvqe.rationals import rational_to_json

INSTANCE_DIR = pathlib.Path(__file__).resolve().parent.parent / "instances"
LANDSCAPE = str(INSTANCE_DIR / "landscape.json")
COUNTER = str(INSTANCE_DIR / "counterexample.json")


def run_json(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--no-timestamp", "-o", str(out)])
    assert code == 0
    return json.loads(out.read_text())


class TestEncode:
    def test_efficient_ising(self, tmp_path):
        doc = run_json(tmp_path, ["encode", LANDSCAPE, "--layout", "efficient",
                                  "--form", "ising"])
        assert doc["command"] == "encode"
        assert doc["n"] == 9
        assert doc["layout"] == "efficient"
        spins = {i for i, _ in doc["fields"]}
        spins |= {i for i, _, _ in doc["couplings"]} | {j for _, j, _ in doc["couplings"]}
        assert spins <= set(range(9))

    def test_full_binary(self, tmp_path):
        doc = run_json(tmp_path, ["encode", COUNTER, "--layout", "full",
                                  "--form", "binary"])
        assert doc["n_variables"] == 16
        assert doc["layout"] == "full"
        variables = {tuple(v) for v, _ in doc["linear"]}
        assert variables == {(v, t) for v in range(1, 5) for t in range(1, 5)}

    def test_penalty_override(self, tmp_path):
        doc = run_json(tmp_path, ["encode", COUNTER, "--penalties", "safe",
                                  "--form", "binary"])
        assert doc["penalty_a"] == 41

    @pytest.mark.parametrize("flags", [
        ["--penalty-a", "999"],
        ["--penalties", "lucas", "--penalty-a", "999"],
    ])
    def test_penalty_values_need_explicit_mode(self, flags, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["encode", COUNTER, "-o", str(out)] + flags) == 2
        assert "need --penalties explicit" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["encode", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        assert main(["encode", "/nonexistent.json"]) == 2


class TestSolve:
    def test_landscape(self, tmp_path):
        doc = run_json(tmp_path, ["solve", LANDSCAPE])
        assert doc["optimal_cost"] == 13
        assert doc["tour_count"] == 2
        assert [t["order"] for t in doc["tours"]] == [[1, 2, 4, 3], [1, 3, 4, 2]]

    def test_counterexample(self, tmp_path):
        doc = run_json(tmp_path, ["solve", COUNTER])
        assert doc["optimal_cost"] == 22

    def test_no_cycle(self, tmp_path):
        no_cycle = tmp_path / "path.json"
        no_cycle.write_text(json.dumps({
            "nodes": 4, "directed": False, "variant": "tsp",
            "edges": [[1, 2, 1], [2, 3, 1], [3, 4, 1]],
            "penalty_a": 5, "penalty_b": 1,
        }))
        doc = run_json(tmp_path, ["solve", str(no_cycle)])
        assert doc["optimal_cost"] is None
        assert doc["tours"] == []


class TestAudit:
    def test_lucas_penalties_flagged(self, tmp_path):
        doc = run_json(tmp_path, ["audit", COUNTER])
        assert doc["minimum_energy"] == 14
        assert doc["minimum_is_valid_tour"] is False
        assert doc["best_valid_energy"] == 22

    def test_safe_penalties_fix_it(self, tmp_path):
        doc = run_json(tmp_path, ["audit", COUNTER, "--penalties", "safe"])
        assert doc["minimum_energy"] == 22
        assert doc["minimum_is_valid_tour"] is True

    def test_cap_exit_code(self, tmp_path):
        doc_path = tmp_path / "big.json"
        edges = [[u, v, 1] for u in range(1, 7) for v in range(u + 1, 7)]
        doc_path.write_text(json.dumps({
            "nodes": 6, "directed": False, "variant": "tsp", "edges": edges,
            "penalty_a": 7, "penalty_b": 1,
        }))
        assert main(["audit", str(doc_path)]) == 3

    def test_negative_cap_exits_2(self, capsys):
        assert main(["audit", COUNTER, "--cap", "-1"]) == 2
        assert "non-negative" in capsys.readouterr().err


class TestSpectrumCsv:
    def test_efficient_spectrum(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", LANDSCAPE, "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "bitstring,energy"
        assert len(lines) == 513
        first_bits, first_energy = lines[1].split(",")
        assert first_energy == "13"
        assert first_bits in ("100001010", "001100010")
        energies = [int(line.split(",")[1]) for line in lines[1:]]
        assert energies == sorted(energies)

    def test_rational_energies_render_per_row(self, tmp_path):
        # p/q costs make p/q energies; every row must read as if rendered alone
        doc = {"nodes": 3, "directed": True, "variant": "tsp",
               "edges": [[u, v, f"{u + 2 * v}/{u + v}"] for u in range(1, 4)
                         for v in range(1, 4) if u != v],
               "penalty_a": "7/2", "penalty_b": "1/3"}
        path = tmp_path / "frac.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "spec.csv"
        assert main(["spectrum", str(path), "--layout", "full", "-o", str(out)]) == 0
        ising = to_ising(encode_tsp_hamiltonian(load_instance(path.read_text())))
        rows = sorted(
            (energy_of_bitstring(ising, index_to_bits(z, 9)), z) for z in range(512)
        )
        expected = "bitstring,energy\n" + "".join(
            f"{bits_to_string(index_to_bits(z, 9))},{rational_to_json(e)}\n"
            for e, z in rows
        )
        assert "/" in expected
        assert out.read_bytes() == expected.encode()

    def test_cap_above_hard_limit_exits_3(self, tmp_path, capsys):
        # N=6 has 25 efficient spins: --cap 30 must not lift the 24-spin limit
        doc_path = tmp_path / "big.json"
        edges = [[u, v, 1] for u in range(1, 7) for v in range(u + 1, 7)]
        doc_path.write_text(json.dumps({
            "nodes": 6, "directed": False, "variant": "tsp", "edges": edges,
            "penalty_a": 7, "penalty_b": 1,
        }))
        assert main(["spectrum", str(doc_path), "--cap", "30"]) == 3
        assert main(["audit", str(doc_path), "--cap", "40"]) == 3
        assert "capped at 24" in capsys.readouterr().err

    def test_negative_cap_exits_2(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", LANDSCAPE, "--cap", "-1", "-o", str(out)]) == 2
        assert "non-negative" in capsys.readouterr().err
        assert not out.exists()  # refused before the output is opened


@pytest.mark.parametrize("command", [
    ["spectrum"], ["spectrum", "--layout", "full"], ["landscape"], ["vqe"], ["audit"],
])
def test_huge_instance_refused_before_encoding(command, tmp_path, monkeypatch, capsys):
    # 100,000 nodes need about 10^10 spins: the cap is checked from the node
    # count, so no command may reach the encoders
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"nodes": 100_000, "directed": False, "variant": "tsp",
                                "edges": []}))

    def encode(*args, **kwargs):
        raise AssertionError("encoded before the spin cap was checked")

    monkeypatch.setattr(encoder, "_encode_full", encode)
    out = tmp_path / "out"
    start = time.perf_counter()
    code = main([command[0], str(path), *command[1:], "--no-timestamp", "-o", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 3, capsys.readouterr().err
    assert elapsed < 1.0
    assert "capped at 24 qubits" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("layout", ["full", "fixed", "efficient"])
def test_huge_instance_encode_refused_before_encoding(layout, tmp_path, monkeypatch, capsys):
    # 100,000 nodes would write about 2 * 10^15 terms: refused from the node
    # count with exit 3, not after building runs out of memory
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"nodes": 100_000, "directed": False, "variant": "tsp",
                                "edges": []}))

    def encode(*args, **kwargs):
        raise AssertionError("encoded before the term cap was checked")

    monkeypatch.setattr(encoder, "_encode_full", encode)
    out = tmp_path / "out"
    start = time.perf_counter()
    code = main(["encode", str(path), "--layout", layout, "--no-timestamp", "-o", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 3, capsys.readouterr().err
    assert elapsed < 1.0
    assert "encode capped at 131072 terms" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["audit", COUNTER],
    ["spectrum", LANDSCAPE, "--layout", "full"],
    ["spectrum", LANDSCAPE, "--layout", "efficient"],
    ["landscape", LANDSCAPE],
])
def test_commands_make_no_fraction_per_term(args, tmp_path):
    """From the encoder to the int64 kernels the coefficients stay scaled
    ints: these commands make fewer Fractions than the terms of a 4-node
    full layout.  Parsing, the oracle and the report make the few they do."""
    constructors = {Fraction.__new__.__code__}
    if hasattr(Fraction, "_from_coprime_ints"):  # arithmetic results, Python 3.12 on
        constructors.add(Fraction._from_coprime_ints.__func__.__code__)
    made = 0

    def count(frame, event, arg):
        nonlocal made
        if event == "call" and frame.f_code in constructors:
            made += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        code = main(args + ["--no-timestamp", "-o", str(tmp_path / "out")])
    finally:
        sys.setprofile(previous)
    assert code == 0
    assert 0 < made < term_bound("full", 4)


class TestLandscapeCsv:
    def test_landscape_rows(self, tmp_path):
        out = tmp_path / "landscape.csv"
        assert main(["landscape", LANDSCAPE, "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,positions,basis,element,energy"
        assert len(lines) == 6049
        energies = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
        assert min(energies) == pytest.approx(13.0, abs=1e-9)
        assert sum(1 for e in energies if abs(e - 13.0) <= 1e-9) == 2


class TestVqeCommand:
    def test_zeros_run(self, tmp_path):
        doc = run_json(tmp_path, ["vqe", LANDSCAPE, "--init", "zeros",
                                  "--seed", "2"])
        assert doc["mode"] == "zeros"
        assert doc["converged_count"] == 1
        assert doc["traces"][0]["energies"][0] == 66.0
        assert doc["decoded_tours"][0]["cost"] == 13

    def test_determinism_byte_identical(self, tmp_path):
        args = ["vqe", LANDSCAPE, "--init", "best-mubs", "--k", "3", "--seed", "5"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(args + ["--no-timestamp", "-o", str(a)]) == 0
        assert main(args + ["--no-timestamp", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flags", [
        ["--max-evals", "0"],
        ["--max-evals", "-5"],
        ["--init", "random", "--k", "0"],
        ["--tol", "-1"],
        ["--threads", "0"],
        ["--threads", "-4"],
    ])
    def test_meaningless_inputs_exit_2(self, flags, capsys):
        assert main(["vqe", LANDSCAPE, "--no-timestamp"] + flags) == 2
        err = capsys.readouterr()
        assert err.out == "" and err.err.startswith("error: ")

    @pytest.mark.parametrize("init", ["zeros", "best-mubs", "random"])
    def test_negative_seed_exits_2(self, init, capsys):
        assert main(["vqe", LANDSCAPE, "--no-timestamp", "--init", init, "--seed", "-1"]) == 2
        err = capsys.readouterr()
        assert err.out == "" and err.err == "error: seed must be non-negative, got -1\n"

    @pytest.mark.parametrize("optimizer", ["rotation_descent", "nelder_mead"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--tol", "--rho-start", "--rho-end"])
    def test_non_finite_floats_exit_2(self, flag, value, optimizer, capsys):
        flags = [flag, value, "--optimizer", optimizer, "--max-evals", "20"]
        assert main(["vqe", LANDSCAPE, "--no-timestamp"] + flags) == 2
        err = capsys.readouterr()
        assert err.out == "" and err.err.startswith("error: ") and "finite" in err.err

    def test_rotation_probe_refused_before_encoding(self, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("reached with a refused optimizer")

        monkeypatch.setattr(dqes, "spin_form", unreachable)
        monkeypatch.setattr(dqes, "compute_landscape", unreachable)
        assert main(["vqe", LANDSCAPE, "--init", "best-mubs", "--rho-start", "1.5"]) == 2
        err = capsys.readouterr()
        assert err.out == ""
        assert err.err == ("error: rotation_descent needs rho_start in (0, 1); "
                           "the probe offset is pi * rho_start\n")

    @pytest.mark.parametrize("flag", ["--rho-start", "--rho-end"])
    def test_zero_simplex_and_resolution_exit_2(self, flag, capsys):
        argv = ["vqe", LANDSCAPE, "--no-timestamp", "--optimizer", "nelder_mead", flag, "0"]
        assert main(argv) == 2
        err = capsys.readouterr()
        name = flag[2:].replace("-", "_")
        assert err.out == "" and err.err == f"error: {name} must be finite and positive, got 0.0\n"

    def test_choices_are_the_library_tuples(self):
        parser = cli.build_parser()
        [commands] = parser._subparsers._group_actions
        options = commands.choices["vqe"]._option_string_actions
        assert options["--init"].choices is dqes.MODES
        assert options["--entangler"].choices is tspvqe.vqe.ENTANGLERS
        assert options["--optimizer"].choices is tspvqe.vqe.METHODS
        args = parser.parse_args(["vqe", LANDSCAPE])
        assert (args.init, args.entangler, args.optimizer) == (
            "zeros", "linear_rzz", "rotation_descent")
        assert parser.parse_args(["vqe", LANDSCAPE, "--init", "best-mubs"]).init == "best_mubs"

    def test_layers_above_cap_exit_3(self, capsys):
        start = time.perf_counter()
        assert main(["vqe", LANDSCAPE, "--layers", "1000000"]) == 3
        assert time.perf_counter() - start < 1
        assert "ansatz capped at 64 layers" in capsys.readouterr().err

    def test_timestamp_present_by_default(self, tmp_path, capsys):
        assert main(["vqe", LANDSCAPE, "--init", "zeros", "--seed", "2",
                     "--max-evals", "100"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "timestamp" in doc


def test_threads_env_var_sets_default(monkeypatch, tmp_path):
    """``$TSPVQE_THREADS`` is read each time a vqe command runs, though the
    parser is built once per process; an explicit --threads wins."""
    seen = []

    def record(*args, threads, **kwargs):
        seen.append(threads)
        return SimpleNamespace(to_dict=dict)

    monkeypatch.setattr(dqes, "run_experiment", record)
    argv = ["vqe", LANDSCAPE, "-o", str(tmp_path / "out.json")]
    for value in ("3", "junk", "2"):
        monkeypatch.setenv("TSPVQE_THREADS", value)
        assert main(argv) == 0
    assert main(argv + ["--threads", "5"]) == 0
    monkeypatch.delenv("TSPVQE_THREADS")
    assert main(argv) == 0
    assert seen == [3, 1, 2, 5, 1]


def test_reports_are_strict_json(tmp_path):
    args = SimpleNamespace(output=str(tmp_path / "out.json"), no_timestamp=True)
    with pytest.raises(ValueError):
        cli._emit_report(args, "vqe", {"convergence_tol": float("nan")})


def test_help_shows_the_threads_default(capsys):
    with pytest.raises(SystemExit):
        main(["vqe", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "--threads THREADS worker processes (default: $TSPVQE_THREADS or 1)" in text
    assert "or 1) (default" not in text


def test_help_lists_commands(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    text = capsys.readouterr().out
    for cmd in ("encode", "solve", "audit", "spectrum", "landscape", "vqe"):
        assert cmd in text


# prints a line that the text layer holds back, then runs one command twice
# into standard output: with no -o, then with -o -
_STDOUT_RUNNER = """\
import sys
from tspvqe.cli import main
sys.stdout.reconfigure(write_through=False)
print("first line")
argv = sys.argv[1:]
sys.exit(main(argv) or main(argv + ["-o", "-"]))
"""


@pytest.mark.parametrize("command", [
    ["spectrum", LANDSCAPE], ["landscape", LANDSCAPE], ["solve", LANDSCAPE],
])
def test_stdout_gets_the_bytes_of_the_output_file(command, tmp_path):
    # standard output is written through its binary buffer, in order after
    # the text layer's pending output; a real process, not a captured stream
    out = tmp_path / "out"
    assert main(command + ["--no-timestamp", "-o", str(out)]) == 0
    src = str(pathlib.Path(tspvqe.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _STDOUT_RUNNER, *command, "--no-timestamp"],
                          capture_output=True, env=env, check=True)
    assert done.stdout == b"first line\n" + 2 * out.read_bytes()


def test_text_only_stdout_gets_the_decoded_text(tmp_path):
    out = tmp_path / "out.csv"
    assert main(["landscape", LANDSCAPE, "-o", str(out)]) == 0
    with contextlib.redirect_stdout(io.StringIO()) as stream:
        assert main(["landscape", LANDSCAPE]) == 0
    assert stream.getvalue() == out.read_text()
