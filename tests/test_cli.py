import json
import pathlib

import pytest

from tspvqe import encode_tsp_hamiltonian, energy_of_bitstring, load_instance, to_ising
from tspvqe.cli import main
from tspvqe.layouts import bits_to_string, index_to_bits
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
    ])
    def test_meaningless_inputs_exit_2(self, flags, capsys):
        assert main(["vqe", LANDSCAPE, "--no-timestamp"] + flags) == 2
        err = capsys.readouterr()
        assert err.out == "" and err.err.startswith("error: ")

    def test_timestamp_present_by_default(self, tmp_path, capsys):
        assert main(["vqe", LANDSCAPE, "--init", "zeros", "--seed", "2",
                     "--max-evals", "100"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "timestamp" in doc


def test_threads_env_var_sets_default(monkeypatch):
    from tspvqe.cli import build_parser

    monkeypatch.setenv("TSPVQE_THREADS", "3")
    args = build_parser().parse_args(["vqe", "x.json"])
    assert args.threads == 3
    monkeypatch.setenv("TSPVQE_THREADS", "junk")
    args = build_parser().parse_args(["vqe", "x.json"])
    assert args.threads == 1


def test_help_lists_commands(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    text = capsys.readouterr().out
    for cmd in ("encode", "solve", "audit", "spectrum", "landscape", "vqe"):
        assert cmd in text
