import contextlib
import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import tspvqe
from reference import energy_of_bitstring, landscape_fractions
from tspvqe import (
    MubInit,
    cli,
    dqes,
    encode_efficient,
    encode_tsp_hamiltonian,
    encoder,
    layouts,
    load_instance,
    oracle,
    to_ising,
    vqe,
)
from tspvqe.cli import main
from tspvqe.layouts import bits_to_string, index_to_bits, term_bound
from tspvqe.rationals import rational_to_json

INSTANCE_DIR = pathlib.Path(__file__).resolve().parent.parent / "instances"
LANDSCAPE = str(INSTANCE_DIR / "landscape.json")
COUNTER = str(INSTANCE_DIR / "counterexample.json")


def _child_env():
    """The environment of a child interpreter that imports this ``tspvqe``."""
    src = str(pathlib.Path(tspvqe.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


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

    def test_directory_as_instance_exits_2(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path)]) == 2
        err = capsys.readouterr()
        assert err.out == "" and err.err.startswith("error: ") and "Traceback" not in err.err

    def test_directory_as_output_exits_2(self, tmp_path, capsys):
        assert main(["solve", LANDSCAPE, "-o", str(tmp_path)]) == 2
        err = capsys.readouterr()
        assert err.out == "" and err.err.startswith("error: ") and "Traceback" not in err.err


@pytest.mark.parametrize("command", [["vqe", "--max-evals", "20"], ["landscape"]])
def test_output_path_checked_before_any_work(command, tmp_path, monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("ran before the output path was checked")

    monkeypatch.setattr(dqes, "run_experiment", unreachable)
    monkeypatch.setattr(encoder, "spin_form", unreachable)
    assert main([command[0], LANDSCAPE, *command[1:], "-o", str(tmp_path)]) == 2
    err = capsys.readouterr()
    assert err.out == "" and err.err.startswith("error: ") and "Is a directory" in err.err
    # the check neither truncates an existing file nor leaves a new one behind
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    kept, new = tmp_path / "kept.json", tmp_path / "new.json"
    kept.write_bytes(b"earlier output\n")
    for out in (kept, new):
        assert main([command[0], str(bad), *command[1:], "-o", str(out)]) == 2
    assert kept.read_bytes() == b"earlier output\n"
    assert not new.exists()


def test_output_through_a_symlink_leaves_no_stray_file(tmp_path):
    # the check removes the file it made through the link, never the link
    target, link = tmp_path / "target.json", tmp_path / "link"
    link.symlink_to(target)
    assert main(["solve", str(tmp_path / "missing.json"), "-o", str(link)]) == 2
    assert link.is_symlink() and not target.exists()
    assert main(["solve", LANDSCAPE, "--no-timestamp", "-o", str(link)]) == 0
    written = target.read_bytes()
    assert json.loads(written)["optimal_cost"] == 13
    assert main(["solve", str(tmp_path / "missing.json"), "-o", str(link)]) == 2
    assert target.read_bytes() == written


def test_output_to_dev_stdout_on_a_pipe(tmp_path):
    # /dev/stdout resolves to a pipe no path names; the check must not
    # take it for a file it made and try to remove it
    out = tmp_path / "out.json"
    assert main(["solve", LANDSCAPE, "--no-timestamp", "-o", str(out)]) == 0
    done = subprocess.run(
        [sys.executable, "-m", "tspvqe.cli", "solve", LANDSCAPE, "--no-timestamp",
         "-o", "/dev/stdout"], capture_output=True, env=_child_env())
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == out.read_bytes()


_COMMANDS = {
    "encode": ["--form", "ising"], "solve": [], "audit": [], "spectrum": [], "landscape": [],
    "vqe": ["--k", "2", "--max-evals", "5"],
}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_every_command_reads_both_formats_under_any_name(command, tmp_path):
    # the format is told from the text, so the file name plays no part
    for name in (LANDSCAPE, COUNTER):
        source = pathlib.Path(name)
        edge_list = tspvqe.save_instance(load_instance(source.read_bytes()), "edge_list")
        copies = {"edges.txt": edge_list, "edges.edges": edge_list, "edges": edge_list,
                  "json.txt": source.read_text()}
        for copy, text in copies.items():
            (tmp_path / copy).write_text(text)
        outputs = []
        for path in [source, *(tmp_path / copy for copy in copies)]:
            out = tmp_path / "out"
            argv = [command, str(path), *_COMMANDS[command], "--no-timestamp", "-o", str(out)]
            assert main(argv) == 0, path.name
            outputs.append(out.read_bytes())
        assert outputs[1:] == outputs[:1] * len(copies)


@pytest.mark.parametrize("text, message", [
    ("", "empty edge-list input"),
    ("[[1, 2, 1]]", "top level: expected a JSON object"),
    ("a line of words", "line 1: header needs 'N directed variant A B'"),
], ids=["empty", "json-array", "words"])
def test_text_of_neither_format_exits_2(text, message, tmp_path, capsys):
    path = tmp_path / "instance"
    path.write_text(text)
    for command in _COMMANDS:
        assert main([command, str(path)]) == 2
        err = capsys.readouterr()
        assert err.out == "" and err.err == f"error: {message}\n"


@pytest.mark.parametrize("edges", [
    '[[1, 2, "1e4300"], [2, 3, 1], [1, 3, 1]]',  # 10^4300: 4,301 digits
    f'[[1, 2, {"9" * 4301}], [2, 3, 1], [1, 3, 1]]',  # an integer literal of 4,301 digits
], ids=["exponent", "integer"])
@pytest.mark.parametrize("command", [
    ["solve"], ["encode", "--form", "ising"], ["encode"], ["audit"], ["landscape"],
    ["vqe", "--max-evals", "5"], ["spectrum"],
])
def test_a_cost_past_4300_digits_exits_2(command, edges, tmp_path, capsys):
    # every command refuses it as it reads the instance, with no traceback
    path = tmp_path / "big.json"
    path.write_text(f'{{"nodes": 3, "directed": false, "variant": "tsp", "edges": {edges}}}')
    out = tmp_path / "out"
    assert main([command[0], str(path), *command[1:], "--no-timestamp", "-o", str(out)]) == 2
    err = capsys.readouterr()
    assert err.out == "" and err.err.startswith("error: ") and "4300 digits" in err.err
    assert not out.exists()


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

    @pytest.mark.parametrize("variant", ["tsp", "cycle"])
    def test_one_node_minimum_is_the_tour(self, variant, tmp_path):
        doc_path = tmp_path / "one.json"
        doc_path.write_text(json.dumps(
            {"nodes": 1, "directed": False, "variant": variant, "edges": []}))
        doc = run_json(tmp_path, ["audit", str(doc_path)])
        assert doc["minimum_energy"] == 0
        assert doc["minimum_is_valid_tour"] is True
        assert doc["minimum_tour"] == [1]
        assert doc["minimum_violations"] == []


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
        # N=6 has 25 efficient spins and 36 full ones, above the 24-spin limit
        doc_path = tmp_path / "big.json"
        edges = [[u, v, 1] for u in range(1, 7) for v in range(u + 1, 7)]
        doc_path.write_text(json.dumps({
            "nodes": 6, "directed": False, "variant": "tsp", "edges": edges,
            "penalty_a": 7, "penalty_b": 1,
        }))
        assert main(["spectrum", str(doc_path)]) == 3
        assert main(["audit", str(doc_path)]) == 3
        err = capsys.readouterr().err
        assert "spectrum capped at 24 qubits, got 25" in err
        assert "audit capped at 24 qubits, got 36" in err


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


@pytest.mark.parametrize("layout", [row.flag for row in layouts.LAYOUTS])
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


@pytest.mark.parametrize("argv", [
    ["vqe", "--rho-start", "0.5"],
    ["vqe", "--rho-end", "1e-4"],
    ["vqe", "--tol", "1e-6"],
    ["audit", "--cap", "24"],
    ["spectrum", "--cap", "24"],
    *([command, "--format", "json"] for command in _COMMANDS),
], ids=["vqe-rho-start", "vqe-rho-end", "vqe-tol", "audit-cap", "spectrum-cap",
        *(f"{command}-format" for command in _COMMANDS)])
def test_removed_flags_refused_by_the_parser(argv, capsys):
    # rotation descent's settings are constants of vqe, SPIN_CAP the one spin
    # cap, and the instance format is told from the text
    with pytest.raises(SystemExit) as exc:
        main([argv[0], LANDSCAPE, *argv[1:]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]} {argv[2]}" in capsys.readouterr().err


def _write_past_the_digit_limit(path, kind):
    """A 3-node tsp the parser accepts whose derived rationals pass 4,300
    digits: costs of 4,300 nines, whose tour cost has 4,301, or costs 1/q of
    coprime q of about 1,450 digits each, whose tour cost's denominator has
    4,379."""
    if kind == "nines":
        costs = [10**4300 - 1] * 3
    else:
        costs = [f"1/{q}" for q in (3**3000, 5**2100, 7**1750)]
    edges = [[u, v, cost] for (u, v), cost in zip(((1, 2), (1, 3), (2, 3)), costs)]
    path.write_text(json.dumps({"nodes": 3, "directed": False, "variant": "tsp",
                                "edges": edges, "penalty_a": 1, "penalty_b": 1}))


@pytest.mark.parametrize("kind", ["nines", "pq"])
@pytest.mark.parametrize("argv", [
    ["solve"], ["encode"], ["encode", "--form", "ising"],
    ["encode", "--layout", "full", "--form", "ising"], ["audit"], ["spectrum"],
    ["landscape"], ["vqe", "--max-evals", "5"],
], ids=["solve", "encode", "encode-ising", "encode-full-ising", "audit", "spectrum",
        "landscape", "vqe"])
def test_derived_rationals_past_the_digit_limit_write_or_are_refused(argv, kind, tmp_path,
                                                                     capsys):
    path, out = tmp_path / "big.json", tmp_path / "out"
    _write_past_the_digit_limit(path, kind)
    code = main([argv[0], str(path), *argv[1:], "--no-timestamp", "-o", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ")
        assert not out.exists()  # refused before the output is opened
    if argv[0] == "solve":  # the tour cost passes the limit
        assert err == ("error: a derived rational passes 4300 digits in its numerator or "
                       "denominator, the most that can be written\n")


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("variant", ["tsp", "hamiltonian_cycle", "hamiltonian_path"])
def test_layout_refusals_name_the_layout_and_the_variant(variant, directed, tmp_path, capsys):
    """Every command that encodes serves the variants of its layout's row and
    refuses the others with exit 2, naming the layout and the variant."""
    edges = [[u, v, u + v] for u in range(1, 5) for v in range(1, 5)
             if u < v or directed and u > v]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"nodes": 4, "directed": directed, "variant": variant,
                                "edges": edges, "penalty_a": 50, "penalty_b": 1}))
    commands = [([command, "--layout", row.flag], row) for command in ("encode", "spectrum")
                for row in layouts.LAYOUTS]
    commands += [(["landscape"], layouts.lookup(dqes.LAYOUT)),
                 (["vqe", "--max-evals", "20"], layouts.lookup(dqes.LAYOUT))]
    for (command, *flags), row in commands:
        argv = [command, str(path), *flags, "--no-timestamp", "-o", str(tmp_path / "out")]
        code = main(argv)
        err = capsys.readouterr().err
        if variant in row.variants:
            assert code == 0, (argv, err)
        else:
            assert code == 2, (argv, err)
            assert err.startswith("error: ") and row.name in err and variant in err, err


@pytest.mark.parametrize("command", ["landscape", "vqe"])
def test_one_node_refusal_names_the_efficient_layout(command, tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"nodes": 1, "directed": False, "variant": "tsp", "edges": []}))
    out = tmp_path / "out"
    assert main([command, str(path), "--no-timestamp", "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: the efficient layout needs at least 2 nodes, got 1\n")
    assert not out.exists()


def test_layout_choices_are_the_table_flags():
    parser = cli.build_parser()
    [commands] = parser._subparsers._group_actions
    for command in ("encode", "spectrum"):
        option = commands.choices[command]._option_string_actions["--layout"]
        assert option.choices == ("full", "fixed", "efficient")
        assert option.choices == tuple(row.flag for row in layouts.LAYOUTS)
        assert option.default == "efficient"


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

    def test_best_mub_starts_are_the_exact_first_ten(self, tmp_path):
        # at A = 2^55 the support energies pass 2^50, so the landscape keys
        # are Python ints; float energies at that size tie records apart
        a = 2**55
        doc = run_json(tmp_path, ["vqe", LANDSCAPE, "--init", "best-mubs", "--k", "10",
                                  "--penalties", "explicit", "--penalty-a", str(a),
                                  "--penalty-b", "1", "--max-evals", "20"])
        with open(LANDSCAPE, "rb") as handle:
            instance = load_instance(handle).with_penalties(Fraction(a), Fraction(1))
        ising = to_ising(encode_efficient(instance))
        exact = landscape_fractions(ising)
        first = sorted(range(len(exact)), key=lambda i: (exact[i], i))[:10]
        records = [dqes.compute_landscape(ising)[i] for i in first]
        assert [t["init"] for t in doc["traces"]] == [
            MubInit(positions=r.positions, basis=r.basis, element=r.element).label()
            for r in records
        ]

    @pytest.mark.parametrize("flags", [
        ["--max-evals", "0"],
        ["--max-evals", "-5"],
        ["--init", "random", "--k", "0"],
        ["--init", "best-mubs", "--k", "6049"],
        ["--threads", "0"],
        ["--threads", "-4"],
        ["--init", "zeros", "--k", "0"],  # one run, yet k is checked
    ])
    def test_meaningless_inputs_exit_2(self, flags, capsys):
        assert main(["vqe", LANDSCAPE, "--no-timestamp"] + flags) == 2
        err = capsys.readouterr()
        assert err.out == "" and err.err.startswith("error: ")

    @pytest.mark.parametrize("init", ["zeros", "best-mubs", "random"])
    def test_negative_seed_exits_2(self, init, capsys):
        assert main(["vqe", LANDSCAPE, "--no-timestamp", "--init", init, "--seed", "-1"]) == 2
        err = capsys.readouterr()
        assert err.out == "" and err.err == "error: seed must be at least 0, got -1\n"

    def test_rotation_probe_refused_before_encoding(self, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("reached with a refused evaluation cap")

        monkeypatch.setattr(dqes, "spin_form", unreachable)
        monkeypatch.setattr(dqes, "compute_landscape", unreachable)
        assert main(["vqe", LANDSCAPE, "--init", "best-mubs", "--max-evals", "0"]) == 2
        err = capsys.readouterr()
        assert err.out == ""
        assert err.err == "error: max_evals must be at least 1, got 0\n"

    def test_choices_are_the_library_tuples(self):
        parser = cli.build_parser()
        [commands] = parser._subparsers._group_actions
        options = commands.choices["vqe"]._option_string_actions
        assert options["--init"].choices is dqes.MODES
        assert options["--entangler"].choices is tspvqe.vqe.ENTANGLERS
        assert "--optimizer" not in options
        args = parser.parse_args(["vqe", LANDSCAPE])
        assert (args.init, args.entangler) == ("zeros", "linear_rzz")
        assert parser.parse_args(["vqe", LANDSCAPE, "--init", "best-mubs"]).init == "best_mubs"

    def test_ring_below_3_qubits_refused_before_encoding(self, tmp_path, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("reached with a refused ansatz")

        # 2 nodes: one efficient qubit, whose ring would pair qubit 0 with itself
        doc_path = tmp_path / "two.json"
        doc_path.write_text(json.dumps({"nodes": 2, "directed": False, "variant": "tsp",
                                        "edges": [[1, 2, 3]]}))
        monkeypatch.setattr(dqes, "spin_form", unreachable)
        assert main(["vqe", str(doc_path), "--entangler", "ring_rzz"]) == 2
        err = capsys.readouterr()
        assert err.out == "" and err.err == "error: ring_rzz needs at least 3 qubits, got 1\n"

    def test_layers_above_cap_exit_3(self, capsys):
        start = time.perf_counter()
        assert main(["vqe", LANDSCAPE, "--layers", "1000000"]) == 3
        assert time.perf_counter() - start < 1
        assert "ansatz capped at 64 layers" in capsys.readouterr().err

    @pytest.mark.parametrize("options, message", [
        (["--init", "random", "--k", "1000000000"],
         "1000000000 runs x (2000 evaluations + 70 parameters)"),
        (["--init", "zeros", "--max-evals", "1000000000000"],
         "1 runs x (1000000000000 evaluations + 70 parameters)"),
    ], ids=["k", "max-evals"])
    def test_batch_above_record_cap_exit_3(self, tmp_path, monkeypatch, capsys, options,
                                           message):
        """A batch whose histories and parameters would pass
        ``layouts.RECORD_CAP`` is refused before anything is encoded."""
        def unreachable(*args, **kwargs):
            raise AssertionError("reached with an oversized batch")

        monkeypatch.setattr(dqes, "spin_form", unreachable)
        out = tmp_path / "out.json"
        start = time.perf_counter()
        assert main(["vqe", LANDSCAPE, *options, "--no-timestamp", "-o", str(out)]) == 3
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: a VQE batch is capped at {layouts.RECORD_CAP} "
                              "recorded numbers")
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_timestamp_present_by_default(self, tmp_path, capsys):
        assert main(["vqe", LANDSCAPE, "--init", "zeros", "--seed", "2",
                     "--max-evals", "100"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "timestamp" in doc


def _field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


class TestReportKeys:
    """A report's JSON keys are its dataclass's field names, at every level."""

    def test_solve(self, tmp_path):
        doc = run_json(tmp_path, ["solve", LANDSCAPE])
        assert set(doc) == {"command", "optimal_cost", "tours", "tour_count"}
        assert doc["tours"]
        assert all(set(tour) == _field_names(oracle.Tour) for tour in doc["tours"])

    def test_audit(self, tmp_path):
        doc = run_json(tmp_path, ["audit", COUNTER])
        assert set(doc) == {"command"} | _field_names(encoder.AuditReport)
        assert doc["minimum_violations"]
        assert all(set(v) == _field_names(oracle.Violation) for v in doc["minimum_violations"])

    def test_vqe(self, tmp_path):
        # best-MUB starts decode to tours, random starts at 10 evaluations do not
        decoded = []
        for init, max_evals in (("best-mubs", "20"), ("random", "10")):
            doc = run_json(tmp_path, ["vqe", LANDSCAPE, "--init", init, "--k", "2",
                                      "--max-evals", max_evals])
            assert set(doc) == {"command"} | _field_names(dqes.ExperimentReport)
            assert all(set(trace) == _field_names(vqe.VqeTrace) for trace in doc["traces"])
            decoded += doc["decoded_tours"]
        tours = [d for d in decoded if d["valid"]]
        reports = [d for d in decoded if not d["valid"]]
        assert tours and reports
        assert all(set(tour) == _field_names(oracle.Tour) for tour in tours)
        assert all(set(report) == _field_names(oracle.ViolationReport) for report in reports)
        assert all(set(v) == _field_names(oracle.Violation)
                   for report in reports for v in report["violations"])

    def test_json_default(self):
        assert cli.json_default(Fraction(3, 2)) == "3/2"
        assert cli.json_default(Fraction(4)) == 4
        # shallow: the field values are left for json.dumps to write in turn
        tour = oracle.Tour(order=(1, 2), cost=Fraction(1, 2), valid=True)
        assert cli.json_default(tour) == {"order": (1, 2), "cost": Fraction(1, 2), "valid": True}
        for value in (np.int64(1), object(), oracle.Tour):
            with pytest.raises(TypeError):
                cli.json_default(value)


def test_reports_are_strict_json(tmp_path):
    args = SimpleNamespace(output=str(tmp_path / "out.json"), no_timestamp=True)
    with pytest.raises(ValueError):
        cli._emit_report(args, "vqe", {"convergence_tol": float("nan")})


def test_help_shows_the_threads_default(capsys):
    with pytest.raises(SystemExit):
        main(["vqe", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert ("--threads THREADS most worker processes, one per CPU at most, none from 14 "
            "qubits up (default: 1)") in text
    assert "(default: 1) (default" not in text


def test_help_states_each_default_once(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one line per option
    for command in ("encode", "solve", "audit", "spectrum", "landscape", "vqe"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        lines = capsys.readouterr().out.splitlines()
        assert "output path (default: stdout)" in " ".join(lines)
        assert [line for line in lines if line.count("(default") > 1] == []


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
    done = subprocess.run([sys.executable, "-c", _STDOUT_RUNNER, *command, "--no-timestamp"],
                          capture_output=True, env=_child_env(), check=True)
    assert done.stdout == b"first line\n" + 2 * out.read_bytes()


def test_text_only_stdout_gets_the_decoded_text(tmp_path):
    out = tmp_path / "out.csv"
    assert main(["landscape", LANDSCAPE, "-o", str(out)]) == 0
    with contextlib.redirect_stdout(io.StringIO()) as stream:
        assert main(["landscape", LANDSCAPE]) == 0
    assert stream.getvalue() == out.read_text()


def test_closed_stdout_exits_1_without_a_traceback():
    # the landscape CSV (6,048 rows) is larger than a pipe holds, so the
    # command is still writing when the reader closes the pipe
    reader = subprocess.Popen(
        [sys.executable, "-m", "tspvqe.cli", "landscape", LANDSCAPE],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    assert len(reader.stdout.read(20)) == 20
    reader.stdout.close()
    assert reader.wait(timeout=60) == 1
    assert reader.stderr.read() == b""
    reader.stderr.close()
