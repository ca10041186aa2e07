"""The package's public surface: its ``__all__`` and the README's examples."""

import json
import pathlib
import re
import shlex
from fractions import Fraction

import tspvqe
from tspvqe import cli

REPO = pathlib.Path(__file__).resolve().parent.parent


def test_star_import_binds_all():
    namespace = {}
    exec("from tspvqe import *", namespace)
    assert sorted(set(tspvqe.__all__)) == sorted(tspvqe.__all__)
    assert [name for name in tspvqe.__all__ if name not in namespace] == []


def test_readme_library_use_runs_as_written(monkeypatch, capsys):
    readme = (REPO / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "# Fraction(13), 2 bitstrings" in block
    assert "# independent oracle: 13" in block
    monkeypatch.chdir(REPO)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    energy, bitstrings, cost = namespace["energy"], namespace["bitstrings"], namespace["cost"]
    assert energy == Fraction(13) and isinstance(energy, Fraction)
    assert len(bitstrings) == 2
    assert cost == 13
    report = namespace["report"]
    assert capsys.readouterr().out == f"{report.converged_count} / {report.n_runs}\n"


def test_readme_quick_start_runs_as_written(monkeypatch, capsys, tmp_path):
    """Every ``tspvqe`` line of the Quick start exits 0, with its ``-o`` file
    written under ``tmp_path``, and prints or writes what the README says."""
    readme = (REPO / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("tspvqe ")]
    assert [argv[1] for argv in lines] == [
        "solve", "audit", "audit", "encode", "spectrum", "landscape", "vqe"]
    monkeypatch.chdir(REPO)
    printed, written = {}, {}
    for _, *argv in lines:
        if "-o" in argv:
            at = argv.index("-o") + 1
            written[argv[0]] = argv[at] = str(tmp_path / argv[at])
        assert cli.main(argv) == 0, argv
        printed.setdefault(argv[0], capsys.readouterr().out)
    audit = json.loads(printed["audit"])  # the first audit: the weak penalties
    assert audit["minimum_energy"] == 14
    assert audit["minimum_is_valid_tour"] is False
    assert audit["best_valid_energy"] == 22
    read = {command: pathlib.Path(path).read_text() for command, path in written.items()}
    assert len(read["spectrum"].splitlines()) == 1 + 512  # a header, then one row per state
    assert len(read["landscape"].splitlines()) == 1 + 6048
    assert json.loads(read["vqe"])["n_runs"] == 10
