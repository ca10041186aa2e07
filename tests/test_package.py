"""The package's public surface: its ``__all__`` and the README's library example."""

import pathlib
import re
from fractions import Fraction

import tspvqe

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
