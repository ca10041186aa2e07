"""The package's public surface: its ``__all__``, what importing it loads, and
the README's examples."""

import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

import tspvqe
from tspvqe import cli

REPO = pathlib.Path(__file__).resolve().parent.parent
# prints which tspvqe submodules are in sys.modules, and whether numpy is
_LOADED = """
import json
print(json.dumps([sorted(m for m in sys.modules if m.startswith("tspvqe.")),
                  "numpy" in sys.modules]))
"""


def _fresh(code, *argv):
    """(tspvqe submodules, whether numpy) loaded by ``code``, run with
    ``sys`` imported and ``argv`` in a fresh interpreter, which imports the
    tspvqe these tests run on."""
    src = str(pathlib.Path(tspvqe.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", "import sys\n" + code + _LOADED, *argv],
                          capture_output=True, text=True, env=env, cwd=REPO)
    assert done.returncode == 0, done.stderr
    return tuple(json.loads(done.stdout.splitlines()[-1]))


def test_import_loads_no_submodule_and_no_numpy():
    assert _fresh("import tspvqe") == ([], False)


def test_a_name_loads_its_home_module_alone():
    assert _fresh("from tspvqe import build_mubs_3q") == (["tspvqe.quantum"], True)


def test_solve_loads_no_numpy(tmp_path):
    out = tmp_path / "solve.json"
    code = "from tspvqe import cli\nassert cli.main(sys.argv[1:]) == 0"
    submodules, numpy = _fresh(code, "solve", "instances/landscape.json", "--no-timestamp",
                               "-o", str(out))
    assert not numpy
    assert "tspvqe.oracle" in submodules
    assert json.loads(out.read_text())["optimal_cost"] == 13


def test_every_name_is_its_home_modules_object():
    code = """
import importlib
import tspvqe
for name in tspvqe.__all__:
    value = getattr(tspvqe, name)
    assert value.__module__.startswith("tspvqe."), name
    assert getattr(importlib.import_module(value.__module__), name) is value, name
    assert vars(tspvqe)[name] is value, name  # bound on first read
"""
    _fresh(code)


def test_dir_lists_all_and_loads_nothing():
    code = "import tspvqe\nassert set(tspvqe.__all__) <= set(dir(tspvqe))"
    assert _fresh(code) == ([], False)


def test_unknown_name_is_an_attribute_error():
    code = """
import tspvqe
try:
    tspvqe.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'tspvqe' has no attribute 'no_such_name'", exc
else:
    raise AssertionError("no AttributeError")
"""
    assert _fresh(code) == ([], False)
    with pytest.raises(ImportError):
        exec("from tspvqe import no_such_name", {})


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
