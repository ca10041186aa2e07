"""Command-line interface.

Subcommands: encode, solve, audit, spectrum, landscape, vqe.  Every command
reads an instance file (JSON or edge-list), is deterministic given its flags
and seed, and emits JSON or CSV.  Reports carry a timestamp unless
``--no-timestamp`` is passed, so reruns can be compared byte for byte.

The commands pass their flags through; the library makes the decisions.
``landscape`` and ``vqe`` encode in ``dqes.LAYOUT``, ``encode`` and
``spectrum`` in their ``--layout``, whose choices are the flags of the
``layouts.LAYOUTS`` rows, ``audit`` in the full one.  The
``--init`` and ``--entangler`` choices are ``dqes.MODES`` and
``vqe.ENTANGLERS``, each first entry the default.  ``vqe`` runs rotation
descent at the settings of the ``vqe`` constants, each run capped by
``--max-evals``; ``--threads`` only caps the worker count
``dqes.run_experiment`` picks.  ``audit``, ``spectrum``, ``landscape`` and
``vqe`` get their Ising form from ``encoder.spin_form``, which refuses an
instance above ``layouts.SPIN_CAP`` spins from its node count before
anything is encoded.
``encode`` stops at ``layouts.TERM_CAP`` terms, ``vqe --layers`` at
``layouts.LAYER_CAP``.  ``--penalty-a`` and ``--penalty-b`` need
``--penalties explicit``.  Reports are strict JSON: a non-finite float is
refused, not written.  A report is its dataclass's fields, written through
``json_default``.

Exit codes: 0 success, 1 internal error, 2 input validation, 3 size cap.
An instance or ``-o`` path that cannot be opened exits 2; the ``-o`` path
is tried before the command does any work, without truncating it.  When
the reader of standard output closes it early (``tspvqe landscape ... |
head``), the rest of the output is dropped and the command exits 1,
without a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import json
import os
import sys
import traceback
from fractions import Fraction

from . import dqes, ising, layouts, oracle
from .encoder import audit_penalties, encode, spin_form, suggest_penalties
from .errors import SizeCapError, TspVqeError, ValidationError
from .graph import load_instance
from .rationals import rational_to_json
from .vqe import ENTANGLERS

_LAYOUT_FLAGS = {row.flag: row.name for row in layouts.LAYOUTS}


def _read_instance(args):
    path = args.instance
    fmt = args.format
    if fmt == "auto":
        fmt = "edge_list" if path.endswith((".txt", ".edges", ".edgelist")) else "json"
    with _open(path, "rb") as handle:
        instance = load_instance(handle, format=fmt)
    return _apply_penalties(instance, args)


def _apply_penalties(instance, args):
    mode = getattr(args, "penalties", "file")
    given = getattr(args, "penalty_a", None), getattr(args, "penalty_b", None)
    if mode == "explicit":
        if None in given:
            raise ValidationError("--penalties explicit needs --penalty-a and --penalty-b")
        return instance.with_penalties(*given)
    if given != (None, None):
        raise ValidationError("--penalty-a and --penalty-b need --penalties explicit")
    if mode == "file":
        return instance
    return instance.with_penalties(*suggest_penalties(instance, mode))


def _open(path, mode):
    """``open``, with a path that cannot be opened refused as input (exit 2)."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise ValidationError(str(exc)) from exc


def _check_output(path):
    """Refuse an ``-o`` path that does not open for writing, before any work.

    It is opened for appending, so an existing file keeps its bytes, and a
    file the check made is removed again.
    """
    if not path or path == "-":
        return
    existed = os.path.lexists(path)
    _open(path, "ab").close()
    if not existed:
        os.remove(path)


def _emit(args, chunks):
    """Write the byte strings of ``chunks``, in order, to the output.

    Standard output is written through its binary buffer, after the text
    layer is flushed, so no chunk is decoded and encoded again; a stream
    without one (``io.StringIO``) is given the decoded text.  The buffer is
    flushed before the command returns, so a reader that closed the pipe is
    noticed by ``main``, not at interpreter exit.
    """
    if args.output and args.output != "-":
        with _open(args.output, "wb") as handle:
            handle.writelines(chunks)
        return
    sys.stdout.flush()
    binary = getattr(sys.stdout, "buffer", None)
    if binary is None:
        sys.stdout.writelines(chunk.decode() for chunk in chunks)
    else:
        binary.writelines(chunks)
        binary.flush()


def json_default(value):
    """The JSON form of a value ``json.dumps`` cannot write itself.

    A Fraction is written by ``rational_to_json``, and a dataclass instance
    as the dict of its fields, shallow (the field values are written in
    turn).  Anything else raises ``TypeError``, so a numpy integer cannot
    reach a report.
    """
    if isinstance(value, Fraction):
        return rational_to_json(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_report(args, command: str, payload: dict):
    doc = {"command": command}
    if not args.no_timestamp:
        doc["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    doc.update(payload)
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=json_default)
    _emit(args, [(text + "\n").encode()])


def cmd_encode(args) -> int:
    instance = _read_instance(args)
    layout = _LAYOUT_FLAGS[args.layout]
    layouts.check_terms(layout, instance.node_count)
    poly = encode(instance, layout)
    if args.form == "binary":
        payload = poly.to_json_dict()
        payload["n_variables"] = poly.n_vars
    else:
        payload = ising.to_ising(poly).to_json_dict()
        payload["layout"] = poly.layout
    payload["penalty_a"] = instance.penalty_a
    payload["penalty_b"] = instance.penalty_b
    _emit_report(args, "encode", payload)
    return 0


def cmd_solve(args) -> int:
    instance = _read_instance(args)
    cost, tours = oracle.solve_exact_tsp(instance)
    _emit_report(args, "solve", {"optimal_cost": cost, "tours": tours,
                                 "tour_count": len(tours)})
    return 0


def cmd_audit(args) -> int:
    instance = _read_instance(args)
    report = audit_penalties(instance)
    _emit_report(args, "audit", vars(report))
    return 0


def cmd_spectrum(args) -> int:
    instance = _read_instance(args)
    form = spin_form(instance, _LAYOUT_FLAGS[args.layout], "spectrum")
    _emit(args, ising.spectrum_csv_rows(form))
    return 0


def cmd_landscape(args) -> int:
    instance = _read_instance(args)
    landscape = dqes.compute_landscape(spin_form(instance, dqes.LAYOUT, "landscape"))
    _emit(args, dqes.landscape_csv_rows(landscape))
    return 0


def cmd_vqe(args) -> int:
    instance = _read_instance(args)
    report = dqes.run_experiment(
        instance, args.init, k=args.k, seed=args.seed, layers=args.layers,
        entangler=args.entangler, max_evals=args.max_evals, threads=args.threads,
    )
    _emit_report(args, "vqe", vars(report))
    return 0


def _add_common(parser):
    parser.add_argument("instance", help="instance file (JSON or edge list)")
    parser.add_argument(
        "--format",
        choices=("auto", "json", "edge_list"),
        default="auto",
        help="instance file format (default: by extension)",
    )
    parser.add_argument("-o", "--output", default="-", help="output path (default: stdout)")
    parser.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamp so reruns are byte-identical",
    )


def _add_penalty_flags(parser):
    parser.add_argument(
        "--penalties",
        choices=("file", "lucas", "safe", "explicit"),
        default="file",
        help="penalty coefficients: from the file, closed-form, or explicit",
    )
    parser.add_argument("--penalty-a", default=None, help="A for --penalties explicit")
    parser.add_argument("--penalty-b", default=None, help="B for --penalties explicit")


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends each option's default to its help, unless the help states it."""

    def _get_help_string(self, action):
        if "(default:" in (action.help or ""):
            return action.help
        return super()._get_help_string(action)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tspvqe",
        description="TSP/Hamiltonian-cycle penalty encodings, exhaustive audits, "
        "MUB energy landscapes, and VQE experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    formatter = _HelpFormatter

    p = sub.add_parser("encode", formatter_class=formatter,
                       help="emit a binary or Ising polynomial")
    _add_common(p)
    _add_penalty_flags(p)
    p.add_argument("--layout", choices=tuple(_LAYOUT_FLAGS), default="efficient")
    p.add_argument("--form", choices=("binary", "ising"), default="binary")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("solve", formatter_class=formatter,
                       help="exact tour optimum (Held-Karp)")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("audit", formatter_class=formatter,
                       help="exhaustively check the penalty choice")
    _add_common(p)
    _add_penalty_flags(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("spectrum", formatter_class=formatter,
                       help="all 2^n Ising energies as CSV")
    _add_common(p)
    _add_penalty_flags(p)
    p.add_argument("--layout", choices=tuple(_LAYOUT_FLAGS), default="efficient")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("landscape", formatter_class=formatter,
                       help="partial-DQES MUB energy landscape as CSV")
    _add_common(p)
    _add_penalty_flags(p)
    p.set_defaults(func=cmd_landscape)

    p = sub.add_parser("vqe", formatter_class=formatter,
                       help="run a VQE experiment batch")
    _add_common(p)
    _add_penalty_flags(p)
    # best-mubs is read as the mode best_mubs
    p.add_argument("--init", choices=dqes.MODES, default=dqes.MODES[0],
                   type=lambda value: value.replace("-", "_"))
    p.add_argument("--k", type=int, default=10, help="batch size for best-mubs/random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--entangler", choices=ENTANGLERS, default=ENTANGLERS[0])
    p.add_argument("--max-evals", type=int, default=2000, help="most energy evaluations per run")
    p.add_argument("--threads", type=int, default=1,
                   help="most worker processes, one per CPU at most, none from 14 qubits up")
    p.set_defaults(func=cmd_vqe)

    return parser


# one parser per process, built by the first ``main`` call, not at import
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_output(args.output)
        return args.func(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TspVqeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed standard output: send what is left, and the flush
        # at exit, to the null device (the SIGPIPE note of the Python docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
