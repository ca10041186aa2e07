"""Command-line interface.

Subcommands: encode, solve, audit, spectrum, landscape, vqe.  Every command
reads an instance file (JSON or edge-list), is deterministic given its flags
and seed, and emits JSON or CSV.  Reports carry a timestamp unless
``--no-timestamp`` is passed, so reruns can be compared byte for byte.

The commands pass their flags through; the library makes the decisions.
``landscape`` and ``vqe`` encode in ``dqes.LAYOUT``, ``encode`` and
``spectrum`` in their ``--layout``, ``audit`` in the full one.  The
``--init``, ``--entangler`` and ``--optimizer`` choices are ``dqes.MODES``,
``vqe.ENTANGLERS`` and ``vqe.METHODS``, each first entry the default.
``audit``, ``spectrum``, ``landscape`` and ``vqe`` get their Ising form
from ``encoder.spin_form``, which refuses an instance above
``layouts.SPIN_CAP`` spins from its node count before anything is encoded;
``--cap`` is passed there once and can lower that cap, not raise it.
``encode`` stops at ``layouts.TERM_CAP`` terms, ``vqe --layers`` at
``layouts.LAYER_CAP``.  ``--penalty-a`` and ``--penalty-b`` need
``--penalties explicit``.  Reports are strict JSON: a non-finite float is
refused, not written.

Exit codes: 0 success, 1 internal error, 2 input validation, 3 size cap.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import sys
import traceback

from . import dqes, ising, layouts, oracle
from .encoder import audit_penalties, encode, spin_form, suggest_penalties
from .errors import SizeCapError, TspVqeError, ValidationError
from .graph import load_instance
from .rationals import rational_to_json
from .vqe import ENTANGLERS, METHODS, OptimizerConfig

_LAYOUT_FLAGS = {"full": "full", "fixed": "fixed_start_full", "efficient": "efficient"}


def _default_threads() -> int:
    """The worker count of ``$TSPVQE_THREADS``, read when a ``vqe`` command runs."""
    value = os.environ.get("TSPVQE_THREADS", "1")
    try:
        return max(1, int(value))
    except ValueError:
        return 1


def _read_instance(args):
    path = args.instance
    fmt = args.format
    if fmt == "auto":
        fmt = "edge_list" if path.endswith((".txt", ".edges", ".edgelist")) else "json"
    with open(path, "rb") as handle:
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


def _emit(args, chunks):
    """Write the byte strings of ``chunks``, in order, to the output.

    Standard output is written through its binary buffer, after the text
    layer is flushed, so no chunk is decoded and encoded again; a stream
    without one (``io.StringIO``) is given the decoded text.
    """
    if args.output and args.output != "-":
        with open(args.output, "wb") as handle:
            handle.writelines(chunks)
        return
    sys.stdout.flush()
    binary = getattr(sys.stdout, "buffer", None)
    if binary is None:
        sys.stdout.writelines(chunk.decode() for chunk in chunks)
    else:
        binary.writelines(chunks)


def _emit_report(args, command: str, payload: dict):
    doc = {"command": command}
    if not args.no_timestamp:
        doc["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    doc.update(payload)
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
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
    payload["penalty_a"] = rational_to_json(instance.penalty_a)
    payload["penalty_b"] = rational_to_json(instance.penalty_b)
    _emit_report(args, "encode", payload)
    return 0


def cmd_solve(args) -> int:
    instance = _read_instance(args)
    cost, tours = oracle.solve_exact_tsp(instance)
    payload = {
        "optimal_cost": rational_to_json(cost) if cost is not None else None,
        "tours": [t.to_dict() for t in tours],
        "tour_count": len(tours),
    }
    _emit_report(args, "solve", payload)
    return 0


def cmd_audit(args) -> int:
    instance = _read_instance(args)
    report = audit_penalties(instance, cap=args.cap)
    _emit_report(args, "audit", report.to_dict())
    return 0


def cmd_spectrum(args) -> int:
    instance = _read_instance(args)
    form = spin_form(instance, _LAYOUT_FLAGS[args.layout], "spectrum", args.cap)
    _emit(args, ising.spectrum_csv_rows(form))
    return 0


def cmd_landscape(args) -> int:
    instance = _read_instance(args)
    landscape = dqes.compute_landscape(spin_form(instance, dqes.LAYOUT, "landscape"))
    _emit(args, dqes.landscape_csv_rows(landscape))
    return 0


def cmd_vqe(args) -> int:
    instance = _read_instance(args)
    optimizer = OptimizerConfig(method=args.optimizer, rho_start=args.rho_start,
                                rho_end=args.rho_end, max_evals=args.max_evals)
    report = dqes.run_experiment(
        instance, args.init, k=args.k, seed=args.seed, layers=args.layers,
        entangler=args.entangler, optimizer=optimizer, convergence_tol=args.tol,
        threads=_default_threads() if args.threads is None else args.threads,
    )
    _emit_report(args, "vqe", report.to_dict())
    return 0


def _add_common(parser):
    parser.add_argument("instance", help="instance file (JSON or edge list)")
    parser.add_argument(
        "--format",
        choices=("auto", "json", "edge_list"),
        default="auto",
        help="instance file format (default: by extension)",
    )
    parser.add_argument("-o", "--output", default="-", help="output path (default stdout)")
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
    p.add_argument("--cap", type=int, default=layouts.SPIN_CAP,
                   help=f"max full-layout variables (at most {layouts.SPIN_CAP})")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("spectrum", formatter_class=formatter,
                       help="all 2^n Ising energies as CSV")
    _add_common(p)
    _add_penalty_flags(p)
    p.add_argument("--layout", choices=tuple(_LAYOUT_FLAGS), default="efficient")
    p.add_argument("--cap", type=int, default=layouts.SPIN_CAP,
                   help=f"max spin count (at most {layouts.SPIN_CAP})")
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
    p.add_argument("--optimizer", choices=METHODS, default=METHODS[0])
    p.add_argument("--rho-start", type=float, default=0.5)
    p.add_argument("--rho-end", type=float, default=1e-4)
    p.add_argument("--max-evals", type=int, default=2000)
    p.add_argument("--tol", type=float, default=1e-6, help="relative convergence tolerance")
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes (default: $TSPVQE_THREADS or 1)")
    p.set_defaults(func=cmd_vqe)

    return parser


# one parser per process, built by the first ``main`` call, not at import
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, TspVqeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
