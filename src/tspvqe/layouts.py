"""Variable layouts shared by the encoders, the oracle, and the CLI.

A table assignment x[v][t] says node v is visited at time step t.  Three
layouts, the rows of ``LAYOUTS``, map table cells to bit positions:

* ``full``             -- v in 1..N, t in 1..N; bit = (v-1)*N + (t-1).
  Step N+1 is identified with step 1 (cycle wrap), so the wrap column is
  never stored.
* ``fixed_start_full`` -- same variables as ``full``; the Hamiltonian adds
  a start-at-node-1 penalty term.
* ``efficient``        -- v in 2..N, t in 2..N; bit = (v-2)*(N-1) + (t-2).
  Row 1 and column 1 are implied: node 1 sits at step 1 and nowhere else.
  ``implied_cells`` is the one statement of those cells: the encoder
  substitutes them out and ``bits_to_table`` puts them back.

Bit k of a basis-state index z is variable k of the layout order; textual
bitstrings are written with variable 0 first.

Every exhaustive or state-vector step stops at ``SPIN_CAP`` variables, one
spin (and one qubit) each.  ``encoder.spin_form``, the one path from an
instance to its spins, checks ``variable_count`` with ``check_spins``
before it encodes anything.  ``lookup`` gives a layout's row, refusing an
unknown layout, a variant it does not encode or too few nodes for a cell.
Writing an encoding out stops at ``TERM_CAP`` terms, checked from the node
count with ``check_terms``.  An ansatz has at most ``LAYER_CAP`` layers,
and a VQE batch records at most ``RECORD_CAP`` numbers: one per evaluation
of each run's history, and each run's final parameters.

Every setting that is one integer (a qubit count, a seed, a batch size)
is read by ``checked_int``, which refuses it in one message shape.

``MODES`` (the experiment modes of ``dqes``) and ``ENTANGLERS`` (the
ansatz entanglers of ``vqe``) are stated here, where the CLI's parser reads
them without importing numpy; each first entry is the default.
"""

import numbers
from typing import NamedTuple

from .errors import SizeCapError, ValidationError

SPIN_CAP = 24  # 2^24 basis states: 128 MiB of int64 energies, 256 MiB of amplitudes
# full layout up to 40 nodes: about 3 s and 200 MB to encode and write
TERM_CAP = 1 << 17
LAYER_CAP = 64  # ansatz gather indices: 64 KB per layer at 16 qubits, 4 MB here
# numbers a VQE batch records, runs x (max_evals + parameter count): on
# 64-bit CPython 3.11 a random-start batch of 564,859 numbers on the shipped
# instance peaked at 109.8 MB of RSS against 37.4 MB for one of 79 (135 B
# each), so a batch at the cap peaks near 0.3 GB
RECORD_CAP = 1 << 21

MODES = ("zeros", "best_mubs", "random")
ENTANGLERS = ("linear_rzz", "ring_rzz")


def full_variable_order(n):
    return tuple((v, t) for v in range(1, n + 1) for t in range(1, n + 1))


def implied_cells(n):
    """The cells the efficient layout does not store, {(v, t): 0/1}: row 1
    and column 1, with node 1 at step 1 and nowhere else."""
    others = range(2, n + 1)
    return {(1, 1): 1, **{(1, t): 0 for t in others}, **{(v, 1): 0 for v in others}}


class Layout(NamedTuple):
    name: str
    flag: str  # the CLI's --layout value
    variants: tuple  # the instance variants it encodes
    pinned: bool  # node 1 sits at step 1
    implied: bool  # row 1 and column 1 are not stored: see implied_cells


# the one statement of what the layouts differ in; the encoders, the decoder and the CLI read it
LAYOUTS = (
    Layout("full", "full", ("tsp", "hamiltonian_cycle", "hamiltonian_path"), False, False),
    Layout("fixed_start_full", "fixed", ("tsp", "hamiltonian_cycle"), True, False),
    Layout("efficient", "efficient", ("tsp",), True, True),
)


def lookup(name, variant=None, nodes=None):
    """The row of layout ``name``, refusing an unknown name, a ``variant`` it
    does not encode, or ``nodes`` (a node count) that leaves it no variable."""
    for row in LAYOUTS:
        if row.name == name:
            if variant is not None and variant not in row.variants:
                raise ValidationError(f"the {name} layout does not encode {variant} instances")
            if row.implied and nodes == 1:  # its one cell, (1, 1), is implied
                raise ValidationError(f"the {name} layout needs at least 2 nodes, got 1")
            return row
    raise ValidationError(f"unknown layout {name!r}")


def variable_count(layout, n):
    return (n - lookup(layout).implied) ** 2


def check_spins(n, what):
    """Refuse ``n`` spins above ``SPIN_CAP``, as ``what``."""
    if n > SPIN_CAP:
        raise SizeCapError(f"{what} capped at {SPIN_CAP} qubits, got {n}")


def term_bound(layout, n):
    """An upper bound on the linear and quadratic terms of an ``n``-node encoding.

    Its m x m table (m = n, or n - 1 with row 1 and column 1 implied) has
    m^2 linear terms, m^2 (m - 1) one-hot pairs within rows and columns,
    and at most m^2 (m - 1) transition pairs: m (m - 1) ordered node pairs
    at m steps.  Complete graphs reach it in the full layouts.
    """
    m = n - lookup(layout).implied
    return m * m * (2 * m - 1)


def check_terms(layout, n):
    """Refuse an ``n``-node encoding in ``layout`` that may exceed ``TERM_CAP`` terms."""
    bound = term_bound(layout, n)
    if bound > TERM_CAP:
        raise SizeCapError(
            f"encode capped at {TERM_CAP} terms, got up to {bound} ({layout} layout, {n} nodes)"
        )


def is_int(value):
    """Whether ``value`` is an integer, a numpy one included, and not a bool
    (JSON ``true`` loads as ``True``)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def checked_int(name, value, low=None, high=None):
    """``value`` as a plain int, refused with ``ValidationError`` when
    ``is_int`` says it is not one, when it is below ``low``, or when it lies
    outside ``low``..``high`` (a ``high`` comes with a ``low``).

    The one check of every single-integer setting: a numpy int is accepted
    and stored as the plain int a report writes."""
    if not is_int(value):
        raise ValidationError(f"{name} must be an int, got {value!r}")
    value = int(value)
    if high is not None and not low <= value <= high:
        raise ValidationError(f"{name} must be in {low}..{high}, got {value}")
    if low is not None and value < low:
        raise ValidationError(f"{name} must be at least {low}, got {value}")
    return value


def is_bit(value):
    """Whether ``value`` is 0 or 1 and not a float: 0.9 is not read as 0."""
    return not isinstance(value, float) and value in (0, 1)


def coerce_bits(bits, expected_length):
    """Accept a '0101' string or a sequence of 0/1 ints; return a tuple of 0/1."""
    if isinstance(bits, str):
        if not all(ch in "01" for ch in bits):
            raise ValidationError(f"bitstring may contain only 0/1: {bits!r}")
        values = tuple(int(ch) for ch in bits)
    else:
        values = tuple(bits)
        if not all(map(is_bit, values)):
            raise ValidationError("bit values must be 0 or 1, not floats")
        values = tuple(map(int, values))
    if len(values) != expected_length:
        raise ValidationError(
            f"bitstring length {len(values)} does not match variable count {expected_length}"
        )
    return values


def index_to_bits(z, length):
    return tuple((z >> k) & 1 for k in range(length))


def bits_to_string(bits):
    return "".join(str(b) for b in bits)


def bits_to_table(bits, layout, n):
    """Expand layout bits into the full table {(v, t): 0/1}, v,t in 1..N.

    The bits fill the stored cells in full-layout order; the other cells of
    a layout with row 1 and column 1 implied come from ``implied_cells``.
    """
    bits = coerce_bits(bits, variable_count(layout, n))
    table = implied_cells(n) if lookup(layout).implied else {}
    table.update(zip((cell for cell in full_variable_order(n) if cell not in table), bits))
    return table
