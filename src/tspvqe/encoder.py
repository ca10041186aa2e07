"""Binary-penalty Hamiltonians for Hamiltonian-cycle/path and TSP instances.

The encoders produce quadratic pseudo-Boolean polynomials whose zero/minimum
structure encodes the problem:

* ``encode_cycle_hamiltonian`` -- one-hot row and column penalties plus
  missing-edge transition penalties (wrap step N -> 1 for cycles; for the
  path variant transitions run to N-1 with no wrap).
* ``encode_tsp_hamiltonian``   -- the cycle penalties plus cost-weighted
  transition terms over existing edges.
* ``encode_fixed_start``       -- additionally pins node 1 to step 1.
* ``encode_efficient``         -- the fixed-start form built on (N-1)^2
  variables: the builder substitutes ``layouts.implied_cells`` (the row
  and column of node 1) as it sums the terms, so node 1's outgoing and
  incoming steps become linear boundary terms on columns 2 and N.

``encode(instance, layout)`` is the one place that picks an encoder, from
the layout's row of ``layouts.LAYOUTS``, and ``spin_form`` the one path
from an instance to its Ising form: it refuses an instance above the spin
cap from its node count, then encodes.  ``audit_penalties`` reads the
exhaustive minimum of that form, ``IsingPolynomial.minimum``.

All coefficients are exact rationals.  A polynomial is a
``rationals.ExactPolynomial``: one ``numerators`` dict keyed by sorted
tuples of variable indices, over one denominator.  The encoders sum Python
ints into it, so no Fraction is made per term unless a coefficient is read
as one.  For undirected instances every stored edge contributes both
traversal orientations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import ising, layouts, oracle
from .errors import ValidationError
from .graph import ProblemInstance
from .rationals import ExactPolynomial, common_scale, exact_terms, rational_to_json

MAX_MINIMA_SCAN = 10_000  # minimizers an audit decodes while it looks for a valid tour


class PseudoBooleanPolynomial(ExactPolynomial):
    """constant + sum a_i x_i + sum q_ij x_i x_j over named binary variables.

    The ``ExactPolynomial`` whose indices are positions in
    ``variable_order``.  ``linear`` ({var: Fraction}) and ``quadratic``
    ({(a, b): Fraction}, a before b in the order) are its terms as
    Fractions, built on first read.  The constructor takes Fractions or
    ints; a pair given in both orders is one summed term.
    """

    def __init__(self, layout, node_count, variable_order, constant, linear, quadratic):
        self.layout = layout
        self.node_count = node_count
        self.variable_order = variable_order
        self.denominator, self.numerators = exact_terms(
            {var: k for k, var in enumerate(variable_order)}, constant, linear, quadratic)

    @cached_property
    def linear(self) -> dict:
        order = self.variable_order
        return {order[i]: c for (i,), c in self.fractions(1).items()}

    @cached_property
    def quadratic(self) -> dict:
        order = self.variable_order
        return {(order[i], order[j]): c for (i, j), c in self.fractions(2).items()}

    @property
    def n_vars(self) -> int:
        return len(self.variable_order)

    def to_json_dict(self) -> dict:
        order = self.variable_order
        return {
            "layout": self.layout,
            "constant": rational_to_json(self.constant),
            "linear": [[list(order[i]), rational_to_json(c)]
                       for (i,), c in self.fractions(1).items()],
            "quadratic": [[list(order[i]), list(order[j]), rational_to_json(c)]
                          for (i, j), c in self.fractions(2).items()],
        }


class _PolyBuilder:
    """Sums terms as Python ints, keyed by sorted variable indices.

    The cells in ``fixed`` ({var: 0 or 1}) are substituted as each term is
    added: a term on a cell at 0 is dropped, and a cell at 1 leaves its
    product.  ``order`` holds the variables left, in ``variable_order``, and
    the keys index it."""

    def __init__(self, variable_order, fixed):
        self.order = tuple(var for var in variable_order if var not in fixed)
        # each cell's share of a key: (index,), () at 1, None at 0
        self.part = {var: (k,) for k, var in enumerate(self.order)}
        self.part.update((var, () if value else None) for var, value in fixed.items())
        self.sums = {}

    def add(self, c, *variables):
        """Add ``c`` times the product of ``variables``: none, one, or two distinct ones."""
        key = ()
        for var in variables:
            part = self.part[var]
            if part is None:
                return
            key = key + part if key < part else part + key
        self.sums[key] = self.sums.get(key, 0) + c


def _add_one_hot_penalties(builder, n, a):
    """a * [(1 - row sum)^2 + (1 - column sum)^2] for every node and step."""
    for v in range(1, n + 1):
        builder.add(a)
        for t in range(1, n + 1):
            builder.add(-a, (v, t))
        for t1 in range(1, n + 1):
            for t2 in range(t1 + 1, n + 1):
                builder.add(2 * a, (v, t1), (v, t2))
    for t in range(1, n + 1):
        builder.add(a)
        for v in range(1, n + 1):
            builder.add(-a, (v, t))
        for v1 in range(1, n + 1):
            for v2 in range(v1 + 1, n + 1):
                builder.add(2 * a, (v1, t), (v2, t))


def _transition_steps(instance):
    """Time steps contributing transition terms; cycles wrap step N to 1."""
    n = instance.node_count
    if instance.variant == "hamiltonian_path":
        return [(t, t + 1) for t in range(1, n)]
    return [(t, t % n + 1) for t in range(1, n + 1)]


def _encode_full(instance, layout, costs):
    """The Hamiltonian of ``layout``'s row: one-hot and missing-edge penalties,
    plus B*cost transitions over existing edges if ``costs``.  A pinned row
    adds the start-at-node-1 term A*(1 - x_{1,1})^2, and a row with implied
    cells has them substituted as the terms are added (the start term then
    adds A - A = 0)."""
    n = instance.node_count
    row = layouts.lookup(layout, instance.variant, n)
    edges = list(instance.ordered_edges()) if costs else []
    scale, (a, *edge_weights) = common_scale(
        [instance.penalty_a, *(instance.penalty_b * c for _, _, c in edges)]
    )
    builder = _PolyBuilder(layouts.full_variable_order(n),
                           layouts.implied_cells(n) if row.implied else {})
    _add_one_hot_penalties(builder, n, a)
    weighted = [(u, v, a) for u, v in instance.missing_ordered_pairs()]
    weighted += [(u, v, w) for (u, v, _), w in zip(edges, edge_weights)]
    steps = _transition_steps(instance)
    for u, v, w in weighted:
        for t, t_next in steps:
            builder.add(w, (u, t), (v, t_next))
    if row.pinned:
        # (1 - x)^2 = 1 - x for binary x
        builder.add(a)
        builder.add(-a, (1, 1))
    return PseudoBooleanPolynomial.of(scale, builder.sums, layout=layout, node_count=n,
                                      variable_order=builder.order)


def encode_cycle_hamiltonian(instance: ProblemInstance) -> PseudoBooleanPolynomial:
    """Penalty Hamiltonian whose zeros are exactly the valid cycles/paths."""
    return _encode_full(instance, "full", costs=False)


def encode_tsp_hamiltonian(instance: ProblemInstance) -> PseudoBooleanPolynomial:
    """Cycle penalties plus cost-weighted transitions over existing edges."""
    if instance.variant != "tsp":
        raise ValidationError("encode_tsp_hamiltonian requires variant=tsp")
    return _encode_full(instance, "full", costs=True)


def encode_fixed_start(instance: ProblemInstance) -> PseudoBooleanPolynomial:
    """Full Hamiltonian plus the start-at-node-1 term A*(1 - x_{1,1})^2."""
    return _encode_full(instance, "fixed_start_full", costs=instance.variant == "tsp")


def encode_efficient(instance: ProblemInstance) -> PseudoBooleanPolynomial:
    """(N-1)^2-variable Hamiltonian with node 1 fixed at step 1.

    The fixed-start Hamiltonian built on the cells left once
    ``layouts.implied_cells`` (row 1 and column 1) are substituted: node
    1's boundary steps 1 -> 2 and N -> 1 become linear terms on columns 2
    and N, and no N^2-variable form is built.
    """
    return _encode_full(instance, "efficient", costs=True)


def encode(instance: ProblemInstance, layout: str) -> PseudoBooleanPolynomial:
    """The penalty polynomial of ``instance`` in ``layout``, by its row: if
    unpinned, the TSP Hamiltonian for tsp instances, else the cycle one."""
    row = layouts.lookup(layout, instance.variant)
    if row.pinned:
        return encode_efficient(instance) if row.implied else encode_fixed_start(instance)
    if instance.variant == "tsp":
        return encode_tsp_hamiltonian(instance)
    return encode_cycle_hamiltonian(instance)


def spin_form(instance: ProblemInstance, layout: str, what: str) -> ising.IsingPolynomial:
    """The Ising form of ``encode(instance, layout)``, refused first as
    ``what`` by ``layouts.check_spins`` from the node count."""
    layouts.check_spins(layouts.variable_count(layout, instance.node_count), what)
    return ising.to_ising(encode(instance, layout))


def suggest_penalties(instance: ProblemInstance, mode: str = "safe"):
    """Closed-form penalty coefficients (A, B) with B = 1.

    ``lucas`` gives A = max cost + 1; ``safe`` gives A = N * max cost + 1,
    which guarantees the exhaustive minimum is a valid tour on any graph.
    """
    max_cost = instance.max_cost()
    if mode == "lucas":
        return max_cost + 1, Fraction(1)
    if mode == "safe":
        return instance.node_count * max_cost + 1, Fraction(1)
    raise ValidationError(f"unknown penalty mode {mode!r}")


@dataclass
class AuditReport:
    """Result of exhaustively minimizing the full-layout Hamiltonian."""

    node_count: int
    n_variables: int
    penalty_a: Fraction
    penalty_b: Fraction
    minimum_energy: Fraction
    minimum_bitstring: str
    minimum_count: int
    minimum_is_valid_tour: bool
    minimum_tour: tuple | None
    minimum_violations: tuple
    best_valid_energy: Fraction | None
    best_valid_tours: tuple
    lucas_condition_satisfied: bool | None
    safe_condition_satisfied: bool | None
    minima_scanned: int = 0


def audit_penalties(instance: ProblemInstance) -> AuditReport:
    """Brute-force the full-layout Hamiltonian and judge the penalty choice.

    Reports the global minimum (``IsingPolynomial.minimum`` of the full
    layout's spin form), whether any minimizing assignment decodes to a
    valid tour (the first ``MAX_MINIMA_SCAN`` minima, in index order, are
    decoded), the best valid tour value, and whether the two closed-form
    penalty conditions hold.
    """
    if instance.variant == "hamiltonian_path":
        raise ValidationError("audit_penalties applies to cyclic variants only")
    form = spin_form(instance, "full", "audit")
    minimum_energy, argmins = form.minimum()
    minimum_tour = None
    minimum_violations = ()
    scanned = 0
    for z in argmins[:MAX_MINIMA_SCAN]:
        scanned += 1
        decoded = oracle.validate_bitstring(
            instance, form.layout, layouts.index_to_bits(int(z), form.n)
        )
        if decoded.valid:
            minimum_tour = decoded.order
            break
        if scanned == 1:
            minimum_violations = decoded.violations
    first_bits = layouts.index_to_bits(int(argmins[0]), form.n)
    optimal_cost, tours = oracle.solve_exact_tsp(instance)
    if optimal_cost is None:
        best_valid = None
    elif instance.variant == "tsp":
        best_valid = instance.penalty_b * optimal_cost
    else:
        best_valid = Fraction(0)
    try:
        max_cost = instance.max_cost()
        lucas_ok = 0 < instance.penalty_b * max_cost < instance.penalty_a
        safe_ok = (
            0 < instance.node_count * instance.penalty_b * max_cost < instance.penalty_a
        )
    except ValidationError:
        lucas_ok = safe_ok = None
    return AuditReport(
        node_count=instance.node_count,
        n_variables=form.n,
        penalty_a=instance.penalty_a,
        penalty_b=instance.penalty_b,
        minimum_energy=minimum_energy,
        minimum_bitstring=layouts.bits_to_string(first_bits),
        minimum_count=int(len(argmins)),
        minimum_is_valid_tour=minimum_tour is not None,
        minimum_tour=minimum_tour,
        minimum_violations=(() if minimum_tour is not None else minimum_violations),
        best_valid_energy=best_valid,
        best_valid_tours=tuple(t.order for t in tours),
        lucas_condition_satisfied=lucas_ok,
        safe_condition_satisfied=safe_ok,
        minima_scanned=scanned,
    )
