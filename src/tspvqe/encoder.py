"""Binary-penalty Hamiltonians for Hamiltonian-cycle/path and TSP instances.

The encoders produce quadratic pseudo-Boolean polynomials whose zero/minimum
structure encodes the problem:

* ``encode_cycle_hamiltonian`` -- one-hot row and column penalties plus
  missing-edge transition penalties (wrap step N -> 1 for cycles; for the
  path variant transitions run to N-1 with no wrap).
* ``encode_tsp_hamiltonian``   -- the cycle penalties plus cost-weighted
  transition terms over existing edges.
* ``encode_fixed_start``       -- additionally pins node 1 to step 1.
* ``encode_efficient``         -- derived from the fixed-start form by
  ``fix_variables``, which substitutes out ``layouts.implied_cells`` (the
  row and column of node 1), leaving (N-1)^2 variables; node 1's outgoing
  and incoming steps become linear boundary terms on columns 2 and N.

``encode(instance, layout)`` is the one place that picks the encoder of a
layout, and ``spin_form`` the one path from an instance to its Ising form:
it refuses an instance above the spin cap from its node count, then encodes.

All coefficients are exact rationals: the encoders and ``fix_variables`` sum
Python ints over one common denominator and hand them to the polynomial as
its numerators, so no Fraction is made per term unless a coefficient is read
as one.  For undirected instances every stored edge contributes both
traversal orientations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import ising, layouts, oracle
from .errors import ValidationError
from .graph import ProblemInstance
from .rationals import common_scale, fraction_terms, rational_to_json, scale_terms

MAX_MINIMA_SCAN = 10_000  # minimizers an audit decodes while it looks for a valid tour


class PseudoBooleanPolynomial:
    """constant + sum a_i x_i + sum q_ij x_i x_j over named binary variables.

    The coefficients are held as exact Python-int numerators over one
    positive ``denominator``: ``constant_numerator``, ``linear_numerators``
    ({var: int}) and ``quadratic_numerators`` ({(a, b): int}), zero terms
    dropped.  ``constant``, ``linear`` and ``quadratic`` are the same
    coefficients as Fractions, built on first read.  The constructor takes
    Fractions or ints; ``from_numerators`` takes the numerators as they are.
    Immutable by convention.
    """

    def __init__(self, layout, node_count, variable_order, constant, linear, quadratic):
        denominator, constant_numerator, (linear_numerators, quadratic_numerators) = (
            scale_terms(constant, linear, quadratic))
        self._init(layout, node_count, variable_order, denominator, constant_numerator,
                   linear_numerators, quadratic_numerators)
        for var in linear:
            if var not in self._index:
                raise ValidationError(f"linear term on unknown variable {var}")
        for pair in quadratic:
            a, b = pair
            if a == b:
                raise ValidationError(f"quadratic term on repeated variable {a}")
            if a not in self._index or b not in self._index:
                raise ValidationError(f"quadratic term on unknown variables {pair}")

    @classmethod
    def from_numerators(cls, layout, node_count, variable_order, denominator, constant,
                        linear, quadratic) -> PseudoBooleanPolynomial:
        """The polynomial of coefficients ``numerator / denominator``.  The
        dicts are kept as given: nonzero ints on pairs of distinct variables
        of ``variable_order``."""
        poly = cls.__new__(cls)
        poly._init(layout, node_count, variable_order, denominator, constant, linear, quadratic)
        return poly

    def _init(self, layout, node_count, variable_order, denominator, constant, linear,
              quadratic):
        self.layout = layout
        self.node_count = node_count
        self.variable_order = variable_order
        self.denominator = denominator
        self.constant_numerator = constant
        self.linear_numerators = linear
        self.quadratic_numerators = quadratic
        self._index = {var: k for k, var in enumerate(variable_order)}

    @cached_property
    def constant(self) -> Fraction:
        return Fraction(self.constant_numerator, self.denominator)

    @cached_property
    def linear(self) -> dict:
        return fraction_terms(self.linear_numerators, self.denominator)

    @cached_property
    def quadratic(self) -> dict:
        return fraction_terms(self.quadratic_numerators, self.denominator)

    @property
    def n_vars(self) -> int:
        return len(self.variable_order)

    def index_of(self, var) -> int:
        return self._index[var]

    def evaluate(self, bits) -> Fraction:
        """Exact value at a 0/1 assignment given in variable order."""
        bits = layouts.coerce_bits(bits, self.n_vars)
        index = self._index
        total = self.constant_numerator
        for var, c in self.linear_numerators.items():
            if bits[index[var]]:
                total += c
        for (a, b), c in self.quadratic_numerators.items():
            if bits[index[a]] and bits[index[b]]:
                total += c
        return Fraction(total, self.denominator)

    def evaluate_table(self, table) -> Fraction:
        """Exact value at an assignment given as a {(v, t): 0/1} mapping."""
        bits = [table[var] for var in self.variable_order]
        return self.evaluate(bits)

    def to_json_dict(self) -> dict:
        return {
            "layout": self.layout,
            "constant": rational_to_json(self.constant),
            "linear": [
                [list(var), rational_to_json(coef)]
                for var, coef in sorted(self.linear.items(), key=lambda it: self._index[it[0]])
            ],
            "quadratic": [
                [list(a), list(b), rational_to_json(coef)]
                for (a, b), coef in sorted(
                    self.quadratic.items(),
                    key=lambda it: (self._index[it[0][0]], self._index[it[0][1]]),
                )
            ],
        }


class _PolyBuilder:
    """Sums terms as Python ints over the common denominator ``scale``.

    Every ``add_*`` takes a coefficient times ``scale``; ``build`` hands the
    nonzero sums over as the polynomial's numerators.
    """

    def __init__(self, layout, node_count, variable_order, scale):
        self.layout = layout
        self.node_count = node_count
        self.order = variable_order
        self.index = {var: k for k, var in enumerate(variable_order)}
        self.scale = scale
        self.constant = 0
        self.linear = {}
        self.quadratic = {}

    def add_constant(self, c):
        self.constant += c

    def add_linear(self, var, c):
        self.linear[var] = self.linear.get(var, 0) + c

    def add_quadratic(self, a, b, c):
        if self.index[a] > self.index[b]:
            a, b = b, a
        self.quadratic[(a, b)] = self.quadratic.get((a, b), 0) + c

    def build(self) -> PseudoBooleanPolynomial:
        return PseudoBooleanPolynomial.from_numerators(
            self.layout, self.node_count, self.order, self.scale, self.constant,
            {v: c for v, c in self.linear.items() if c},
            {p: c for p, c in self.quadratic.items() if c},
        )


def _add_one_hot_penalties(builder, n, a):
    """a * [(1 - row sum)^2 + (1 - column sum)^2] for every node and step."""
    for v in range(1, n + 1):
        builder.add_constant(a)
        for t in range(1, n + 1):
            builder.add_linear((v, t), -a)
        for t1 in range(1, n + 1):
            for t2 in range(t1 + 1, n + 1):
                builder.add_quadratic((v, t1), (v, t2), 2 * a)
    for t in range(1, n + 1):
        builder.add_constant(a)
        for v in range(1, n + 1):
            builder.add_linear((v, t), -a)
        for v1 in range(1, n + 1):
            for v2 in range(v1 + 1, n + 1):
                builder.add_quadratic((v1, t), (v2, t), 2 * a)


def _transition_steps(instance):
    """Time steps contributing transition terms; cycles wrap step N to 1."""
    n = instance.node_count
    if instance.variant == "hamiltonian_path":
        return [(t, t + 1) for t in range(1, n)]
    return [(t, t % n + 1) for t in range(1, n + 1)]


def _encode_full(instance, layout, costs, fixed_start=False):
    """Full-layout penalties, plus B*cost transitions over existing edges if
    ``costs``, plus the start-at-node-1 term A*(1 - x_{1,1})^2 if ``fixed_start``."""
    n = instance.node_count
    edges = list(instance.ordered_edges()) if costs else []
    scale, (a, *edge_weights) = common_scale(
        [instance.penalty_a, *(instance.penalty_b * c for _, _, c in edges)]
    )
    builder = _PolyBuilder(layout, n, layouts.full_variable_order(n), scale)
    _add_one_hot_penalties(builder, n, a)
    weighted = [(u, v, a) for u, v in instance.missing_ordered_pairs()]
    weighted += [(u, v, w) for (u, v, _), w in zip(edges, edge_weights)]
    steps = _transition_steps(instance)
    for u, v, w in weighted:
        for t, t_next in steps:
            builder.add_quadratic((u, t), (v, t_next), w)
    if fixed_start:
        # (1 - x)^2 = 1 - x for binary x
        builder.add_constant(a)
        builder.add_linear((1, 1), -a)
    return builder.build()


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
    if instance.variant not in ("tsp", "hamiltonian_cycle"):
        raise ValidationError("encode_fixed_start requires variant tsp or hamiltonian_cycle")
    return _encode_full(instance, "fixed_start_full", costs=instance.variant == "tsp",
                        fixed_start=True)


def fix_variables(poly: PseudoBooleanPolynomial, assignment: dict,
                  layout: str) -> PseudoBooleanPolynomial:
    """``poly`` with the variables of ``assignment`` ({var: 0 or 1}) substituted.

    The remaining variables keep their order; the result, labelled
    ``layout``, takes at every assignment of them the value ``poly`` takes
    at the completed assignment.
    """
    for var, value in assignment.items():
        if var not in poly._index:
            raise ValidationError(f"cannot fix unknown variable {var}")
        if value not in (0, 1) or isinstance(value, float):
            raise ValidationError(f"variable {var} can be fixed to 0 or 1, not {value!r}")
    order = tuple(var for var in poly.variable_order if var not in assignment)
    builder = _PolyBuilder(layout, poly.node_count, order, poly.denominator)
    builder.add_constant(poly.constant_numerator)
    for var, c in poly.linear_numerators.items():
        if var in assignment:
            builder.add_constant(c * assignment[var])
        else:
            builder.add_linear(var, c)
    for (a, b), c in poly.quadratic_numerators.items():
        if a in assignment and b in assignment:
            builder.add_constant(c * assignment[a] * assignment[b])
        elif a in assignment:
            builder.add_linear(b, c * assignment[a])
        elif b in assignment:
            builder.add_linear(a, c * assignment[b])
        else:
            builder.add_quadratic(a, b, c)
    return builder.build()


def encode_efficient(instance: ProblemInstance) -> PseudoBooleanPolynomial:
    """(N-1)^2-variable Hamiltonian with node 1 fixed at step 1.

    ``encode_fixed_start`` with row 1 and column 1 substituted out by
    ``fix_variables``: node 1's boundary steps 1 -> 2 and N -> 1 become
    linear terms on columns 2 and N.
    """
    if instance.variant != "tsp":
        raise ValidationError("encode_efficient requires variant=tsp")
    n = instance.node_count
    if n < 2:
        raise ValidationError("encode_efficient requires at least 2 nodes")
    return fix_variables(encode_fixed_start(instance), layouts.implied_cells(n), "efficient")


def encode(instance: ProblemInstance, layout: str) -> PseudoBooleanPolynomial:
    """The penalty polynomial of ``instance`` in ``layout``; ``full`` is the
    TSP Hamiltonian for tsp instances and the cycle Hamiltonian otherwise."""
    if layout == "full":
        if instance.variant == "tsp":
            return encode_tsp_hamiltonian(instance)
        return encode_cycle_hamiltonian(instance)
    if layout == "fixed_start_full":
        return encode_fixed_start(instance)
    if layout == "efficient":
        return encode_efficient(instance)
    raise ValidationError(f"unknown layout {layout!r}")


def spin_form(instance: ProblemInstance, layout: str, what: str,
              cap: int = layouts.SPIN_CAP) -> ising.IsingPolynomial:
    """The Ising form of ``encode(instance, layout)``, refused first as
    ``what`` by ``layouts.check_spins`` from the node count and ``cap``."""
    layouts.check_spins(layouts.variable_count(layout, instance.node_count), what, cap)
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

    def to_dict(self) -> dict:
        return {
            "node_count": self.node_count,
            "n_variables": self.n_variables,
            "penalty_a": rational_to_json(self.penalty_a),
            "penalty_b": rational_to_json(self.penalty_b),
            "minimum_energy": rational_to_json(self.minimum_energy),
            "minimum_bitstring": self.minimum_bitstring,
            "minimum_count": self.minimum_count,
            "minimum_is_valid_tour": self.minimum_is_valid_tour,
            "minimum_tour": list(self.minimum_tour) if self.minimum_tour else None,
            "minimum_violations": [v.to_dict() for v in self.minimum_violations],
            "best_valid_energy": (
                rational_to_json(self.best_valid_energy)
                if self.best_valid_energy is not None
                else None
            ),
            "best_valid_tours": [list(t) for t in self.best_valid_tours],
            "lucas_condition_satisfied": self.lucas_condition_satisfied,
            "safe_condition_satisfied": self.safe_condition_satisfied,
            "minima_scanned": self.minima_scanned,
        }


def audit_penalties(instance: ProblemInstance, cap: int = layouts.SPIN_CAP) -> AuditReport:
    """Brute-force the full-layout Hamiltonian and judge the penalty choice.

    Reports the global minimum, whether any minimizing assignment decodes to
    a valid tour (the first ``MAX_MINIMA_SCAN`` minima are decoded), the
    best valid tour value, and whether the two closed-form penalty
    conditions hold.
    """
    if instance.variant == "hamiltonian_path":
        raise ValidationError("audit_penalties applies to cyclic variants only")
    form = spin_form(instance, "full", "audit", cap)
    scale = form.to_int_arrays()[0]
    energies = form.energy_int_vector()
    emin = int(energies.min())
    argmins = np.flatnonzero(energies == emin)
    minimum_tour = None
    minimum_violations = ()
    scanned = 0
    for z in argmins[:MAX_MINIMA_SCAN]:
        scanned += 1
        decoded = oracle.validate_bitstring(
            instance, form.layout, layouts.index_to_bits(int(z), form.n)
        )
        if isinstance(decoded, oracle.Tour) and decoded.valid:
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
        minimum_energy=Fraction(emin, scale),
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
