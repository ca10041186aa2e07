"""Independent classical ground truth: exact tours and bitstring validation.

Nothing here touches the Hamiltonian encoders; tours are checked directly
against the instance's edge set so the oracle can certify encoder and
quantum-side results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import layouts
from .errors import SizeCapError, ValidationError
from .graph import ProblemInstance
from .rationals import rational_to_json

EXACT_TSP_NODE_CAP = 13


@dataclass(frozen=True)
class Tour:
    """A visiting order (cyclic tours are rotated to start at node 1)."""

    order: tuple
    cost: Fraction
    valid: bool

    def to_dict(self) -> dict:
        return {
            "order": list(self.order),
            "cost": rational_to_json(self.cost),
            "valid": self.valid,
        }


@dataclass(frozen=True)
class Violation:
    """One broken constraint of a table assignment."""

    kind: str  # row_not_one_hot | column_not_one_hot | missing_edge
    node: int | None = None
    step: int | None = None
    edge: tuple | None = None
    count: int | None = None

    def describe(self) -> str:
        if self.kind == "row_not_one_hot":
            return f"node {self.node} is visited {self.count} times"
        if self.kind == "column_not_one_hot":
            return f"step {self.step} has {self.count} nodes"
        return f"step {self.step} uses missing edge {self.edge}"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "node": self.node,
            "step": self.step,
            "edge": list(self.edge) if self.edge else None,
            "count": self.count,
            "message": self.describe(),
        }


@dataclass(frozen=True)
class ViolationReport:
    violations: tuple

    def to_dict(self) -> dict:
        return {"valid": False, "violations": [v.to_dict() for v in self.violations]}


def _tour_cost(instance, order, wrap=True):
    total = Fraction(0)
    steps = len(order) if wrap else len(order) - 1
    for i in range(steps):
        u, v = order[i], order[(i + 1) % len(order)]
        if not instance.has_edge(u, v):
            return None
        total += instance.cost(u, v)
    return total


def solve_exact_tsp(instance: ProblemInstance, cap: int = EXACT_TSP_NODE_CAP):
    """Enumerate all tours; return (optimal cost, all optima).

    Cyclic variants (tsp, hamiltonian_cycle) enumerate orders over 1..N
    starting at node 1, closed by the wrap edge back to 1.  Hamiltonian paths
    may start at any node and have no wrap edge, so an undirected path comes
    back in both directions.  Returns (None, ()) when no valid tour exists.
    Enumeration is lexicographic, so degenerate optima come back in a fixed
    order.
    """
    n = instance.node_count
    if n > cap:
        raise SizeCapError(f"exact enumeration capped at {cap} nodes, got {n}")
    if n == 1:
        return Fraction(0), (Tour(order=(1,), cost=Fraction(0), valid=True),)
    wrap = instance.variant != "hamiltonian_path"
    if wrap:
        orders = ((1,) + perm for perm in itertools.permutations(range(2, n + 1)))
    else:
        orders = itertools.permutations(range(1, n + 1))
    best_cost = None
    best_orders = []
    for order in orders:
        cost = _tour_cost(instance, order, wrap=wrap)
        if cost is None:
            continue
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_orders = [order]
        elif cost == best_cost:
            best_orders.append(order)
    tours = tuple(Tour(order=o, cost=best_cost, valid=True) for o in best_orders)
    return best_cost, tours


def validate_bitstring(instance: ProblemInstance, layout: str, bits):
    """Decode a bitstring into a Tour, or report every violated constraint.

    Efficient layouts are completed with the implied node-1 row/column
    before checking, so the trap of an invalid implicit wrap edge (the
    final step back to the start) is reported like any other missing edge.
    """
    n = instance.node_count
    table = layouts.bits_to_table(bits, layout, n)
    violations = []
    for v in range(1, n + 1):
        count = sum(table[(v, t)] for t in range(1, n + 1))
        if count != 1:
            violations.append(Violation(kind="row_not_one_hot", node=v, count=count))
    for t in range(1, n + 1):
        count = sum(table[(v, t)] for v in range(1, n + 1))
        if count != 1:
            violations.append(Violation(kind="column_not_one_hot", step=t, count=count))
    if violations:
        return ViolationReport(violations=tuple(violations))

    order = tuple(
        next(v for v in range(1, n + 1) if table[(v, t)]) for t in range(1, n + 1)
    )
    wrap = instance.variant != "hamiltonian_path"
    steps = n if wrap else n - 1
    for i in range(steps):
        u, v = order[i], order[(i + 1) % n]
        if not instance.has_edge(u, v):
            violations.append(
                Violation(kind="missing_edge", step=i + 1, edge=(u, v))
            )
    if violations:
        return ViolationReport(violations=tuple(violations))
    if wrap:
        # canonical rotation: cyclic tours start at node 1
        start = order.index(1)
        order = order[start:] + order[:start]
    cost = _tour_cost(instance, order, wrap=wrap)
    return Tour(order=order, cost=cost, valid=True)
