"""Independent classical ground truth: exact tours and bitstring validation.

Nothing here touches the Hamiltonian encoders; tours are checked directly
against the instance's edge set so the oracle can certify encoder and
quantum-side results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import layouts
from .errors import SizeCapError
from .graph import ProblemInstance
from .rationals import common_scale, rational_to_json

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


def _weight_matrix(instance):
    """(scale, w) with w[u][v] = scale * cost(u+1, v+1) as a Python int.

    ``scale`` is the lcm of all edge-cost denominators; w[u][v] is None where
    the step u -> v has no edge.  Python ints never overflow.
    """
    n = instance.node_count
    ordered = list(instance.ordered_edges())
    scale, ints = common_scale(c for _, _, c in ordered)
    w = [[None] * n for _ in range(n)]
    for (u, v, _), c in zip(ordered, ints):
        w[u - 1][v - 1] = c
    return scale, w


def solve_exact_tsp(instance: ProblemInstance):
    """Exact optimum by Held-Karp; return (optimal cost, all optima).

    Cyclic variants (tsp, hamiltonian_cycle) visit 1..N starting at node 1,
    closed by the wrap edge back to 1.  Hamiltonian paths may start at any
    node and have no wrap edge, so an undirected path (like an undirected
    cycle) comes back in both directions.  Returns (None, ()) when no valid
    tour exists; refuses more than ``EXACT_TSP_NODE_CAP`` nodes.

    Costs are scaled to integers by the lcm of their denominators.  A
    backward table g[mask][last], filled in O(N^2 2^N), holds the cheapest
    way to finish after visiting ``mask`` and standing at ``last``: back to
    node 1 for cycles, nothing for paths.  A forward search then extends a
    prefix only by next nodes that keep it on an optimal tour, trying them in
    increasing order, so the co-optimal tours come back in the lexicographic
    order of their visiting sequences (the order a permutation search gives).

    Every co-optimal tour is returned: a graph with many ties (a unit-cost
    complete graph has (N-1)! optimal cycles) yields output of that size.
    """
    n = instance.node_count
    if n > EXACT_TSP_NODE_CAP:
        raise SizeCapError(f"exact enumeration capped at {EXACT_TSP_NODE_CAP} nodes, got {n}")
    if n == 1:
        return Fraction(0), (Tour(order=(1,), cost=Fraction(0), valid=True),)
    scale, w = _weight_matrix(instance)
    cyclic = instance.variant != "hamiltonian_path"
    full = (1 << n) - 1
    succ = [[(v, w[u][v]) for v in range(n) if w[u][v] is not None] for u in range(n)]
    g = [None] * (1 << n)
    g[full] = [w[last][0] for last in range(n)] if cyclic else [0] * n
    # supersets have larger masks; cycles only reach masks that hold node 1
    for mask in range(full - 1, 0, -1):
        if cyclic and not mask & 1:
            continue
        row = [None] * n
        for last in range(n):
            if not mask >> last & 1:
                continue
            best = None
            for nxt, cost in succ[last]:
                if mask >> nxt & 1:
                    continue
                rest = g[mask | 1 << nxt][nxt]
                if rest is not None and (best is None or cost + rest < best):
                    best = cost + rest
            row[last] = best
        g[mask] = row

    starts = (0,) if cyclic else range(n)
    finishes = [g[1 << s][s] for s in starts if g[1 << s][s] is not None]
    if not finishes:
        return None, ()
    optimum = min(finishes)
    best_cost = Fraction(optimum, scale)
    orders = []

    def extend(order, mask, spent):
        if mask == full:
            orders.append(tuple(v + 1 for v in order))
            return
        last = order[-1]
        for nxt, cost in succ[last]:
            if mask >> nxt & 1:
                continue
            rest = g[mask | 1 << nxt][nxt]
            if rest is not None and spent + cost + rest == optimum:
                order.append(nxt)
                extend(order, mask | 1 << nxt, spent + cost)
                order.pop()

    for s in starts:
        if g[1 << s][s] == optimum:
            extend([s], 1 << s, 0)
    tours = tuple(Tour(order=o, cost=best_cost, valid=True) for o in orders)
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
    steps = n if wrap and n > 1 else n - 1  # a one-node cycle has no step
    cost = Fraction(0)
    for i in range(steps):
        u, v = order[i], order[(i + 1) % n]
        if instance.has_edge(u, v):
            cost += instance.cost(u, v)
        else:
            violations.append(Violation(kind="missing_edge", step=i + 1, edge=(u, v)))
    if violations:
        return ViolationReport(violations=tuple(violations))
    if wrap:
        # canonical rotation: cyclic tours start at node 1
        start = order.index(1)
        order = order[start:] + order[:start]
    return Tour(order=order, cost=cost, valid=True)
