import itertools
import pathlib
from types import SimpleNamespace
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from tspvqe import (
    IsingPolynomial, LandscapeRecord, PseudoBooleanPolynomial, build_mubs_3q, load_instance,
)
from tspvqe.layouts import full_variable_order

INSTANCE_DIR = pathlib.Path(__file__).resolve().parent.parent / "instances"


def read_instance(name):
    return load_instance(INSTANCE_DIR.joinpath(name).read_text())


@pytest.fixture(scope="session")
def landscape_instance():
    # 4-node undirected TSP; optimal cycles 1-2-4-3-1 / 1-3-4-2-1 cost 13
    return read_instance("landscape.json")


@pytest.fixture(scope="session")
def counterexample_instance():
    # 5-edge graph missing (1,4); with A=11, B=1 the exhaustive minimum (14)
    # is an invalid assignment while the best valid tour costs 22
    return read_instance("counterexample.json")


@pytest.fixture(scope="session")
def complete4_instance():
    # complete 4-node graph; optimal tours 1-3-2-4-1 / 1-4-2-3-1 cost 11
    return load_instance(
        '{"nodes": 4, "directed": false, "variant": "tsp",'
        ' "edges": [[1,2,1],[2,3,3],[3,4,8],[1,4,5],[1,3,1],[2,4,2]],'
        ' "penalty_a": 9, "penalty_b": 1}'
    )


def _bit_energies(poly):
    """(scaled int64 energies of all 2^n assignments of ``poly``, scale).

    A vectorised reference, independent of the Ising transform and of the
    enumeration kernel: one pass over all assignments per term.
    """
    coefs = [poly.constant, *poly.linear.values(), *poly.quadratic.values()]
    scale = lcm(*(c.denominator for c in coefs))
    z = np.arange(1 << poly.n_vars, dtype=np.int64)
    bits = (z[:, None] >> np.arange(poly.n_vars)) & 1
    out = np.full(len(z), int(poly.constant * scale), dtype=np.int64)
    at = poly.variable_order.index
    for var, c in poly.linear.items():
        out += int(c * scale) * bits[:, at(var)]
    for (a, b), c in poly.quadratic.items():
        out += int(c * scale) * (bits[:, at(a)] & bits[:, at(b)])
    return out, scale


@pytest.fixture(scope="session")
def bit_energies():
    return _bit_energies


def _permutation_solve(instance):
    """(optimal cost, optimal orders) by enumerating every visiting order.

    The exhaustive reference for the Held-Karp oracle: cyclic variants try
    (1,) + every permutation of 2..N closed by the wrap edge, paths every
    permutation of 1..N with no wrap edge, in lexicographic order.  Returns
    (None, []) when no tour exists.
    """
    n = instance.node_count
    wrap = instance.variant != "hamiltonian_path"
    if wrap:
        orders = ((1,) + perm for perm in itertools.permutations(range(2, n + 1)))
    else:
        orders = itertools.permutations(range(1, n + 1))
    best_cost, best_orders = None, []
    for order in orders:
        steps = zip(order, order[1:] + order[:1] if wrap else order[1:])
        cost = Fraction(0)
        for u, v in steps:
            if not instance.has_edge(u, v):
                break
            cost += instance.cost(u, v)
        else:
            if best_cost is None or cost < best_cost:
                best_cost, best_orders = cost, [order]
            elif cost == best_cost:
                best_orders.append(order)
    return best_cost, best_orders


@pytest.fixture(scope="session")
def permutation_solve():
    return _permutation_solve


def _landscape_reference(ising):
    """All landscape records of ``ising``, computed record by record.

    The reference for the array-backed landscape: per qubit triple, the 8
    support indices bit by bit, their energies from the float vector, and
    one 8x8 probability-matrix product per basis.
    """
    mubs = build_mubs_3q()
    prob_rows = [np.abs(mubs[b]) ** 2 for b in range(9)]
    vector = ising.energy_float_vector()
    raw = []
    for positions in itertools.combinations(range(ising.n), 3):
        support = [
            sum(((m >> k) & 1) << positions[k] for k in range(3)) for m in range(8)
        ]
        support_energies = vector[np.array(support, dtype=np.int64)]
        for basis in range(9):
            energies = prob_rows[basis] @ support_energies
            for element in range(8):
                raw.append((positions, basis, element, float(energies[element])))
    return [
        LandscapeRecord(index=i, positions=r[0], basis=r[1], element=r[2], energy=r[3])
        for i, r in enumerate(raw)
    ]


@pytest.fixture(scope="session")
def landscape_reference():
    return _landscape_reference


class _FractionBuilder:
    """A polynomial's terms summed in Fraction arithmetic, one addition per term."""

    def __init__(self, order):
        self.order = order
        self.index = {var: k for k, var in enumerate(order)}
        self.constant = Fraction(0)
        self.linear = {}
        self.quadratic = {}

    def add_constant(self, c):
        self.constant += c

    def add_linear(self, var, c):
        self.linear[var] = self.linear.get(var, Fraction(0)) + c

    def add_quadratic(self, a, b, c):
        if self.index[a] > self.index[b]:
            a, b = b, a
        self.quadratic[(a, b)] = self.quadratic.get((a, b), Fraction(0)) + c

    def build(self, layout, node_count):
        return PseudoBooleanPolynomial(
            layout=layout,
            node_count=node_count,
            variable_order=self.order,
            constant=self.constant,
            linear={v: c for v, c in self.linear.items() if c != 0},
            quadratic={p: c for p, c in self.quadratic.items() if c != 0},
        )


def _fix_reference(poly, assignment, layout):
    """``poly`` with the variables of ``assignment`` ({var: 0 or 1})
    substituted, in Fraction arithmetic: the reference for the efficient
    encoder's substitution of its implied cells."""
    builder = _FractionBuilder(tuple(v for v in poly.variable_order if v not in assignment))
    builder.add_constant(poly.constant)
    for var, c in poly.linear.items():
        if var in assignment:
            builder.add_constant(c * assignment[var])
        else:
            builder.add_linear(var, c)
    for (a, b), c in poly.quadratic.items():
        if a in assignment and b in assignment:
            builder.add_constant(c * assignment[a] * assignment[b])
        elif a in assignment:
            builder.add_linear(b, c * assignment[a])
        elif b in assignment:
            builder.add_linear(a, c * assignment[b])
        else:
            builder.add_quadratic(a, b, c)
    return builder.build(layout, poly.node_count)


def _encode_reference(instance, layout, costs):
    """The binary form of ``instance`` in Fraction arithmetic, term by term.

    The reference for the encoders: ``layout`` is ``full``,
    ``fixed_start_full`` or ``efficient`` (row and column 1 of the
    fixed-start form substituted); ``costs`` adds the B*cost transitions.
    No variant checks.
    """
    n = instance.node_count
    a, b = instance.penalty_a, instance.penalty_b
    if layout == "efficient":
        known = {(1, t): int(t == 1) for t in range(1, n + 1)}
        known.update({(v, 1): 0 for v in range(2, n + 1)})
        return _fix_reference(_encode_reference(instance, "fixed_start_full", costs),
                              known, "efficient")
    builder = _FractionBuilder(full_variable_order(n))
    for v in range(1, n + 1):
        builder.add_constant(a)
        for t in range(1, n + 1):
            builder.add_linear((v, t), -a)
        for t1, t2 in itertools.combinations(range(1, n + 1), 2):
            builder.add_quadratic((v, t1), (v, t2), 2 * a)
    for t in range(1, n + 1):
        builder.add_constant(a)
        for v in range(1, n + 1):
            builder.add_linear((v, t), -a)
        for v1, v2 in itertools.combinations(range(1, n + 1), 2):
            builder.add_quadratic((v1, t), (v2, t), 2 * a)
    weighted = [(u, v, a) for u, v in instance.missing_ordered_pairs()]
    if costs:
        weighted += [(u, v, b * c) for u, v, c in instance.ordered_edges()]
    if instance.variant == "hamiltonian_path":
        steps = [(t, t + 1) for t in range(1, n)]
    else:
        steps = [(t, t % n + 1) for t in range(1, n + 1)]
    for u, v, w in weighted:
        for t, t_next in steps:
            builder.add_quadratic((u, t), (v, t_next), w)
    if layout == "fixed_start_full":
        builder.add_constant(a)
        builder.add_linear((1, 1), -a)
    return builder.build(layout, n)


def _to_ising_reference(poly):
    """``ising.to_ising`` in Fraction arithmetic, one addition per term."""
    constant = poly.constant
    fields = {}
    couplings = {}

    def add_field(i, c):
        fields[i] = fields.get(i, Fraction(0)) + c

    def add_coupling(i, j, c):
        if i > j:
            i, j = j, i
        couplings[(i, j)] = couplings.get((i, j), Fraction(0)) + c

    at = poly.variable_order.index
    for var, coef in poly.linear.items():
        constant += coef / 2
        add_field(at(var), -coef / 2)
    for (a, b), coef in poly.quadratic.items():
        constant += coef / 4
        add_field(at(a), -coef / 4)
        add_field(at(b), -coef / 4)
        add_coupling(at(a), at(b), coef / 4)
    return IsingPolynomial(
        n=poly.n_vars,
        constant=constant,
        fields={i: c for i, c in fields.items() if c != 0},
        couplings={p: c for p, c in couplings.items() if c != 0},
        variable_order=poly.variable_order,
        layout=poly.layout,
        node_count=poly.node_count,
    )


@pytest.fixture(scope="session")
def fraction_reference():
    """The Fraction-arithmetic references: ``encode`` and ``to_ising``, for
    the encoders and the spin form that sum exact ints."""
    return SimpleNamespace(encode=_encode_reference, to_ising=_to_ising_reference)
