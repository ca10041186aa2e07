import itertools
import pathlib
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from tspvqe import LandscapeRecord, build_mubs_3q, load_instance

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
    for var, c in poly.linear.items():
        out += int(c * scale) * bits[:, poly.index_of(var)]
    for (a, b), c in poly.quadratic.items():
        out += int(c * scale) * (bits[:, poly.index_of(a)] & bits[:, poly.index_of(b)])
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
    one 8x8 probability-matrix product per basis; dense ranks on energies
    rounded to 1e-9.
    """
    mubs = build_mubs_3q()
    prob_rows = [np.abs(mubs.bases[b]) ** 2 for b in range(9)]
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
    rounded = np.round([r[3] for r in raw], 9)
    ranks = np.searchsorted(np.unique(rounded), rounded)
    return [
        LandscapeRecord(index=i, positions=r[0], basis=r[1], element=r[2],
                        energy=r[3], rank=int(ranks[i]))
        for i, r in enumerate(raw)
    ]


@pytest.fixture(scope="session")
def landscape_reference():
    return _landscape_reference
