import random
from fractions import Fraction

import pytest

from tspvqe import (
    ProblemInstance,
    SizeCapError,
    encode_cycle_hamiltonian,
    encode_tsp_hamiltonian,
    ground_states,
    solve_exact_tsp,
    suggest_penalties,
    to_ising,
    validate_bitstring,
)
from tspvqe.oracle import Tour, ViolationReport


def table_bits(order, n, extra=()):
    """Full-layout bits visiting order[t-1] at step t, plus extra (v, t) cells."""
    bits = [0] * (n * n)
    for t, v in enumerate(order, start=1):
        bits[(v - 1) * n + (t - 1)] = 1
    for v, t in extra:
        bits[(v - 1) * n + (t - 1)] = 1
    return bits


class TestSolveExact:
    def test_landscape_instance(self, landscape_instance):
        cost, tours = solve_exact_tsp(landscape_instance)
        assert cost == 13
        assert [t.order for t in tours] == [(1, 2, 4, 3), (1, 3, 4, 2)]
        assert all(t.valid and t.cost == 13 for t in tours)

    def test_counterexample_instance(self, counterexample_instance):
        cost, tours = solve_exact_tsp(counterexample_instance)
        assert cost == 22
        assert [t.order for t in tours] == [(1, 2, 4, 3), (1, 3, 4, 2)]

    def test_no_cycle_exists(self):
        # a bare path has no Hamiltonian cycle
        inst = ProblemInstance(4, False, "tsp",
                               ((1, 2, 1), (2, 3, 1), (3, 4, 1)), 5, 1)
        cost, tours = solve_exact_tsp(inst)
        assert cost is None
        assert tours == ()

    def test_trivial_sizes(self):
        one = ProblemInstance(1, False, "tsp", (), 1, 1)
        assert solve_exact_tsp(one)[0] == 0
        two = ProblemInstance(2, False, "tsp", ((1, 2, Fraction(3, 2)),), 1, 1)
        cost, tours = solve_exact_tsp(two)
        assert cost == 3  # edge traversed out and back
        assert tours[0].order == (1, 2)

    def test_directed_asymmetry(self):
        # only one direction of the triangle exists
        inst = ProblemInstance(3, True, "tsp",
                               ((1, 2, 1), (2, 3, 1), (3, 1, 1)), 5, 1)
        cost, tours = solve_exact_tsp(inst)
        assert cost == 3
        assert [t.order for t in tours] == [(1, 2, 3)]

    def test_path_without_cycle(self):
        # a path through node 1 in the middle; no Hamiltonian cycle exists
        inst = ProblemInstance(3, False, "path", ((1, 2, 2), (1, 3, 5)), 1, 1)
        cost, tours = solve_exact_tsp(inst)
        assert cost == 7
        assert [t.order for t in tours] == [(2, 1, 3), (3, 1, 2)]

    @staticmethod
    def _planted_instance(rng, n, variant, directed):
        """A random graph around a planted Hamiltonian cycle (or path).

        tsp costs are random; cycle and path costs are 1, so that every
        Hamiltonian cycle or path is optimal, as every zero of the penalty
        Hamiltonian is.
        """
        order = rng.sample(range(1, n + 1), n)
        hops = list(zip(order, order[1:]))
        if variant != "path":
            hops.append((order[-1], order[0]))
        chosen = {hop if directed else tuple(sorted(hop)) for hop in hops}
        chosen |= {(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
                   if u != v and (directed or u < v) and rng.random() < 0.5}
        costs = (lambda: rng.randint(1, 9)) if variant == "tsp" else (lambda: 1)
        return ProblemInstance(
            n, directed, variant, tuple((u, v, costs()) for u, v in sorted(chosen)), 1, 1
        )

    @pytest.mark.parametrize("variant", ["tsp", "cycle", "path"])
    @pytest.mark.parametrize("directed", [False, True])
    def test_agrees_with_full_layout_ground_states(self, variant, directed):
        rng = random.Random(11)
        if variant == "tsp":
            pairs = [(u, v) for u in range(1, 5) for v in range(1, 5)
                     if u != v and (directed or u < v)]
            edges = tuple((u, v, rng.randint(1, 9)) for u, v in pairs)
        elif variant == "cycle":
            # one Hamiltonian cycle 1-2-3-4-1 plus the chord 1-3, unit costs
            edges = ((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1), (1, 3, 1))
        else:
            # only the path 2-1-3-4 (and its reversal when undirected)
            edges = ((2, 1, 1), (1, 3, 1), (3, 4, 1))
        instances = [ProblemInstance(4, directed, variant, edges, 1, 1)]
        instances += [self._planted_instance(rng, n, variant, directed)
                      for n in (3, 4) for _ in range(3)]
        encode = encode_tsp_hamiltonian if variant == "tsp" else encode_cycle_hamiltonian
        for raw in instances:
            inst = raw.with_penalties(*suggest_penalties(raw, "safe"))
            energy, bitstrings = ground_states(to_ising(encode(inst)))
            cost, tours = solve_exact_tsp(inst)
            assert cost is not None
            assert energy == (inst.penalty_b * cost if variant == "tsp" else 0), inst
            decoded = {validate_bitstring(inst, "full", bits).order for bits in bitstrings}
            assert decoded == {t.order for t in tours}, inst

    @staticmethod
    def _random_instance(rng, n, variant, directed, costs, density):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
                 if u != v and (directed or u < v)]
        draw = {"unit": lambda: 1, "1..3": lambda: rng.randint(1, 3),
                "1..99": lambda: rng.randint(1, 99),
                "p/q": lambda: Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 7)))}[costs]
        edges = tuple((u, v, draw()) for u, v in pairs if rng.random() < density)
        return ProblemInstance(n, directed, variant, edges, 1, 1)

    @pytest.mark.parametrize("variant", ["tsp", "cycle", "path"])
    @pytest.mark.parametrize("directed", [False, True])
    def test_held_karp_matches_permutation_search(self, variant, directed,
                                                  permutation_solve):
        # unit costs tie every tour; sparse graphs often have none
        rng = random.Random(2024)
        cases = [(n, costs, density)
                 for n in range(2, 7)
                 for costs in ("unit", "1..3", "1..99", "p/q")
                 for density in (1.0, 0.5)]
        cases += [(7, "1..3", 1.0), (7, "1..99", 1.0), (7, "unit", 0.4),
                  (8, "1..99", 0.7), (8, "unit", 0.6)]
        outcomes = set()
        for n, costs, density in cases:
            inst = self._random_instance(rng, n, variant, directed, costs, density)
            cost, tours = solve_exact_tsp(inst)
            assert (cost, [t.order for t in tours]) == permutation_solve(inst), inst
            assert all(t.cost == cost and t.valid for t in tours)
            outcomes.add(cost is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("variant", ["tsp", "path"])
    def test_node_cap_solves_without_a_cliff(self, variant):
        rng = random.Random(13)
        edges = tuple((u, v, rng.randint(1, 99))
                      for u in range(1, 14) for v in range(u + 1, 14))
        inst = ProblemInstance(13, False, variant, edges, 1, 1)
        cost, tours = solve_exact_tsp(inst)
        assert tours
        wrap = variant != "path"
        for tour in tours:
            order = tour.order
            assert sorted(order) == list(range(1, 14))
            steps = zip(order, order[1:] + order[:1] if wrap else order[1:])
            assert sum(inst.cost(u, v) for u, v in steps) == tour.cost == cost
            decoded = validate_bitstring(inst, "full", table_bits(order, 13))
            assert isinstance(decoded, Tour)
            assert (decoded.order, decoded.cost) == (order, cost)

    def test_node_cap(self):
        inst = ProblemInstance(14, False, "tsp", ((1, 2, 1),), 1, 1)
        with pytest.raises(SizeCapError):
            solve_exact_tsp(inst)


class TestValidateBitstring:
    def test_valid_full_table(self, complete4_instance):
        # visiting order 3, 1, 4, 2 decodes to the rotated tour 1-4-2-3
        decoded = validate_bitstring(
            complete4_instance, "full", table_bits([3, 1, 4, 2], 4)
        )
        assert isinstance(decoded, Tour)
        assert decoded.order == (1, 4, 2, 3)
        assert decoded.cost == 11

    def test_double_occupancy_reported(self, complete4_instance):
        # adding a second visit for node 1 at step 1 breaks row 1 and column 1
        bits = table_bits([3, 1, 4, 2], 4, extra=[(1, 1)])
        report = validate_bitstring(complete4_instance, "full", bits)
        assert isinstance(report, ViolationReport)
        kinds = {(v.kind, v.node, v.step) for v in report.violations}
        assert ("row_not_one_hot", 1, None) in kinds
        assert ("column_not_one_hot", None, 1) in kinds

    def test_wrap_edge_trap_full_layout(self, complete4_instance):
        # same tour on an instance missing edge (2,3): the implicit final
        # step from node 2 back to node 3 is the only violation
        edges = tuple(e for e in complete4_instance.edges if (e[0], e[1]) != (2, 3))
        trap = ProblemInstance(4, False, "tsp", edges, 9, 1)
        report = validate_bitstring(trap, "full", table_bits([3, 1, 4, 2], 4))
        assert isinstance(report, ViolationReport)
        assert len(report.violations) == 1
        violation = report.violations[0]
        assert violation.kind == "missing_edge"
        assert violation.edge == (2, 3)
        assert violation.step == 4

    def test_wrap_edge_trap_efficient_layout(self, counterexample_instance):
        # efficient bits for the order 1-2-3-4 look fine until the implied
        # wrap step 4 -> 1hits the missing edge (4, 1)
        bits = [0] * 9
        bits[0] = 1  # x_{2,2}
        bits[4] = 1  # x_{3,3}
        bits[8] = 1  # x_{4,4}
        report = validate_bitstring(counterexample_instance, "efficient", bits)
        assert isinstance(report, ViolationReport)
        assert len(report.violations) == 1
        assert report.violations[0].kind == "missing_edge"
        assert report.violations[0].edge == (4, 1)
        assert report.violations[0].step == 4

    def test_efficient_ground_bitstrings(self, landscape_instance):
        assert validate_bitstring(
            landscape_instance, "efficient", "100001010"
        ).order == (1, 2, 4, 3)
        assert validate_bitstring(
            landscape_instance, "efficient", "001100010"
        ).order == (1, 3, 4, 2)

    @pytest.mark.parametrize("variant", ["tsp", "hamiltonian_cycle", "hamiltonian_path"])
    @pytest.mark.parametrize("layout", ["full", "fixed_start_full"])
    def test_one_node_tour_has_no_step(self, variant, layout):
        # a one-node cycle has no wrap step (1, 1) to check
        one = ProblemInstance(1, False, variant, (), 1, 1)
        assert validate_bitstring(one, layout, "1") == Tour((1,), 0, True)

    def test_empty_efficient_assignment(self, landscape_instance):
        report = validate_bitstring(landscape_instance, "efficient", "0" * 9)
        assert isinstance(report, ViolationReport)
        # rows 2..4 and columns 2..4 are all empty
        assert len(report.violations) == 6


class TestDegeneracy:
    def test_unique_optimum_returns_both_directions(self):
        rng = random.Random(37)
        for _ in range(15):
            n = rng.choice([4, 5])
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            costs = rng.sample(range(1, 100), len(pairs))
            inst = ProblemInstance(
                n, False, "tsp",
                tuple((u, v, c) for (u, v), c in zip(pairs, costs)), 1, 1,
            )
            cost, tours = solve_exact_tsp(inst)
            orders = [t.order for t in tours]
            # undirected: each optimal cycle appears with its reversal
            assert len(orders) % 2 == 0
            for order in orders:
                assert (1,) + tuple(reversed(order[1:])) in orders
