import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from reference import evaluate, evaluate_table
from tspvqe import (
    ProblemInstance,
    PseudoBooleanPolynomial,
    SizeCapError,
    ValidationError,
    audit_penalties,
    encode_cycle_hamiltonian,
    encode_efficient,
    encode_fixed_start,
    encode_tsp_hamiltonian,
    fix_variables,
    solve_exact_tsp,
    suggest_penalties,
    to_ising,
    validate_bitstring,
)
from tspvqe import layouts
from tspvqe.encoder import encode, spin_form
from tspvqe.layouts import (
    LAYOUTS, SPIN_CAP, TERM_CAP, bits_to_table, coerce_bits, implied_cells, lookup, term_bound,
    variable_count,
)
from tspvqe.oracle import Tour
from tspvqe.rationals import common_scale


def bits_from_order(order, n):
    """Full-layout bits for the table visiting order[t-1] at step t."""
    bits = [0] * (n * n)
    for t, v in enumerate(order, start=1):
        bits[(v - 1) * n + (t - 1)] = 1
    return bits


@pytest.fixture(scope="module")
def directed_cycle_instance():
    # 4-node directed graph with the unique Hamiltonian cycle 2-1-4-3-2
    return ProblemInstance(
        4, True, "hamiltonian_cycle",
        ((2, 1, 0), (1, 4, 0), (4, 3, 0), (3, 2, 0), (2, 4, 0), (3, 1, 0)),
        1, 1,
    )


class TestCycleHamiltonian:
    def test_valid_cycle_has_zero_energy(self, directed_cycle_instance):
        poly = encode_cycle_hamiltonian(directed_cycle_instance)
        # t=1..4 visits 2, 1, 4, 3
        assert evaluate(poly, bits_from_order([2, 1, 4, 3], 4)) == 0

    def test_all_zero_assignment(self, directed_cycle_instance):
        # four empty rows + four empty columns, each squared term contributes A
        poly = encode_cycle_hamiltonian(directed_cycle_instance)
        assert evaluate(poly, [0] * 16) == 8

    def test_zero_set_is_exactly_the_valid_cycles(self, directed_cycle_instance,
                                                  counterexample_instance, bit_energies):
        # the unique directed cycle appears in 4 rotations; the undirected
        # counter-example graph has one cycle in 4 rotations x 2 directions
        for instance, expected_zeros in (
            (directed_cycle_instance, 4),
            (counterexample_instance, 8),
        ):
            poly = encode_cycle_hamiltonian(instance)
            energies, scale = bit_energies(poly)
            zeros = np.flatnonzero(energies == 0)
            assert len(zeros) == expected_zeros
            for z in zeros:
                bits = [(int(z) >> k) & 1 for k in range(16)]
                assert isinstance(validate_bitstring(instance, "full", bits), Tour)
            rng = random.Random(3)
            for _ in range(200):
                z = rng.randrange(1 << 16)
                bits = [(z >> k) & 1 for k in range(16)]
                decoded = validate_bitstring(instance, "full", bits)
                assert (energies[z] == 0) == isinstance(decoded, Tour)

    def test_directed_path_instance_unique_solution(self, bit_energies):
        # directed graph with edges 2->1, 1->4, 4->3, 2->3: its only
        # Hamiltonian path 2-1-4-3 is the unique zero of the penalty form
        instance = ProblemInstance(
            4, True, "hamiltonian_path",
            ((2, 1, 0), (1, 4, 0), (4, 3, 0), (2, 3, 0)), 1, 1,
        )
        poly = encode_cycle_hamiltonian(instance)
        assert evaluate(poly, bits_from_order([2, 1, 4, 3], 4)) == 0
        energies, _ = bit_energies(poly)
        assert int((energies == 0).sum()) == 1

    def test_path_variant_has_no_wrap(self):
        # 3-node path graph 1-2-3: the order 1,2,3 is a valid path but not a cycle
        path = ProblemInstance(3, False, "hamiltonian_path",
                               ((1, 2, 0), (2, 3, 0)), 1, 1)
        cycle = ProblemInstance(3, False, "hamiltonian_cycle",
                                ((1, 2, 0), (2, 3, 0)), 1, 1)
        bits = bits_from_order([1, 2, 3], 3)
        assert evaluate(encode_cycle_hamiltonian(path), bits) == 0
        # the cycle form pays A for the missing wrap edge (3,1)
        assert evaluate(encode_cycle_hamiltonian(cycle), bits) == 1


class TestTspHamiltonian:
    def test_optimal_table_value(self, complete4_instance):
        # oracle-confirmed optimum of the complete 4-node instance is 11,
        # reached by the cycle 3-1-4-2-3
        cost, tours = solve_exact_tsp(complete4_instance)
        assert cost == 11
        poly = encode_tsp_hamiltonian(complete4_instance)
        value = evaluate(poly, bits_from_order([3, 1, 4, 2], 4))
        assert value == complete4_instance.penalty_b * 11

    def test_counterexample_invalid_minimum(self, counterexample_instance):
        poly = encode_tsp_hamiltonian(counterexample_instance)
        # path 1-2-3-4 wraps over the missing edge (4,1): 3*B + A = 14
        assert evaluate(poly, bits_from_order([1, 2, 3, 4], 4)) == 14
        # valid cycle 1-2-4-3-1 costs 1+10+1+10 = 22
        assert evaluate(poly, bits_from_order([1, 2, 4, 3], 4)) == 22

    def test_requires_tsp_variant(self, directed_cycle_instance):
        with pytest.raises(ValidationError):
            encode_tsp_hamiltonian(directed_cycle_instance)


class TestFixedStart:
    def test_start_term_vanishes_when_satisfied(self, complete4_instance):
        tsp = encode_tsp_hamiltonian(complete4_instance)
        fixed = encode_fixed_start(complete4_instance)
        bits = bits_from_order([1, 4, 2, 3], 4)  # starts at node 1
        assert evaluate(fixed, bits) == evaluate(tsp, bits)

    def test_start_term_costs_a_when_violated(self, complete4_instance):
        tsp = encode_tsp_hamiltonian(complete4_instance)
        fixed = encode_fixed_start(complete4_instance)
        bits = bits_from_order([3, 1, 4, 2], 4)  # same cycle, shifted start
        assert evaluate(fixed, bits) == evaluate(tsp, bits) + complete4_instance.penalty_a

    def test_exhaustive_minimum_unchanged(self, counterexample_instance, bit_energies):
        # fixing the start only removes rotational redundancy
        plain, s1 = bit_energies(encode_tsp_hamiltonian(counterexample_instance))
        fixed, s2 = bit_energies(encode_fixed_start(counterexample_instance))
        assert Fraction(int(plain.min()), s1) == Fraction(int(fixed.min()), s2)


class TestEfficient:
    def test_variable_count(self, landscape_instance):
        poly = encode_efficient(landscape_instance)
        assert poly.n_vars == 9
        assert poly.variable_order[0] == (2, 2)

    def test_optimal_assignment_value(self, landscape_instance):
        # cycle 1-2-4-3-1: node 2 at step 2, node 4 at step 3, node 3 at step 4
        poly = encode_efficient(landscape_instance)
        table = {(v, t): 0 for v in range(2, 5) for t in range(2, 5)}
        table[(2, 2)] = table[(4, 3)] = table[(3, 4)] = 1
        assert evaluate_table(poly, table) == landscape_instance.penalty_b * 13

    def _completed_full_table(self, bits9, n):
        table = {(1, t): (1 if t == 1 else 0) for t in range(1, n + 1)}
        for v in range(2, n + 1):
            table[(v, 1)] = 0
        k = 0
        for v in range(2, n + 1):
            for t in range(2, n + 1):
                table[(v, t)] = bits9[k]
                k += 1
        return table

    def test_master_equivalence_exhaustive(self, landscape_instance,
                                           counterexample_instance):
        # every efficient assignment must reproduce the fixed-start value of
        # its completed table, exactly
        for instance in (landscape_instance, counterexample_instance):
            eff = encode_efficient(instance)
            fixed = encode_fixed_start(instance)
            n = instance.node_count
            for z in range(1 << eff.n_vars):
                bits = [(z >> k) & 1 for k in range(eff.n_vars)]
                completed = self._completed_full_table(bits, n)
                assert evaluate(eff, bits) == evaluate_table(fixed, completed)

    def test_master_equivalence_random_n5(self):
        rng = random.Random(17)
        pairs = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]
        edges = tuple(
            (u, v, Fraction(rng.randint(0, 9))) for u, v in pairs if rng.random() < 0.8
        )
        instance = ProblemInstance(5, False, "tsp", edges, 19, 2)
        eff = encode_efficient(instance)
        fixed = encode_fixed_start(instance)
        assert eff.n_vars == 16
        for _ in range(300):
            bits = [rng.randint(0, 1) for _ in range(16)]
            completed = self._completed_full_table(bits, 5)
            assert evaluate(eff, bits) == evaluate_table(fixed, completed)

    def test_master_equivalence_directed(self):
        rng = random.Random(23)
        pairs = [(u, v) for u in range(1, 5) for v in range(1, 5) if u != v]
        edges = tuple(
            (u, v, Fraction(rng.randint(0, 9))) for u, v in pairs if rng.random() < 0.7
        )
        instance = ProblemInstance(4, True, "tsp", edges, 15, 1)
        eff = encode_efficient(instance)
        fixed = encode_fixed_start(instance)
        for z in range(1 << 9):
            bits = [(z >> k) & 1 for k in range(9)]
            completed = self._completed_full_table(bits, 4)
            assert evaluate(eff, bits) == evaluate_table(fixed, completed)

    def test_two_node_instance(self):
        instance = ProblemInstance(2, False, "tsp", ((1, 2, 3),), 7, 1)
        eff = encode_efficient(instance)
        assert eff.n_vars == 1
        # x_{2,2}=1 is the tour 1-2-1 with both traversals of the edge
        assert evaluate(eff, [1]) == 6
        fixed = encode_fixed_start(instance)
        table = {(1, 1): 1, (1, 2): 0, (2, 1): 0, (2, 2): 1}
        assert evaluate_table(fixed, table) == 6


class TestFixVariables:
    def test_matches_evaluate_exhaustively(self):
        rng = random.Random(29)

        def rational():
            return Fraction(rng.randint(-20, 20), rng.randint(1, 6))

        for _ in range(40):
            n = rng.randint(1, 8)
            order = tuple((1, t) for t in range(1, n + 1))
            poly = PseudoBooleanPolynomial(
                layout="full",
                node_count=n,
                variable_order=order,
                constant=rational(),
                linear={v: rational() for v in order if rng.random() < 0.7},
                quadratic={(order[i], order[j]): rational()
                           for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5},
            )
            assignment = {v: rng.randint(0, 1)
                          for v in rng.sample(order, rng.randint(1, min(3, n)))}
            reduced = fix_variables(poly, assignment, "reduced")
            assert reduced.layout == "reduced"
            assert reduced.variable_order == tuple(v for v in order if v not in assignment)
            for z in range(1 << reduced.n_vars):
                bits = [(z >> k) & 1 for k in range(reduced.n_vars)]
                table = {**dict(zip(reduced.variable_order, bits)), **assignment}
                assert evaluate(reduced, bits) == evaluate_table(poly, table)

    def test_rejects_unknown_variable_and_bad_value(self, complete4_instance):
        poly = encode_tsp_hamiltonian(complete4_instance)
        with pytest.raises(ValidationError):
            fix_variables(poly, {(5, 1): 0}, "full")
        for value in (2, -1, Fraction(1, 2), 1.0):
            with pytest.raises(ValidationError):
                fix_variables(poly, {(1, 1): value}, "full")


def test_float_bits_are_refused_not_truncated(landscape_instance):
    # a float is refused, not truncated: nine 0.9s are not the empty table
    poly = encode_efficient(landscape_instance)
    for call in (lambda: validate_bitstring(landscape_instance, "efficient", [0.9] * 9),
                 lambda: evaluate(poly, [0.9] * 9),
                 lambda: coerce_bits([1.7, 0.2], 2),
                 lambda: coerce_bits([1.0, 0], 2),
                 lambda: coerce_bits(np.array([1.0, 0.0]), 2)):
        with pytest.raises(ValidationError, match="not floats"):
            call()
    assert coerce_bits([True, np.int64(0), Fraction(1)], 3) == (1, 0, 1)
    assert coerce_bits(np.array([0, 1]), 2) == (0, 1)


def test_pair_in_both_orders_is_one_summed_term():
    order = ((1, 1), (1, 2))
    poly = PseudoBooleanPolynomial(
        layout="full", node_count=2, variable_order=order, constant=0, linear={},
        quadratic={(order[0], order[1]): 2, (order[1], order[0]): Fraction(1, 2)})
    assert poly.quadratic == {order: Fraction(5, 2)}
    assert poly.numerators == {(0, 1): 5}
    assert poly.to_json_dict()["quadratic"] == [[[1, 1], [1, 2], "5/2"]]
    assert evaluate(poly, [1, 1]) == Fraction(5, 2)


def _assert_same_ising(ising, reference):
    assert (ising.n, ising.variable_order, ising.layout, ising.node_count) == (
        reference.n, reference.variable_order, reference.layout, reference.node_count)
    assert ising.constant == reference.constant
    assert ising.fields == reference.fields
    assert ising.couplings == reference.couplings
    ours, theirs = ising.to_int_arrays(), reference.to_int_arrays()
    assert ours[:2] == theirs[:2]  # scale, constant
    for a, b in zip(ours[2:], theirs[2:]):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _assert_same_poly(poly, reference, fraction_reference):
    assert (poly.layout, poly.node_count, poly.variable_order) == (
        reference.layout, reference.node_count, reference.variable_order)
    assert poly.constant == reference.constant
    assert poly.linear == reference.linear
    assert poly.quadratic == reference.quadratic
    _assert_same_ising(to_ising(poly), fraction_reference.to_ising(reference))


def _random_rational_polynomial(rng, n):
    """Coefficients p/q with |p| <= 6 and q in 1..12; some terms are made to
    cancel in the spin form, and some quadratic pairs come in both orders."""
    def rational():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 12))

    order = tuple((v, t) for v in (1, 2, 3) for t in (1, 2, 3))[:n]
    quadratic = {}
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < 0.6:
            pair = (order[i], order[j]) if rng.random() < 0.7 else (order[j], order[i])
            quadratic[pair] = rational()
            if rng.random() < 0.2:  # the same spin pair again, often cancelling
                quadratic[pair[::-1]] = -quadratic[pair] if rng.random() < 0.5 else rational()
    linear = {}
    for var in order:
        roll = rng.random()
        if roll < 0.3:  # the field of var cancels: L = -(sum of its q) / 2
            touching = [c for pair, c in quadratic.items() if var in pair]
            linear[var] = -sum(touching, Fraction(0)) / 2
        elif roll < 0.8:
            linear[var] = rational()
    return PseudoBooleanPolynomial(layout="full", node_count=n, variable_order=order,
                                   constant=rational(), linear=linear, quadratic=quadratic)


def _random_pq_instance(rng, n, variant, directed):
    """A seeded instance with p/q costs and penalties and some edges missing."""
    pairs = (itertools.permutations if directed else itertools.combinations)(range(1, n + 1), 2)
    edges = [(u, v, f"{rng.randint(0, 20)}/{rng.randint(1, 9)}")
             for u, v in pairs if rng.random() < 0.75]
    return ProblemInstance(n, directed, variant, tuple(edges),
                           f"{rng.randint(1, 60)}/{rng.randint(1, 7)}",
                           f"{rng.randint(1, 9)}/{rng.randint(1, 5)}")


class TestExactArithmetic:
    """The int-summing builder, ``fix_variables`` and ``to_ising`` against the
    same sums in Fraction arithmetic."""

    def test_common_scale(self):
        values = [Fraction(-3, 4), Fraction(5, 6), 7, Fraction(0)]
        assert common_scale(values) == (12, [-9, 10, 84, 0])
        assert common_scale([]) == (1, [])

    def test_random_polynomials(self, fraction_reference):
        rng = random.Random(41)
        dropped = 0
        for _ in range(60):
            n = rng.randint(1, 7)
            poly = _random_rational_polynomial(rng, n)
            reference = fraction_reference.to_ising(poly)
            _assert_same_ising(to_ising(poly), reference)
            touched = {poly.index_of(v) for v in poly.linear}
            touched.update(poly.index_of(v) for pair in poly.quadratic for v in pair)
            dropped += len(touched) - len(reference.fields)
            assignment = {v: rng.randint(0, 1)
                          for v in rng.sample(poly.variable_order, rng.randint(0, n))}
            _assert_same_poly(fix_variables(poly, assignment, "reduced"),
                              fraction_reference.fix_variables(poly, assignment, "reduced"),
                              fraction_reference)
        assert dropped > 0  # cancelled fields were produced, and dropped

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("variant", ["tsp", "hamiltonian_cycle", "hamiltonian_path"])
    def test_encoders_on_pq_instances(self, variant, directed, fraction_reference):
        rng = random.Random(f"exact:{variant}:{directed}")
        for n in range(2, 6):
            for _ in range(2):
                instance = _random_pq_instance(rng, n, variant, directed)
                encoded = [(encode_cycle_hamiltonian, "full", False)]
                if variant == "tsp":
                    encoded += [(encode_tsp_hamiltonian, "full", True),
                                (encode_efficient, "efficient", True)]
                if variant != "hamiltonian_path":
                    encoded.append((encode_fixed_start, "fixed_start_full", variant == "tsp"))
                for encoder, layout, costs in encoded:
                    _assert_same_poly(encoder(instance),
                                      fraction_reference.encode(instance, layout, costs),
                                      fraction_reference)


class TestPenalties:
    def test_lucas_mode(self, counterexample_instance):
        assert suggest_penalties(counterexample_instance, "lucas") == (11, 1)

    def test_safe_mode(self, counterexample_instance):
        assert suggest_penalties(counterexample_instance, "safe") == (41, 1)

    def test_zero_cost_edge(self):
        inst = ProblemInstance(2, False, "tsp", ((1, 2, 0),), 1, 1)
        assert suggest_penalties(inst, "lucas") == (1, 1)
        assert suggest_penalties(inst, "safe") == (1, 1)

    def test_empty_edges_error(self):
        inst = ProblemInstance(1, False, "cycle", (), 1, 1)
        with pytest.raises(ValidationError):
            suggest_penalties(inst, "lucas")


class TestAudit:
    def test_counterexample_lucas(self, counterexample_instance):
        report = audit_penalties(counterexample_instance)
        assert report.minimum_energy == 14
        assert not report.minimum_is_valid_tour
        assert report.best_valid_energy == 22
        # B*max = 10 < A = 11: the weak condition holds yet fails to protect
        assert report.lucas_condition_satisfied is True
        assert report.safe_condition_satisfied is False
        # the minimizing assignment rides the three cheap edges and pays a
        # single penalty for wrapping over the missing edge (1,4)
        assert [v.kind for v in report.minimum_violations] == ["missing_edge"]
        assert report.minimum_violations[0].edge in ((1, 4), (4, 1))

    def test_counterexample_safe(self, counterexample_instance):
        fixed = counterexample_instance.with_penalties(41, 1)
        report = audit_penalties(fixed)
        assert report.minimum_energy == 22
        assert report.minimum_is_valid_tour
        assert report.safe_condition_satisfied is True

    def test_complete_graph_lucas_is_safe(self, complete4_instance):
        a, b = suggest_penalties(complete4_instance, "lucas")
        report = audit_penalties(complete4_instance.with_penalties(a, b))
        assert report.minimum_is_valid_tour
        cost, _ = solve_exact_tsp(complete4_instance)
        assert report.minimum_energy == b * cost

    def test_size_cap(self):
        pairs = [(u, v) for u in range(1, 7) for v in range(u + 1, 7)]
        inst = ProblemInstance(6, False, "tsp",
                               tuple((u, v, 1) for u, v in pairs), 10, 1)
        with pytest.raises(SizeCapError):
            audit_penalties(inst)

    def test_random_complete_instances_lucas_minimum_is_optimal(self):
        # spot version of the complete-graph penalty property (the acceptance
        # suite runs the full 50-instance sweep)
        rng = random.Random(29)
        for _ in range(10):
            n = rng.choice([3, 4])
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            inst = ProblemInstance(
                n, False, "tsp",
                tuple((u, v, rng.randint(1, 10)) for u, v in pairs), 1, 1,
            )
            a, b = suggest_penalties(inst, "lucas")
            report = audit_penalties(inst.with_penalties(a, b))
            cost, _ = solve_exact_tsp(inst)
            assert report.minimum_is_valid_tour
            assert report.minimum_energy == b * cost


def test_lucas_fixture_matches_counterexample_condition(counterexample_instance):
    # A=11 strictly exceeds B*max(c)=10, i.e. the weak condition is satisfied
    a, b = counterexample_instance.penalty_a, counterexample_instance.penalty_b
    assert 0 < b * counterexample_instance.max_cost() < a


def test_term_bound_holds_for_every_encoder():
    """``layouts.term_bound`` is never below the terms an encoder writes, and
    a complete graph of 3 nodes or more reaches it in the full layout (at 2,
    the wrap step repeats the transition pairs)."""
    rng = random.Random(17)
    for n in (2, 3, 4, 5, 7):
        for variant, directed in itertools.product(("tsp", "cycle", "path"), (False, True)):
            pairs = (itertools.permutations if directed else itertools.combinations)(
                range(1, n + 1), 2)
            complete = variant == "tsp" and not directed
            edges = tuple((u, v, rng.randint(1, 9)) for u, v in pairs
                          if complete or rng.random() < 0.7)
            inst = ProblemInstance(n, directed, variant, edges, 5, 1)
            polys = [(row, encode(inst, row.name)) for row in LAYOUTS
                     if inst.variant in row.variants]
            polys.append((lookup("full"), encode_cycle_hamiltonian(inst)))
            for row, poly in polys:
                terms = len(poly.linear) + len(poly.quadratic)
                assert terms <= term_bound(row.name, n), (n, variant, directed, row.name)
                if complete and poly is polys[0][1] and n > 2:  # the full TSP Hamiltonian
                    assert terms == term_bound(row.name, n)
    assert term_bound("full", 40) <= TERM_CAP < term_bound("full", 41)
    assert term_bound("efficient", 41) <= TERM_CAP < term_bound("efficient", 42)


class TestCapBoundaries:
    """The size caps let their own limit through and refuse one above it,
    checked directly so that no capped-size work runs."""

    def test_spins_at_the_cap_pass_and_one_above_is_refused(self):
        layouts.check_spins(SPIN_CAP, "test")
        with pytest.raises(SizeCapError, match=f"capped at {SPIN_CAP} qubits, got {SPIN_CAP + 1}"):
            layouts.check_spins(SPIN_CAP + 1, "test")

    def test_terms_at_the_cap_pass_and_one_node_above_is_refused(self, monkeypatch):
        monkeypatch.setattr(layouts, "TERM_CAP", term_bound("full", 40))
        layouts.check_terms("full", 40)
        with pytest.raises(SizeCapError, match=f"got up to {term_bound('full', 41)} "):
            layouts.check_terms("full", 41)
        monkeypatch.setattr(layouts, "TERM_CAP", term_bound("full", 40) - 1)
        with pytest.raises(SizeCapError):
            layouts.check_terms("full", 40)


def _public_encoder(instance, layout):
    if layout == "full":
        return encode_tsp_hamiltonian if instance.variant == "tsp" else encode_cycle_hamiltonian
    return {"fixed_start_full": encode_fixed_start, "efficient": encode_efficient}[layout]


def _json_or_refusal(fn, *args):
    try:
        return fn(*args).to_json_dict()
    except ValidationError as exc:
        return f"refused: {exc}"


class TestLayoutOwner:
    """``encode`` is the one choice of encoder per layout, ``spin_form`` the
    one path to the spins, and ``implied_cells`` the one statement of the
    cells the efficient layout does not store."""

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("variant", ["tsp", "hamiltonian_cycle", "hamiltonian_path"])
    def test_encode_is_the_public_encoder_of_its_layout(self, variant, directed):
        rng = random.Random(f"layout-owner:{variant}:{directed}")
        outcomes = set()
        for n in range(1, 6):
            instance = _random_pq_instance(rng, n, variant, directed)
            for layout in (row.name for row in LAYOUTS):
                ours = _json_or_refusal(encode, instance, layout)
                assert ours == _json_or_refusal(_public_encoder(instance, layout), instance)
                if variable_count(layout, n) > SPIN_CAP:
                    with pytest.raises(SizeCapError):
                        spin_form(instance, layout, "test")
                elif isinstance(ours, dict):
                    form = spin_form(instance, layout, "test")
                    assert form.to_json_dict() == to_ising(encode(instance, layout)).to_json_dict()
                    assert form.layout == layout
                    assert form.n == variable_count(layout, n)
                else:
                    with pytest.raises(ValidationError, match=re.escape(ours[len("refused: "):])):
                        spin_form(instance, layout, "test")
                outcomes.add(isinstance(ours, dict))
        assert outcomes == {True, False}  # both encodings and refusals were compared

    @pytest.mark.parametrize("layout", [row.name for row in LAYOUTS])
    def test_bits_to_table_merges_the_implied_cells(self, layout):
        rng = random.Random(f"bits-to-table:{layout}")
        for n in range(2, 6):
            poly = encode(_random_pq_instance(rng, n, "tsp", False), layout)
            for _ in range(20):
                bits = [rng.randint(0, 1) for _ in range(poly.n_vars)]
                expected = implied_cells(n) if lookup(layout).implied else {}
                expected.update(zip(poly.variable_order, bits))
                assert bits_to_table(bits, layout, n) == expected

    def test_implied_cells(self):
        assert implied_cells(1) == {(1, 1): 1}
        assert implied_cells(3) == {(1, 1): 1, (1, 2): 0, (1, 3): 0, (2, 1): 0, (3, 1): 0}

    def test_unknown_layout_is_refused(self, landscape_instance):
        message = "unknown layout 'fixed'"
        for call in (lambda: lookup("fixed"),
                     lambda: lookup("fixed", "tsp"),
                     lambda: encode(landscape_instance, "fixed"),
                     lambda: spin_form(landscape_instance, "fixed", "test"),
                     lambda: variable_count("fixed", 4),
                     lambda: term_bound("fixed", 4),
                     lambda: bits_to_table("0" * 9, "fixed", 4)):
            with pytest.raises(ValidationError, match=message):
                call()

    def test_one_node_is_refused_where_it_leaves_no_variable(self):
        # row 1 and column 1 are the one cell of a one-node table
        with pytest.raises(ValidationError,
                           match="^the efficient layout needs at least 2 nodes, got 1$"):
            lookup("efficient", nodes=1)
        assert [lookup(row.name, nodes=1) for row in LAYOUTS if not row.implied] == [
            row for row in LAYOUTS if not row.implied]
        assert [lookup(row.name, nodes=2) for row in LAYOUTS] == list(LAYOUTS)
