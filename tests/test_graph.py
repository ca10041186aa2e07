import io
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from tspvqe import (
    ParseError,
    ProblemInstance,
    ValidationError,
    load_instance,
    save_instance,
)
from tspvqe.cli import main

TRIANGLE = "[[1, 2, 1], [2, 3, 1], [1, 3, 1]]"
# JSON documents whose fields have the wrong type; each must be refused
BAD_FIELD_TYPES = {
    "directed_string": '{"nodes": 3, "directed": "false", "variant": "tsp",'
                       f' "edges": {TRIANGLE}}}',
    "bool_node_count": '{"nodes": true, "directed": false, "variant": "tsp", "edges": []}',
    "bool_node_id": '{"nodes": 3, "directed": false, "variant": "tsp", "edges": [[true, 2, 1]]}',
    "list_variant": f'{{"nodes": 3, "directed": false, "variant": ["tsp"], "edges": {TRIANGLE}}}',
}


def test_load_landscape_json(landscape_instance):
    inst = landscape_instance
    assert inst.node_count == 4
    assert not inst.directed
    assert inst.variant == "tsp"
    assert len(inst.edges) == 6
    assert inst.cost(2, 3) == 9
    assert inst.penalty_a == 11


def test_single_node_empty_edges():
    inst = load_instance('{"nodes": 1, "directed": false, "variant": "cycle",'
                         ' "edges": [], "penalty_a": 1, "penalty_b": 1}')
    assert inst.node_count == 1
    assert inst.edges == ()


def test_self_loop_rejected():
    with pytest.raises(ValidationError, match="self-loop"):
        ProblemInstance(2, False, "tsp", ((1, 1, 5),), 1, 1)


def test_duplicate_edge_rejected():
    # (2,1) canonicalizes onto (1,2)
    with pytest.raises(ValidationError, match="duplicate"):
        ProblemInstance(3, False, "tsp", ((1, 2, 5), (2, 1, 3)), 1, 1)


def test_negative_cost_rejected():
    with pytest.raises(ValidationError, match="negative"):
        ProblemInstance(2, False, "tsp", ((1, 2, -1),), 1, 1)


def test_bad_node_id_rejected():
    with pytest.raises(ValidationError, match="out of range"):
        ProblemInstance(3, False, "tsp", ((1, 4, 1),), 1, 1)


def test_nonpositive_penalty_rejected():
    with pytest.raises(ValidationError, match="penalty_a"):
        ProblemInstance(2, False, "tsp", ((1, 2, 1),), 0, 1)
    with pytest.raises(ValidationError, match="penalty_b"):
        ProblemInstance(2, False, "tsp", ((1, 2, 1),), 1, 0)


@pytest.mark.parametrize("variant", ["cycle", "path", "tsp"])
@pytest.mark.parametrize("directed", [False, True])
def test_with_penalties_is_a_fresh_instance(variant, directed):
    """``with_penalties`` keeps the checked graph and checks the two new
    penalties alone: the result equals an instance built afresh, edge costs
    included, and each refusal is the constructor's, message and all."""
    rng = random.Random(variant)
    edges = tuple((v, u, Fraction(rng.randint(1, 9), rng.randint(1, 3)))
                  for u in range(1, 5) for v in range(1, 5) if u != v and (directed or u < v))
    instance = ProblemInstance(4, directed, variant, edges, 1, 1)
    for a, b in ((Fraction(7, 2), "0.25"), ("5/3", 2), (np.int64(3), 1.5)):
        fresh = ProblemInstance(4, directed, variant, edges, a, b)
        changed = instance.with_penalties(a, b)
        assert changed == fresh and changed._cost == fresh._cost
        assert (type(changed.penalty_a), type(changed.penalty_b)) == (Fraction, Fraction)
    assert (instance.penalty_a, instance.penalty_b) == (1, 1)
    refused = [(0, 1), ("1e4300", 1), (1, "1e-4300")]
    if variant == "tsp":
        refused.append((1, -2))
    else:
        assert instance.with_penalties(1, -2) == ProblemInstance(4, directed, variant, edges, 1, -2)
    for a, b in refused:
        with pytest.raises(ValidationError) as built:
            ProblemInstance(4, directed, variant, edges, a, b)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(built.value))}$"):
            instance.with_penalties(a, b)


def test_parse_error_has_locus():
    with pytest.raises(ParseError, match="line 1"):
        load_instance("{not json")
    with pytest.raises(ParseError, match="missing key"):
        load_instance('{"nodes": 2}')


def test_undirected_edges_canonicalized():
    inst = ProblemInstance(3, False, "tsp", ((3, 1, 2), (2, 1, 1), (3, 2, 5)), 1, 1)
    assert inst.edges == ((1, 2, Fraction(1)), (1, 3, Fraction(2)), (2, 3, Fraction(5)))
    assert inst.has_edge(3, 1) and inst.cost(3, 1) == 2


def test_rational_costs():
    inst = load_instance('{"nodes": 2, "directed": false, "variant": "tsp",'
                         ' "edges": [[1, 2, "3/2"]], "penalty_a": 2.5, "penalty_b": 1}')
    assert inst.cost(1, 2) == Fraction(3, 2)
    assert inst.penalty_a == Fraction(5, 2)


def _random_instance(rng):
    n = rng.randint(1, 6)
    directed = rng.random() < 0.5
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
             if (u != v if directed else u < v)]
    edges = tuple(
        (u, v, Fraction(rng.randint(0, 20), rng.randint(1, 4)))
        for u, v in pairs
        if rng.random() < 0.7
    )
    return ProblemInstance(n, directed, "tsp", edges,
                           Fraction(rng.randint(1, 30)), Fraction(1))


def test_save_load_round_trip():
    rng = random.Random(7)
    for _ in range(40):
        inst = _random_instance(rng)
        for fmt in ("json", "edge_list"):
            again = load_instance(save_instance(inst, fmt))
            assert again == inst


def test_edge_list_format(counterexample_instance):
    text = save_instance(counterexample_instance, "edge_list")
    assert text.splitlines()[0] == "4 undirected tsp 11 1"
    assert load_instance(text) == counterexample_instance


def test_format_from_the_first_non_blank_character(counterexample_instance):
    # blank lines before a JSON object, and a '#' comment before an edge-list header
    text = save_instance(counterexample_instance)
    assert load_instance(" \n\t" + text) == counterexample_instance
    text = save_instance(counterexample_instance, "edge_list")
    assert load_instance("\n# a comment\n" + text) == counterexample_instance
    # a byte-order mark before either format is dropped, from text or bytes
    for fmt in ("json", "edge_list"):
        text = "\ufeff" + save_instance(counterexample_instance, fmt)
        for source in (text, text.encode(), io.BytesIO(text.encode())):
            assert load_instance(source) == counterexample_instance


def test_directed_must_be_a_json_bool():
    # bool("false") is True, so a string must not pass for the flag
    with pytest.raises(ParseError, match="'directed': expected true or false"):
        load_instance(BAD_FIELD_TYPES["directed_string"])


def test_directed_must_be_a_bool():
    # "no" is truthy: the instance would keep (2, 1) as a directed edge and
    # save a file that load_instance refuses
    with pytest.raises(ValidationError, match="directed must be True or False"):
        ProblemInstance(3, "no", "tsp", ((2, 1, 1),), 1, 1)
    with pytest.raises(ValidationError, match="directed"):
        ProblemInstance(3, 0, "tsp", ((2, 1, 1),), 1, 1)
    for directed in (False, True):
        inst = ProblemInstance(3, directed, "tsp", ((2, 1, 1),), 1, 1)
        assert load_instance(save_instance(inst)) == inst


def test_bool_node_count_rejected():
    with pytest.raises(ValidationError, match="^node_count must be an int, got True$"):
        load_instance(BAD_FIELD_TYPES["bool_node_count"])
    with pytest.raises(ValidationError, match="node_count"):
        ProblemInstance(True, False, "cycle", (), 1, 1)


def test_bool_node_id_rejected():
    with pytest.raises(ValidationError, match="node ids must be integers"):
        load_instance(BAD_FIELD_TYPES["bool_node_id"])
    with pytest.raises(ValidationError, match="node ids must be integers"):
        ProblemInstance(3, False, "tsp", ((1, True, 1),), 1, 1)


def test_numpy_ints_build_an_instance_of_plain_ints():
    """Node counts, node ids, costs and penalties given as numpy ints are
    accepted, as the VQE settings are, and stored as plain ints and
    Fractions, so the instance saves as JSON; numpy bools stay refused."""
    plain = ProblemInstance(3, False, "tsp", ((2, 1, 4), (2, 3, 1), (1, 3, 2)), 9, 1)
    edges = tuple(tuple(map(np.int64, edge)) for edge in ((2, 1, 4), (2, 3, 1), (1, 3, 2)))
    inst = ProblemInstance(np.int64(3), False, "tsp", edges, np.int32(9), np.int64(1))
    assert inst == plain
    assert type(inst.node_count) is int
    assert {type(x) for u, v, c in inst.edges for x in (u, v)} == {int}
    for fmt in ("json", "edge_list"):
        assert load_instance(save_instance(inst, fmt)) == plain
    with pytest.raises(ValidationError, match="node_count"):
        ProblemInstance(np.bool_(True), False, "cycle", (), 1, 1)
    with pytest.raises(ValidationError, match="node ids must be integers"):
        ProblemInstance(3, False, "tsp", ((1, np.bool_(True), 1),), 1, 1)


def test_non_string_variant_rejected():
    with pytest.raises(ValidationError, match="variant must be a string, got list"):
        load_instance(BAD_FIELD_TYPES["list_variant"])


@pytest.mark.parametrize("case", sorted(BAD_FIELD_TYPES))
def test_bad_field_types_exit_2(case, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(BAD_FIELD_TYPES[case])
    assert main(["solve", str(path), "--no-timestamp"]) == 2
    err = capsys.readouterr()
    assert err.out == "" and err.err.startswith("error: ")


def _triangle(cost):
    return ProblemInstance(3, False, "tsp", ((1, 2, cost), (2, 3, 1), (1, 3, 1)), 1, 1)


# (value, digits of its numerator, or minus those of its denominator): the
# most a parsed rational may have, 4,300 digits, Python's int-to-str limit
AT_CAP = {
    "1e4299": ("1e4299", 4300), "4300 nines": ("9" * 4300, 4300),
    "int 10^4299": (10**4299, 4300), "1e-4299": ("1e-4299", -4300),
    "Fraction 1/10^4299": (Fraction(1, 10**4299), -4300),
    "4300 sevens/3": ("7" * 4300 + "/3", 4300),
}
PAST_CAP = {
    "1e4300": "1e4300", "-1e4300": "-1e4300", "1e-4300": "1e-4300",
    "10^4300 e0": "1" + "0" * 4300 + "e0", "10^4300 text": "1" + "0" * 4300,
    "int 10^4300": 10**4300, "Fraction 1/10^4300": Fraction(1, 10**4300),
    "0.5e4301": "0.5e4301", "25e-4302": "25e-4302", "5e8601": "5e8601",
    "1e999999999": "1e999999999", "-3.5e-999999999": "-3.5e-999999999",
}


@pytest.mark.parametrize("value, digits", list(AT_CAP.values()), ids=list(AT_CAP))
def test_rationals_of_4300_digits_are_kept_and_written_back(value, digits):
    inst = _triangle(value)
    cost = inst.cost(1, 2)
    assert len(str(cost.numerator if digits > 0 else cost.denominator)) == abs(digits)
    for fmt in ("json", "edge_list"):
        assert load_instance(save_instance(inst, fmt)) == inst


@pytest.mark.parametrize("value", list(PAST_CAP.values()), ids=list(PAST_CAP))
def test_rationals_past_4300_digits_are_refused(value):
    with pytest.raises(ValidationError):
        _triangle(value)
    with pytest.raises(ValidationError, match="penalty_a"):
        ProblemInstance(3, False, "tsp", (), value, 1)


def test_a_huge_exponent_is_refused_before_it_is_expanded():
    import time

    start = time.perf_counter()
    for value in ("1e999999999", "7.25E+999_999_999", "-1e-999999999"):
        with pytest.raises(ValidationError, match="at most 4300 digits"):
            _triangle(value)
    assert time.perf_counter() - start < 0.5  # 10^999999999 would take minutes
    # zero times any power of ten is zero, and stays a valid cost
    assert _triangle("0e999999999").cost(1, 2) == 0
    assert _triangle("-0.000e-999999999").cost(1, 2) == 0
    for bad in ("0/1e999999999", "1/2e999999999", "e999999999", "1e99_", "0x1e999999999"):
        with pytest.raises(ValidationError, match="bad rational"):
            _triangle(bad)


def test_a_json_integer_past_the_digit_limit_is_a_parse_error():
    text = ('{"nodes": 3, "directed": false, "variant": "tsp", "edges": '
            f'[[1, 2, {"9" * 4301}], [2, 3, 1], [1, 3, 1]]}}')
    with pytest.raises(ParseError, match="more than 4300 digits"):
        load_instance(text)
