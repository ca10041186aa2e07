"""Problem instances: weighted graphs, variants, penalties, and file I/O.

Two on-disk formats are supported and documented in the README;
``load_instance`` tells them apart by the text, under any file name:

JSON::

    {"nodes": N, "directed": false, "variant": "tsp",
     "edges": [[u, v, cost], ...], "penalty_a": A, "penalty_b": B}

Edge list::

    N directed|undirected cycle|path|tsp A B
    u v cost        (one line per edge, '#' starts a comment)

Node ids are 1..N.  Undirected edges are canonicalized to u < v and stored
once.  Costs and penalties are exact rationals (int, "p/q", or decimal
string).
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParseError, ValidationError
from .layouts import checked_int, is_int
from .rationals import RATIONAL_DIGITS, parse_rational, rational_to_json

VARIANTS = ("hamiltonian_cycle", "hamiltonian_path", "tsp")

_SHORT_VARIANT = {"cycle": "hamiltonian_cycle", "path": "hamiltonian_path", "tsp": "tsp"}
_VARIANT_SHORT = {v: k for k, v in _SHORT_VARIANT.items()}


def _normalize_variant(variant: str) -> str:
    if not isinstance(variant, str):
        raise ValidationError(f"variant must be a string, got {type(variant).__name__}")
    v = _SHORT_VARIANT.get(variant, variant)
    if v not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}")
    return v


def _checked_penalties(variant: str, penalty_a, penalty_b) -> tuple[Fraction, Fraction]:
    """(A, B) as Fractions; refuses A <= 0, and B <= 0 for tsp."""
    a = parse_rational(penalty_a, "penalty_a")
    b = parse_rational(penalty_b, "penalty_b")
    if a <= 0:
        raise ValidationError(f"penalty_a must be positive, got {a}")
    if variant == "tsp" and b <= 0:
        raise ValidationError(f"penalty_b must be positive for tsp, got {b}")
    return a, b


@dataclass(frozen=True)
class ProblemInstance:
    """A weighted (di)graph plus problem variant and penalty coefficients.

    Immutable after construction; safe to share across threads.
    """

    node_count: int
    directed: bool
    variant: str
    edges: tuple[tuple[int, int, Fraction], ...]
    penalty_a: Fraction
    penalty_b: Fraction
    _cost: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = checked_int("node_count", self.node_count, 1)
        object.__setattr__(self, "node_count", n)
        if not isinstance(self.directed, bool):
            raise ValidationError(f"directed must be True or False, got {self.directed!r}")
        object.__setattr__(self, "variant", _normalize_variant(self.variant))
        a, b = _checked_penalties(self.variant, self.penalty_a, self.penalty_b)
        object.__setattr__(self, "penalty_a", a)
        object.__setattr__(self, "penalty_b", b)

        canonical = []
        cost = {}
        for i, edge in enumerate(self.edges):
            try:
                u, v, c = edge
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"edge #{i}: expected (u, v, cost)") from exc
            if not (is_int(u) and is_int(v)):
                raise ValidationError(f"edge #{i}: node ids must be integers")
            u, v = int(u), int(v)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValidationError(f"edge #{i}: node id out of range 1..{n}: ({u}, {v})")
            if u == v:
                raise ValidationError(f"edge #{i}: self-loop ({u}, {v}) not allowed")
            c = parse_rational(c, f"edge #{i} cost")
            if c < 0:
                raise ValidationError(f"edge #{i}: negative cost {c}")
            if not self.directed and u > v:
                u, v = v, u
            if (u, v) in cost:
                raise ValidationError(f"edge #{i}: duplicate edge ({u}, {v})")
            cost[(u, v)] = c
            canonical.append((u, v, c))
        canonical.sort()
        object.__setattr__(self, "edges", tuple(canonical))
        object.__setattr__(self, "_cost", cost)

    # -- queries ----------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        """True if the ordered step u -> v traverses an existing edge."""
        if self.directed:
            return (u, v) in self._cost
        return (min(u, v), max(u, v)) in self._cost

    def cost(self, u: int, v: int) -> Fraction:
        key = (u, v) if self.directed else (min(u, v), max(u, v))
        return self._cost[key]

    def max_cost(self) -> Fraction:
        if not self.edges:
            raise ValidationError("instance has no edges; max cost undefined")
        return max(c for _, _, c in self.edges)

    def ordered_edges(self):
        """Yield (u, v, cost) for every ordered traversal of an edge."""
        for u, v, c in self.edges:
            yield u, v, c
            if not self.directed:
                yield v, u, c

    def missing_ordered_pairs(self):
        """Yield ordered pairs (u, v), u != v, that are not edges."""
        for u in range(1, self.node_count + 1):
            for v in range(1, self.node_count + 1):
                if u != v and not self.has_edge(u, v):
                    yield u, v

    def with_penalties(self, penalty_a, penalty_b) -> "ProblemInstance":
        """This instance with penalties A and B, checked as the constructor
        checks them.  The graph, checked already, is shared, not parsed
        again."""
        a, b = _checked_penalties(self.variant, penalty_a, penalty_b)
        instance = object.__new__(type(self))
        instance.__dict__.update(self.__dict__, penalty_a=a, penalty_b=b)
        return instance


# -- loading ---------------------------------------------------------------


def _read_text(source) -> str:
    data = source if isinstance(source, (str, bytes)) else source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    # a leading byte-order mark is not blank, so it would hide a JSON '{'
    return data.removeprefix("\ufeff")


# a JSON instance is an object; an edge-list header starts with the node
# count or a '#' comment
_JSON_START = re.compile(r"\s*[{\[]")


def load_instance(source) -> ProblemInstance:
    """Parse an instance from text, bytes, or a file object: JSON when its
    first non-blank character is ``{`` or ``[``, else an edge list.

    Raises ParseError (with a locus) on malformed input and ValidationError
    on semantic problems such as duplicate edges or non-positive penalties.
    """
    text = _read_text(source)
    if _JSON_START.match(text):
        return _load_json(text)
    return _load_edge_list(text)


def _load_json(text: str) -> ProblemInstance:
    try:
        # parse_float=str keeps decimal literals exact for Fraction parsing
        doc = json.loads(text, parse_float=str)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past Python's int-to-str digit limit
        raise ParseError(f"a number has more than {RATIONAL_DIGITS} digits") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level: expected a JSON object")
    missing = [k for k in ("nodes", "directed", "variant", "edges") if k not in doc]
    if missing:
        raise ParseError(f"missing key(s): {', '.join(missing)}")
    if not isinstance(doc["directed"], bool):
        raise ParseError("'directed': expected true or false")
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise ParseError("'edges': expected a list")
    for i, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 3):
            raise ParseError(f"'edges'[{i}]: expected [u, v, cost]")
    return ProblemInstance(
        node_count=doc["nodes"],
        directed=doc["directed"],
        variant=doc["variant"],
        edges=tuple((e[0], e[1], e[2]) for e in edges),
        penalty_a=doc.get("penalty_a", 1),
        penalty_b=doc.get("penalty_b", 1),
    )


def _load_edge_list(text: str) -> ProblemInstance:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    if not lines:
        raise ParseError("empty edge-list input")
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) != 5:
        raise ParseError(f"line {lineno}: header needs 'N directed variant A B'")
    try:
        n = int(fields[0])
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bad node count {fields[0]!r}") from exc
    if fields[1] not in ("directed", "undirected"):
        raise ParseError(f"line {lineno}: expected 'directed' or 'undirected'")
    edges = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'u v cost'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad node id") from exc
        edges.append((u, v, parts[2]))
    return ProblemInstance(
        node_count=n,
        directed=fields[1] == "directed",
        variant=fields[2],
        edges=tuple(edges),
        penalty_a=fields[3],
        penalty_b=fields[4],
    )


# -- saving ----------------------------------------------------------------


def save_instance(instance: ProblemInstance, format: str = "json") -> str:
    """Serialize canonically; load_instance(save_instance(x)) == x."""
    if format == "json":
        doc = {
            "nodes": instance.node_count,
            "directed": instance.directed,
            "variant": _VARIANT_SHORT[instance.variant],
            "edges": [[u, v, rational_to_json(c)] for u, v, c in instance.edges],
            "penalty_a": rational_to_json(instance.penalty_a),
            "penalty_b": rational_to_json(instance.penalty_b),
        }
        return json.dumps(doc, indent=2) + "\n"
    if format == "edge_list":
        out = io.StringIO()
        direction = "directed" if instance.directed else "undirected"
        out.write(
            f"{instance.node_count} {direction} {_VARIANT_SHORT[instance.variant]} "
            f"{rational_to_json(instance.penalty_a)} {rational_to_json(instance.penalty_b)}\n"
        )
        for u, v, c in instance.edges:
            out.write(f"{u} {v} {rational_to_json(c)}\n")
        return out.getvalue()
    raise ValidationError(f"unknown instance format {format!r}")
