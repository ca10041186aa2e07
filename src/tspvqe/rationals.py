"""Exact rational parsing, serialization and scaling, and the exact polynomial core.

Costs and penalties are parsed to `fractions.Fraction`.  JSON carries
rationals as plain integers when integral and as "p/q" strings otherwise;
decimal strings like "1.5" are accepted on input.

``ExactPolynomial`` is the core of the binary and the spin form.  It holds
one ``numerators`` dict over one positive ``denominator``: each key is a
sorted tuple of at most two distinct variable indices, ``()`` for the
constant, and each value a nonzero Python int.  ``exact_terms`` builds
and checks that dict from Fraction or int coefficients; the encoders and
transforms sum ints into it directly.  So binary/Ising equivalence checks
are bit-exact, and no Fraction is made per term unless a coefficient is read
as one.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

import numpy as np

from .errors import ValidationError


def parse_rational(value, context="value") -> Fraction:
    """Convert an int, string, float, or Fraction to an exact Fraction.

    Floats are parsed through their shortest decimal repr, so a JSON file
    read with ``parse_float=str`` and a float passed directly give the
    same result.
    """
    if isinstance(value, bool):
        raise ValidationError(f"{context}: expected a number, got a bool")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        value = repr(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"{context}: bad rational {value!r}") from exc
    raise ValidationError(f"{context}: expected a number, got {type(value).__name__}")


def rational_to_json(value: Fraction):
    """Render a Fraction as an int when integral, else as a "p/q" string."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def common_scale(values):
    """(scale, ints): the lcm of the denominators of ``values`` (Fractions or
    ints) and each value times it, as exact Python ints."""
    values = list(values)
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def exact_terms(index, constant, linear, quadratic):
    """(denominator, numerators) of constant + sum linear[v] v + sum
    quadratic[(a, b)] a b, coefficients Fractions or ints.

    ``index`` maps each variable to its position, the key ``numerators``
    uses.  A pair given in both orders is one term, summed; zero terms are
    dropped.  Raises ``ValidationError`` for a variable outside ``index`` or
    a pair of one variable with itself.
    """
    keys = []
    for var in linear:
        if var not in index:
            raise ValidationError(f"linear term on unknown variable {var}")
        keys.append((index[var],))
    for pair in quadratic:
        a, b = pair
        if a == b:
            raise ValidationError(f"quadratic term on repeated variable {a}")
        if a not in index or b not in index:
            raise ValidationError(f"quadratic term on unknown variables {pair}")
        keys.append(tuple(sorted((index[a], index[b]))))
    scale, ints = common_scale([constant, *linear.values(), *quadratic.values()])
    sums = {(): ints[0]}
    for key, c in zip(keys, ints[1:]):
        sums[key] = sums.get(key, 0) + c
    return scale, {key: c for key, c in sums.items() if c}


class ExactPolynomial:
    """The core of both forms: ``numerators`` over ``denominator``, keyed as
    ``exact_terms`` keys them.  Immutable by convention."""

    @classmethod
    def of(cls, denominator, sums, **names):
        """A ``cls`` of coefficients ``sums[key] / denominator``, the keys taken
        as they are and zero sums dropped; ``names`` are its other attributes."""
        poly = cls.__new__(cls)
        vars(poly).update(names, denominator=denominator,
                          numerators={key: c for key, c in sums.items() if c})
        return poly

    @cached_property
    def constant(self) -> Fraction:
        return Fraction(self.numerators.get((), 0), self.denominator)

    def fractions(self, degree) -> dict:
        """{key: Fraction} of the terms of ``degree`` variables, in key order."""
        d = self.denominator
        return {key: Fraction(c, d) for key, c in sorted(self.numerators.items())
                if len(key) == degree}


def scale_to_int64(denominator: int, constant: int, numerators):
    """(scale, constant, int64 array of coefficients): the values
    ``constant / denominator`` and ``numerators[k] / denominator`` as exact
    ints over their least common denominator ``scale``.

    ``scale`` is ``denominator`` divided by its gcd with every numerator.
    Raises ``ValidationError`` unless the scaled |constant| + sum
    |coefficients| is below 2^62, the bound under which the int64 energy
    kernel is exact.
    """
    g = gcd(denominator, constant, *numerators)
    ints = [constant // g, *(c // g for c in numerators)]
    if sum(map(abs, ints)) >= 1 << 62:
        raise ValidationError("coefficients overflow int64 kernels")
    return denominator // g, ints[0], np.array(ints[1:], dtype=np.int64)
