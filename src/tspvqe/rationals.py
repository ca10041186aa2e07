"""Exact rational parsing, serialization and scaling.

Costs and penalties are parsed to `fractions.Fraction`.  Polynomial
coefficients are held as exact Python-int numerators over one common
denominator (``scale_terms``), so binary/Ising equivalence checks are
bit-exact and no Fraction is made per term unless a coefficient is read as
one.  JSON carries rationals as plain integers when integral and as "p/q"
strings otherwise; decimal strings like "1.5" are accepted on input.
"""

from fractions import Fraction
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


def scale_terms(constant, *terms):
    """(denominator, constant numerator, one {key: numerator} dict per
    mapping of ``terms``): a constant and term coefficients (Fractions or
    ints) over their common denominator, zero terms dropped, order kept."""
    scale, ints = common_scale([constant, *(c for t in terms for c in t.values())])
    numerators, at = [], 1
    for t in terms:
        numerators.append({k: c for k, c in zip(t, ints[at:at + len(t)]) if c})
        at += len(t)
    return scale, ints[0], numerators


def fraction_terms(numerators: dict, denominator: int) -> dict:
    """{key: Fraction(numerator, denominator)}, in the order of ``numerators``."""
    return {k: Fraction(c, denominator) for k, c in numerators.items()}


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
