"""Exact rational parsing and serialization.

All costs, penalties, and polynomial coefficients are `fractions.Fraction`
so that binary/Ising equivalence checks are bit-exact.  JSON carries
rationals as plain integers when integral and as "p/q" strings otherwise;
decimal strings like "1.5" are accepted on input.
"""

from fractions import Fraction
from math import lcm

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


def scale_to_int64(constant: Fraction, coefficients):
    """(scale, constant * scale, int64 array of coefficients * scale), exactly.

    ``scale`` is the common denominator.  Raises ``ValidationError`` unless
    the scaled |constant| + sum |coefficients| is below 2^62, the bound under
    which the int64 energy kernel is exact.
    """
    scale, ints = common_scale([constant, *coefficients])
    if sum(map(abs, ints)) >= 1 << 62:
        raise ValidationError("coefficients overflow int64 kernels")
    return scale, ints[0], np.array(ints[1:], dtype=np.int64)
