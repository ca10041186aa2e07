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

import re
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import ValidationError
from .layouts import is_int

# The most decimal digits a parsed rational's numerator or denominator may
# have: Python's default limit on int-to-str conversion, so every accepted
# value can be written back out
RATIONAL_DIGITS = 4300
_DIGIT_LIMIT = 10 ** RATIONAL_DIGITS
# a decimal in Fraction's syntax with an exponent: (mantissa, exponent digits)
_DECIMAL = re.compile(r"([-+]?[0-9_]*(?:\.[0-9_]*)?)[eE][-+]?([0-9]+(?:_[0-9]+)*)")


def _bounded(text: str, context) -> str:
    """``text``, refused when its decimal exponent alone is beyond 2 x
    ``RATIONAL_DIGITS`` on a mantissa with a nonzero digit, so that the
    power of ten is never expanded: the mantissa, at most
    ``RATIONAL_DIGITS`` digits (Python reads no longer one), cannot bring
    such a number within the cap.  On a zero mantissa that exponent is
    dropped: zero times any power of ten is zero."""
    match = _DECIMAL.fullmatch(text)
    if match:
        digits, bound = match[2].replace("_", "").lstrip("0"), 2 * RATIONAL_DIGITS
        if len(digits) > len(str(bound)) or int(digits or 0) > bound:
            if re.search("[1-9]", match[1]):
                raise _too_many_digits(context)
            return match[1]
    return text


def parse_rational(value, context="value") -> Fraction:
    """Convert an int (a numpy one included), string, float, or Fraction to
    an exact Fraction.

    Floats are parsed through their shortest decimal repr, so a JSON file
    read with ``parse_float=str`` and a float passed directly give the
    same result.  A value whose numerator or denominator has more than
    ``RATIONAL_DIGITS`` digits is refused with ``ValidationError``; a text
    whose decimal exponent alone puts it past that cap is refused before
    the power of ten is expanded.
    """
    if isinstance(value, bool):
        raise ValidationError(f"{context}: expected a number, got a bool")
    if is_int(value):
        result = Fraction(int(value))
    elif isinstance(value, Fraction):
        result = value
    elif isinstance(value, (float, str)):
        text = repr(value) if isinstance(value, float) else value.strip()
        try:
            result = Fraction(_bounded(text, context))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"{context}: bad rational {value!r}") from exc
    else:
        raise ValidationError(f"{context}: expected a number, got {type(value).__name__}")
    if abs(result.numerator) >= _DIGIT_LIMIT or result.denominator >= _DIGIT_LIMIT:
        raise _too_many_digits(context)
    return result


def _too_many_digits(context) -> ValidationError:
    return ValidationError(f"{context}: a rational's numerator and denominator may have at "
                           f"most {RATIONAL_DIGITS} digits")


def rational_to_json(value: Fraction):
    """Render a Fraction as an int when integral, else as a "p/q" string.

    A value derived from accepted ones (a tour cost, a coefficient over a
    common denominator) can pass ``RATIONAL_DIGITS`` digits, past which
    Python writes no int: it is refused with ``ValidationError``, before any
    of the text it belongs to is written.
    """
    if abs(value.numerator) >= _DIGIT_LIMIT or value.denominator >= _DIGIT_LIMIT:
        raise ValidationError(f"a derived rational passes {RATIONAL_DIGITS} digits in its "
                              f"numerator or denominator, the most that can be written")
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

