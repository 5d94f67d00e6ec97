"""Exact rational scalars and their serialized forms.

Every quantity that must stay exact is a ``fractions.Fraction``: arbitrary
precision, always in lowest terms, denominator always positive. This module
owns the two textual forms used across the package, the "num/den" wire string
and fixed-point decimal rendering, plus the float format used in reports.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

# Wire grammar: optional sign, integer, optional "/positive-integer".
_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


def parse_rational(text: str) -> Fraction:
    """Parse a wire-format rational, either "num/den" or a bare integer.

    Raises ValueError on anything else; floats and scientific notation are
    rejected on purpose so inexact values cannot sneak in through files.
    """
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {type(text).__name__}")
    match = _RATIONAL_RE.match(text.strip())
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    numerator = int(match.group(1))
    denominator = int(match.group(2)) if match.group(2) else 1
    return Fraction(numerator, denominator)


def to_rational(value: Fraction | int | str, what: str, error: type[ValueError] = ValueError) -> Fraction:
    """A wire string, an int or a Fraction as a Fraction.

    Bools, floats and anything else raise ``error`` naming ``what``; a
    malformed string raises ValueError from ``parse_rational``.
    """
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise error(f"{what} must be a rational string or an integer, got {value!r}")
    return Fraction(value)


def format_rational(value: Fraction | int) -> str:
    """Canonical wire form: lowest terms, "num/den", bare integer if den == 1."""
    return str(Fraction(value))


def decimal_string(value: Fraction | int, places: int = 2) -> str:
    """Render exactly with ``places`` decimals, rounding half away from zero.

    The rounding is done on the exact rational, so there is no binary float
    in the path and ties are unambiguous.
    """
    if places < 0:
        raise ValueError("places must be >= 0")
    q = Fraction(value)
    scale = 10**places
    units, remainder = divmod(abs(q.numerator) * scale, q.denominator)
    if 2 * remainder >= q.denominator:
        units += 1
    sign = "-" if q < 0 and units > 0 else ""
    if places == 0:
        return f"{sign}{units}"
    int_part, frac_part = divmod(units, scale)
    return f"{sign}{int_part}.{frac_part:0{places}d}"


def format_float(value: float) -> str:
    """Serialize a float with 17 significant digits (round-trips exactly)."""
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError("non-finite floats have no serialized form")
    return format(value, ".17g")


def canonical_json(value: object) -> str:
    """Deterministic JSON: sorted keys, compact separators, 17-digit floats.

    Fractions become wire strings. The point is byte-identical output for
    identical data, which the reproducibility contract leans on.
    """
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return json.dumps(format_rational(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if any(not isinstance(k, str) for k in value):
            raise TypeError("JSON object keys must be strings")
        body = ",".join(f"{json.dumps(k)}:{canonical_json(value[k])}" for k in sorted(value))
        return "{" + body + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")
