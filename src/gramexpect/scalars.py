"""Exact rational scalars and their serialized forms.

Every quantity that must stay exact is a ``fractions.Fraction``: arbitrary
precision, always in lowest terms, denominator always positive. This module
owns the two textual forms used across the package, the "num/den" wire string
and fixed-point decimal rendering, plus the float format used in reports,
canonical JSON out, and ``read_json``, the one reader of the model and matrix
files' JSON.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

# Wire grammar: optional sign, integer, optional "/positive-integer".
_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")

# Deepest JSON nesting the readers accept; a model file needs 4 levels, a matrix file 3.
JSON_MAX_DEPTH = 32
# A string literal (an unterminated one runs to the end of the text) or a bracket.
_JSON_BRACKET_RE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?|[\[\]{}]', re.DOTALL)


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


def _json_depth_exceeds(text: str, bound: int) -> bool:
    """True when brackets outside string literals nest deeper than ``bound``."""
    depth = 0
    for match in _JSON_BRACKET_RE.finditer(text):
        token = match.group()
        if token in ("[", "{"):
            depth += 1
            if depth > bound:
                return True
        elif token in ("]", "}"):
            depth -= 1
    return False


def read_json(text: str, what: str, error: type[ValueError] = ValueError) -> object:
    """``json.loads(text)``; malformed or too deeply nested JSON raises ``error`` naming ``what``.

    Nesting deeper than ``JSON_MAX_DEPTH`` is refused before parsing, so the
    refusal does not depend on the interpreter's recursion limit or on how
    deep the caller's stack is.
    """
    if _json_depth_exceeds(text, JSON_MAX_DEPTH):
        raise error(f"{what} nests JSON too deeply to parse")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise error(f"{what} nests JSON too deeply to parse") from None


# An int below 2^2100 has at most 633 decimal digits, under 640, the smallest
# nonzero int-to-str digit limit CPython accepts (3.10.7+), so ``str`` prints it
# whatever the limit is; a longer int is printed in pieces that short.
_PLAIN_STR_BITS = 2100


def _int_string(value: int, width: int = 0) -> str:
    """``str(value)``, zero-padded to ``width`` digits, of any length, without touching the digit limit.

    A long value is split by divmod at a power of ten near half its digits,
    and its low piece zero-padded, until every piece is short. Parsing is
    not changed: ``parse_rational`` keeps the limit.
    """
    if value.bit_length() < _PLAIN_STR_BITS:
        return str(value).zfill(width)
    if value < 0:
        return "-" + _int_string(-value)
    half = value.bit_length() * 3 // 20  # about half of its bits times log10(2)
    high, low = divmod(value, 10**half)
    return _int_string(high, width - half) + _int_string(low, half)


def format_rational(value: Fraction | int) -> str:
    """Canonical wire form: lowest terms, "num/den", bare integer if den == 1, of any length."""
    q = Fraction(value)
    numerator = _int_string(q.numerator)
    return numerator if q.denominator == 1 else f"{numerator}/{_int_string(q.denominator)}"


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
        return f"{sign}{_int_string(units)}"
    int_part, frac_part = divmod(units, scale)
    return f"{sign}{_int_string(int_part)}.{_int_string(frac_part, places)}"


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
