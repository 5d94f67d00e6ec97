import decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramexpect.scalars import (
    canonical_json,
    decimal_string,
    format_float,
    format_rational,
    parse_rational,
    read_json,
)


class TestParseRational:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3/8", Fraction(3, 8)),
            ("-7/2", Fraction(-7, 2)),
            ("42", Fraction(42)),
            ("-1", Fraction(-1)),
            ("0", Fraction(0)),
            ("6/8", Fraction(3, 4)),
            ("  5/6 ", Fraction(5, 6)),
        ],
    )
    def test_accepts_wire_forms(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("bad", ["1.5", "3e2", "1/0", "1/-2", "/3", "a/b", "", "1 / 2", "--1"])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_rejects_non_strings(self):
        with pytest.raises(ValueError):
            parse_rational(1.5)

    @given(st.fractions(max_denominator=10**6))
    @settings(max_examples=100)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


class TestFormatRational:
    def test_lowest_terms_and_bare_integers(self):
        assert format_rational(Fraction(6, 8)) == "3/4"
        assert format_rational(Fraction(-10, 5)) == "-2"
        assert format_rational(7) == "7"


class TestDecimalString:
    @pytest.mark.parametrize(
        "value,places,expected",
        [
            (Fraction(565, 16), 2, "35.31"),
            (Fraction(6775, 16), 2, "423.44"),
            (Fraction(42375, 16), 2, "2648.44"),
            (Fraction(28125, 4), 2, "7031.25"),
            (Fraction(0), 2, "0.00"),
            (Fraction(1, 200), 2, "0.01"),
            (Fraction(-1, 200), 2, "-0.01"),
            (Fraction(-1, 300), 2, "0.00"),
            (Fraction(5, 2), 0, "3"),
            (Fraction(-5, 2), 0, "-3"),
            (Fraction(1, 3), 4, "0.3333"),
        ],
    )
    def test_half_away_from_zero(self, value, places, expected):
        assert decimal_string(value, places) == expected

    def test_rejects_negative_places(self):
        with pytest.raises(ValueError):
            decimal_string(Fraction(1), -1)

    @given(
        st.fractions(min_value=-100, max_value=100, max_denominator=1000),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=150)
    def test_matches_decimal_module(self, q, places):
        # Independent rounding oracle: the decimal module at high precision
        # with ROUND_HALF_UP on the absolute value. Plenty of guard digits,
        # and ties only occur for terminating expansions, which 60 digits
        # represent exactly at this denominator bound.
        ctx = decimal.Context(prec=60)
        magnitude = ctx.divide(decimal.Decimal(abs(q.numerator)), decimal.Decimal(q.denominator))
        quantum = decimal.Decimal(1).scaleb(-places)
        expected = magnitude.quantize(quantum, rounding=decimal.ROUND_HALF_UP)
        if q < 0 and expected != 0:
            expected = -expected
        assert decimal_string(q, places) == f"{expected:f}"


class TestFormatFloat:
    def test_17_significant_digits_round_trip(self):
        for x in (0.1, 1 / 3, 2648.4375, 1e-300, 123456789.123456789):
            assert float(format_float(x)) == x

    def test_rejects_non_finite(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                format_float(bad)


class TestCanonicalJson:
    def test_sorted_keys_compact_and_typed(self):
        out = canonical_json({"b": Fraction(1, 2), "a": [1, 2.5, None, True], "c": "x"})
        assert out == '{"a":[1,2.5,null,true],"b":"1/2","c":"x"}'

    def test_float_precision(self):
        assert canonical_json(1 / 3) == "0.33333333333333331"

    def test_identical_data_identical_bytes(self):
        a = canonical_json({"x": [Fraction(3, 8), 1.25], "y": {"k": 1}})
        b = canonical_json({"y": {"k": 1}, "x": [Fraction(6, 16), 1.25]})
        assert a == b


class TestReadJson:
    class CustomError(ValueError):
        pass

    def test_invalid_json_raises_the_given_error_naming_the_file(self):
        with pytest.raises(self.CustomError, match="^some file is not valid JSON: Expecting property name"):
            read_json("{", "some file", self.CustomError)

    def test_deep_nesting_raises_the_given_error_naming_the_file(self):
        with pytest.raises(self.CustomError, match="^some file nests JSON too deeply to parse$") as info:
            read_json("[" * 100_000, "some file", self.CustomError)
        assert info.value.__cause__ is None
