import decimal
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramexpect.scalars import (
    JSON_MAX_DEPTH,
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


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="the interpreter has no int-to-str digit limit")
class TestPastTheIntDigitLimit:
    """Rendering prints every digit under any int-to-str limit, and never changes the limit."""

    @pytest.fixture
    def limit_640(self):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        yield
        sys.set_int_max_str_digits(previous)

    def test_rendering_prints_every_digit_and_restores_the_limit(self, limit_640):
        big = Fraction(10**5000 + 1, 3 * 10**700)
        assert format_rational(big) == f"{'1' + '0' * 4999 + '1'}/{'3' + '0' * 700}"
        assert decimal_string(Fraction(10**5000), 0) == "1" + "0" * 5000
        assert decimal_string(Fraction(-(10**5000) - 1, 4), 2) == "-25" + "0" * 4998 + ".25"
        assert sys.get_int_max_str_digits() == 640

    def test_long_values_print_in_pieces_without_setting_the_limit(self, limit_640, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"the int-to-str digit limit was set to {limit}")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
        # 10^633 is the shortest power of ten past the plain-str bound, 2^2100.
        assert format_rational(10**633) == "1" + "0" * 633
        assert format_rational(10**634 - 1) == "9" * 634
        assert format_rational(-(10**1300) - 3) == "-1" + "0" * 1299 + "3"
        assert format_rational(Fraction(1, 10**700)) == "1/1" + "0" * 700
        assert decimal_string(Fraction(2, 3), 1000) == "0." + "6" * 999 + "7"
        assert decimal_string(Fraction(-(10**5000) - 1, 10**700), 1000) == "-1" + "0" * 4300 + "." + "0" * 699 + "1" + "0" * 300

    def test_parsing_keeps_the_limit(self, limit_640):
        with pytest.raises(ValueError, match="limit"):
            parse_rational("1" * 641)
        assert parse_rational("1" * 640) == int("1" * 640)


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

    @staticmethod
    def nested(depth):
        return "[" * depth + "1" + "]" * depth

    def test_the_documented_bound(self):
        assert JSON_MAX_DEPTH == 32

    def test_parses_at_the_bound_and_refuses_one_past_it(self):
        assert read_json(self.nested(JSON_MAX_DEPTH), "some file") == json.loads(self.nested(JSON_MAX_DEPTH))
        with pytest.raises(self.CustomError, match="^some file nests JSON too deeply to parse$"):
            read_json(self.nested(JSON_MAX_DEPTH + 1), "some file", self.CustomError)

    @pytest.mark.parametrize(
        "text, too_deep",
        [
            ('["' + "[" * 100 + '"]', False),
            (r'{"a": "\"[[' + "{" * 100 + '"}', False),
            (r'["\\", ' + "[" * JSON_MAX_DEPTH + "]" * JSON_MAX_DEPTH + "]", True),
        ],
        ids=["brackets-in-a-string", "escaped-quote", "escaped-backslash-ends-the-string"],
    )
    def test_only_brackets_outside_strings_count(self, text, too_deep):
        if too_deep:
            with pytest.raises(ValueError, match="too deeply"):
                read_json(text, "some file")
        else:
            read_json(text, "some file")

    def test_an_unterminated_string_is_invalid_json_not_too_deep(self):
        with pytest.raises(ValueError, match="^some file is not valid JSON: Unterminated string"):
            read_json('["' + "[" * 100, "some file")

    def test_the_bound_does_not_depend_on_the_callers_stack(self):
        def stack_depth():
            frame, depth = sys._getframe(1), 0
            while frame is not None:
                frame, depth = frame.f_back, depth + 1
            return depth

        def from_frame(frames):
            if frames > 0:
                return from_frame(frames - 1)
            assert stack_depth() >= 900
            parsed = read_json(self.nested(JSON_MAX_DEPTH), "some file")
            with pytest.raises(self.CustomError, match="^some file nests JSON too deeply to parse$"):
                read_json(self.nested(JSON_MAX_DEPTH + 1), "some file", self.CustomError)
            return parsed

        assert from_frame(900 - stack_depth()) == json.loads(self.nested(JSON_MAX_DEPTH))
