from fractions import Fraction
from math import factorial
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramexpect import TruncatedSeries

F = Fraction


def series_strategy(order=6, zero_constant=False):
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    def build(values):
        if zero_constant:
            values = [F(0)] + values[1:]
        return TruncatedSeries.from_coefficients(values, order)
    return st.lists(coeff, min_size=order + 1, max_size=order + 1).map(build)


def product(a, b):
    """Coefficients of a * b for two series of one order, by convolution."""
    return tuple(sum(a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1)) for k in range(a.order + 1))


def one(order):
    return (F(1),) + (F(0),) * order


class TestConstruction:
    def test_padding_and_truncation(self):
        s = TruncatedSeries.from_coefficients([1, "1/2"], 3)
        assert s.coeffs == (F(1), F(1, 2), F(0), F(0))
        s = TruncatedSeries.from_coefficients([1, 2, 3, 4], 1)
        assert s.coeffs == (F(1), F(2))

    @pytest.mark.parametrize("bad", [0.5, 2.0, True, False, None], ids=repr)
    def test_rejects_floats_and_bools(self, bad):
        with pytest.raises(ValueError):
            TruncatedSeries.from_coefficients([F(1, 2), bad, 1])
        with pytest.raises(ValueError):
            TruncatedSeries.from_coefficients([bad], 3)

    def test_requires_constant_coefficient(self):
        with pytest.raises(ValueError):
            TruncatedSeries(())

    def test_coefficient_bounds(self):
        s = TruncatedSeries.from_coefficients([1], 2)
        assert s.coefficient(0) == 1
        with pytest.raises(IndexError):
            s.coefficient(3)


class TestExp:
    def test_exp_of_x(self):
        s = TruncatedSeries.from_coefficients([0, 1], 6)
        assert s.exp().coeffs == tuple(F(1, factorial(n)) for n in range(7))

    def test_exp_of_log_one_plus_x(self):
        # log(1+x) = x - x^2/2 + x^3/3 - ...; exp of it is exactly 1 + x.
        order = 8
        log_series = TruncatedSeries.from_coefficients(
            [0] + [F((-1) ** (k - 1), k) for k in range(1, order + 1)]
        )
        expected = (F(1), F(1)) + (F(0),) * (order - 1)
        assert log_series.exp().coeffs == expected

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError):
            TruncatedSeries.from_coefficients([1, 1]).exp()

    @given(series_strategy(order=5, zero_constant=True), series_strategy(order=5, zero_constant=True))
    @settings(max_examples=40)
    def test_exp_is_a_homomorphism(self, a, b):
        total = TruncatedSeries(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))
        assert total.exp().coeffs == product(a.exp(), b.exp())


class TestInverse:
    def test_inverse_of_one_minus_x(self):
        s = TruncatedSeries.from_coefficients([1, -1], 5)
        assert s.inverse().coeffs == (F(1),) * 6

    def test_inverse_requires_nonzero_constant(self):
        with pytest.raises(ValueError):
            TruncatedSeries.from_coefficients([0, 1]).inverse()

    @given(series_strategy(order=5))
    @settings(max_examples=40)
    def test_series_times_inverse_is_one(self, s):
        if s.coeffs[0] == 0:
            s = TruncatedSeries((s.coeffs[0] + 1,) + s.coeffs[1:])
        if s.coeffs[0] == 0:
            return
        assert product(s, s.inverse()) == one(s.order)

    def test_random_scaled_inverses(self):
        rng = Random(31)
        for _ in range(20):
            coeffs = [F(rng.randint(1, 5))] + [
                F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(6)
            ]
            s = TruncatedSeries.from_coefficients(coeffs)
            assert product(s, s.inverse()) == one(6)
