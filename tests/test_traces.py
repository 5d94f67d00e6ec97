from fractions import Fraction
from math import lcm
from random import Random

import pytest

from gramexpect import (
    ExactMatrix,
    char_coeffs,
    paper_model,
    traces_by_power,
    traces_from_char_coeffs,
)
from gramexpect.matrices import CharCoeffs, leverrier_char_coeffs
from gramexpect.models import moment_matrix_multinomial
from gramexpect.traces import integer_elementary_from_power_sums

from conftest import diagonal_sum, identity_matrix, integer_scaling_cases, random_matrix, random_psd, random_symmetric

F = Fraction

PAPER_TRACES = (
    F(565, 16),
    F(210825, 256),
    F(93917125, 4096),
    F(42581180625, 65536),
    F(19338382478125, 1048576),
    F(8784040432265625, 16777216),
    F(3990026079685703125, 268435456),
)


def fraction_power_traces(matrix, count):
    """tr(M^k) for k = 1..count by Fraction products of the matrix as given: the integer traces' reference."""
    values, power = [], matrix
    for k in range(count):
        if k:
            power = power @ matrix
        values.append(diagonal_sum(power))
    return tuple(values)


class TestTracesByPower:
    @pytest.mark.parametrize("case", integer_scaling_cases().items(), ids=lambda case: case[0])
    def test_integer_scaled_equals_fraction_products(self, case):
        _, m = case
        values = traces_by_power(m, 7).values
        assert values == fraction_power_traces(m, 7)
        assert all(type(v) is Fraction for v in values)

    def test_non_square_is_refused(self):
        with pytest.raises(ValueError):
            traces_by_power(ExactMatrix.from_rows([["1/7", 2], [3, "4/9"], [5, 6]]), 3)

    def test_paper_trace_table(self):
        traces = traces_by_power(moment_matrix_multinomial(paper_model()), 7)
        assert traces.values == PAPER_TRACES

    def test_identity_traces(self):
        for t in (1, 2, 4):
            traces = traces_by_power(identity_matrix(t), 5)
            assert traces.values == (F(t),) * 5

    def test_hand_two_by_two(self):
        m = ExactMatrix.from_rows([[3, "1/3"], ["1/3", "1/3"]])
        traces = traces_by_power(m, 2)
        assert traces[1] == F(10, 3)
        assert traces[2] == F(84, 9)

    def test_first_trace_is_diagonal_sum(self):
        rng = Random(2)
        for _ in range(10):
            m = random_symmetric(rng, rng.randint(1, 5))
            diagonal = sum(m.entries[i][i] for i in range(m.rows))
            assert traces_by_power(m, 1)[1] == diagonal

    def test_one_based_indexing(self):
        traces = traces_by_power(identity_matrix(2), 3)
        assert len(traces) == 3
        with pytest.raises(IndexError):
            traces[0]
        with pytest.raises(IndexError):
            traces[4]


class TestTracesFromCharCoeffs:
    def test_one_by_one_powers(self):
        coeffs = CharCoeffs((F(1), F(3, 2)))
        traces = traces_from_char_coeffs(coeffs, 5)
        assert traces.values == tuple(F(3, 2) ** n for n in range(1, 6))

    def test_identity_coeffs(self):
        for t in (1, 3, 4):
            coeffs = leverrier_char_coeffs(identity_matrix(t))
            traces = traces_from_char_coeffs(coeffs, 6)
            assert traces.values == (F(t),) * 6

    def test_paper_cross_path(self):
        matrix = moment_matrix_multinomial(paper_model())
        coeffs = char_coeffs(matrix)
        assert traces_from_char_coeffs(coeffs, 7).values == PAPER_TRACES

    def test_agrees_with_power_route_on_random_symmetric(self):
        rng = Random(17)
        for _ in range(30):
            t = rng.randint(1, 5)
            m = random_symmetric(rng, t)
            direct = traces_by_power(m, 10)
            recovered = traces_from_char_coeffs(leverrier_char_coeffs(m), 10)
            assert direct.values == recovered.values

    def test_extends_past_the_dimension(self):
        coeffs = leverrier_char_coeffs(ExactMatrix.from_rows([[2, 0], [0, 5]]))
        traces = traces_from_char_coeffs(coeffs, 6)
        assert traces[6] == F(2**6 + 5**6)


class TestPsdTraceInvariants:
    def test_nonnegative_and_cauchy_schwarz(self):
        rng = Random(23)
        for _ in range(25):
            t = rng.randint(1, 5)
            m = random_psd(rng, t)
            traces = traces_by_power(m, 8)
            assert all(v >= 0 for v in traces.values)
            if traces[1] > 0:
                assert t * traces[2] >= traces[1] ** 2

    def test_paper_moment_matrix_is_psd_plausible(self):
        coeffs = char_coeffs(moment_matrix_multinomial(paper_model()))
        assert all(c >= 0 for c in coeffs.values)


def scaled_to_integers(m):
    """(D M, D) for the lcm D of the denominators of M's entries."""
    d = lcm(*(v.denominator for row in m.entries for v in row))
    return ExactMatrix.from_rows([[int(v * d) for v in row] for row in m.entries]), d


class TestNewtonBothWays:
    def test_power_sums_recover_char_coeffs(self):
        # e_k(D M) = D^k e_k(M), so the integer identities recover M's coefficients.
        rng = Random(31)
        for _ in range(10):
            m = random_psd(rng, rng.randint(1, 4))
            coeffs = leverrier_char_coeffs(m).values
            count = len(coeffs) + 1
            scaled, d = scaled_to_integers(m)
            power_sums = [int(p) for p in traces_by_power(scaled, count).values]
            elem = integer_elementary_from_power_sums(power_sums, count)
            assert tuple(F(e, d**k) for k, e in enumerate(elem)) == coeffs + (0,) * (count + 1 - len(coeffs))

    def test_integer_power_sums_give_int_coefficients(self):
        rng = Random(32)
        for _ in range(10):
            t = rng.randint(1, 4)
            m = random_matrix(rng, t, t)
            count = t + 2
            scaled, d = scaled_to_integers(m)
            power_sums = [int(p) for p in traces_by_power(scaled, count).values]
            elem = integer_elementary_from_power_sums(power_sums, count)
            assert all(type(e) is int for e in elem)
            coeffs = leverrier_char_coeffs(m).values
            assert elem == [c * d**k for k, c in enumerate(coeffs + (0,) * (count + 1 - len(coeffs)))]

    def test_inexact_integer_division_raises(self):
        # p_1 = 1, p_2 = 2 is no integer matrix's: e_2 = (1 - 2) / 2.
        with pytest.raises(ArithmeticError):
            integer_elementary_from_power_sums([1, 2], 2)
