from fractions import Fraction
from itertools import permutations
from math import comb, factorial
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramexpect import (
    CompoundCountModel,
    DiscreteVectorDistribution,
    TraceSequence,
    TruncatedSeries,
    char_coeffs,
    det_sequence_from_char,
    egf_expand_det,
    egf_expand_perm,
    expected_coefficient,
    expected_det_recursion,
    expected_perm_from_char,
    expected_perm_recursion,
    moment_matrix,
    paper_model,
    traces_by_power,
    traces_from_char_coeffs,
    weighted_cycle_sum,
)
from gramexpect.matrices import CharCoeffs
from gramexpect.models import MomentMatrix
from gramexpect.oracles import det_bareiss

from conftest import random_psd

F = Fraction

PAPER_DET = (F(1), F(565, 16), F(6775, 16), F(42375, 16), F(28125, 4), F(0), F(0))
PAPER_PERM = (
    F(1),
    F(565, 16),
    F(265025, 128),
    F(362772375, 2048),
    F(164880286875, 8192),
    F(374500254796875, 131072),
    F(510339663861328125, 1048576),
)
# Sign-adjusted characteristic coefficients of the example moment matrix.
PAPER_CHAR = (F(1), F(565, 16), F(6775, 32), F(14125, 32), F(9375, 32))


def paper_moments():
    return moment_matrix(paper_model())


def paper_traces(count):
    return traces_by_power(paper_moments(), count)


def constant_traces(value, count):
    return TraceSequence((F(value),) * count)


def identity_moments(t):
    rows = tuple(tuple(F(1) if i == j else F(0) for j in range(t)) for i in range(t))
    return MomentMatrix(rows)


def sn_cycle_sum(weights, n, signed):
    """Independent oracle: literal sum over S_n by cycle decomposition."""
    total = F(0)
    for perm in permutations(range(n)):
        seen = [False] * n
        term = F(1)
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            weight = F(weights[length - 1])
            if signed and length % 2 == 0:
                weight = -weight
            term *= weight
        total += term
    return total


class TestCharCoeffs:
    def test_paper_values(self):
        assert char_coeffs(paper_moments()).values == PAPER_CHAR

    def test_top_coefficient_is_determinant(self):
        coeffs = char_coeffs(paper_moments())
        assert coeffs[4] == det_bareiss(paper_moments())

    def test_identity_binomials(self):
        coeffs = char_coeffs(identity_moments(3))
        assert coeffs.values == (F(1), F(3), F(3), F(1))

    def test_requires_c0_equal_one(self):
        with pytest.raises(ValueError):
            CharCoeffs((F(2), F(1)))


class TestRecursions:
    def test_paper_det_table(self):
        seq = expected_det_recursion(paper_traces(6), 6)
        assert seq.values == PAPER_DET

    def test_paper_perm_table(self):
        seq = expected_perm_recursion(paper_traces(6), 6)
        assert seq.values == PAPER_PERM

    def test_a2_symbolic_identity(self):
        traces = paper_traces(2)
        seq = expected_det_recursion(traces, 2)
        assert seq[2] == traces[1] ** 2 - traces[2]
        assert seq[2] == F(6775, 16)

    def test_p2_symbolic_identity(self):
        traces = paper_traces(2)
        seq = expected_perm_recursion(traces, 2)
        assert seq[2] == traces[1] ** 2 + traces[2]
        assert seq[2] == F(265025, 128)

    def test_rank_one_determinant_annihilates(self):
        seq = expected_det_recursion(constant_traces(1, 8), 8)
        assert seq.values == (F(1), F(1)) + (F(0),) * 7

    def test_rank_one_permanent_is_factorial(self):
        seq = expected_perm_recursion(constant_traces(1, 7), 7)
        assert seq.values == tuple(F(factorial(n)) for n in range(8))

    def test_scalar_model_growth(self):
        m = F(5, 3)
        traces = TraceSequence(tuple(m**n for n in range(1, 8)))
        seq = expected_perm_recursion(traces, 7)
        assert seq.values == tuple(factorial(n) * m**n for n in range(8))

    def test_trace_sequence_too_short(self):
        with pytest.raises(ValueError):
            expected_det_recursion(paper_traces(3), 5)


def paper_form_recursion(traces, count, signed):
    """The recursion as the paper states it, in a_n: a_{n+1} = sum_j C(n,j) (-1)^j j! a_{n-j} t_{j+1}."""
    values = [F(1)]
    for n in range(count):
        terms = (
            (-1 if signed and j % 2 else 1) * comb(n, j) * factorial(j) * values[n - j] * traces[j + 1]
            for j in range(n + 1)
        )
        values.append(sum(terms, F(0)))
    return tuple(values)


class TestNormalizedRecursion:
    """The recursion runs on q_n = a_n / n!; it must equal the paper's a_n form term for term."""

    @pytest.mark.parametrize(
        "model",
        [
            paper_model(),
            # Signed rational atoms whose denominators have lcm D = 6.
            DiscreteVectorDistribution.from_pairs(
                [((F(1, 2), F(-1, 3), 1), F(1, 3)), ((-1, 0, F(5, 6)), F(1, 2)), ((0, F(-2, 3), F(1, 2)), F(1, 6))]
            ),
            CompoundCountModel(probs=(F(1, 2), F(1, 3), F(1, 6)), ell_law=((1, F(1, 4)), (3, F(3, 4)))),
        ],
        ids=["paper", "signed-atoms-d6", "compound"],
    )
    def test_equal_to_the_paper_form_up_to_60(self, model):
        traces = traces_by_power(moment_matrix(model), 60)
        assert expected_det_recursion(traces, 60).values == paper_form_recursion(traces, 60, signed=True)
        assert expected_perm_recursion(traces, 60).values == paper_form_recursion(traces, 60, signed=False)

    @given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=7), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_equal_to_the_paper_form_on_random_traces(self, values):
        traces = TraceSequence(tuple(values))
        count = len(values)
        assert expected_det_recursion(traces, count).values == paper_form_recursion(traces, count, signed=True)
        assert expected_perm_recursion(traces, count).values == paper_form_recursion(traces, count, signed=False)


class TestCharClosedForm:
    def test_det_is_scaled_coefficient(self):
        coeffs = char_coeffs(paper_moments())
        seq = det_sequence_from_char(coeffs, 7)
        assert seq[0] == 1
        for n in range(1, 5):
            assert seq[n] == factorial(n) * PAPER_CHAR[n]
        assert seq[7] == 0

    def test_det_sequence_matches_recursion(self):
        coeffs = char_coeffs(paper_moments())
        assert det_sequence_from_char(coeffs, 6).values == PAPER_DET

    def test_perm_inverted_series_matches_recursion(self):
        coeffs = char_coeffs(paper_moments())
        assert expected_perm_from_char(coeffs, 6).values == PAPER_PERM

    def test_one_dimensional_permanents_are_factorials(self):
        coeffs = CharCoeffs((F(1), F(1)))
        seq = expected_perm_from_char(coeffs, 6)
        assert seq.values == tuple(F(factorial(n)) for n in range(7))

    def test_identity_negative_binomial(self):
        for t in (2, 3):
            coeffs = char_coeffs(identity_moments(t))
            seq = expected_perm_from_char(coeffs, 6)
            expected = tuple(F(factorial(n) * comb(n + t - 1, n)) for n in range(7))
            assert seq.values == expected


class TestEgfExpansion:
    def test_zero_traces(self):
        seq = egf_expand_det(constant_traces(0, 5), 5)
        assert seq.values == (F(1),) + (F(0),) * 5

    def test_unit_traces_det(self):
        seq = egf_expand_det(constant_traces(1, 6), 6)
        assert seq.values == (F(1), F(1)) + (F(0),) * 5

    def test_unit_traces_perm(self):
        seq = egf_expand_perm(constant_traces(1, 6), 6)
        assert seq.values == tuple(F(factorial(n)) for n in range(7))

    def test_paper_cross_path(self):
        traces = paper_traces(12)
        assert egf_expand_det(traces, 12).values == expected_det_recursion(traces, 12).values
        assert egf_expand_perm(traces, 12).values == expected_perm_recursion(traces, 12).values


class TestThreePathAgreement:
    def test_random_psd_matrices(self):
        rng = Random(41)
        for _ in range(50):
            t = rng.randint(1, 5)
            moments = MomentMatrix(random_psd(rng, t).entries)
            traces = traces_by_power(moments, 12)
            coeffs = char_coeffs(moments)
            det_rec = expected_det_recursion(traces, 12).values
            assert det_sequence_from_char(coeffs, 12).values == det_rec
            assert egf_expand_det(traces, 12).values == det_rec
            perm_rec = expected_perm_recursion(traces, 12).values
            assert expected_perm_from_char(coeffs, 12).values == perm_rec
            assert egf_expand_perm(traces, 12).values == perm_rec

    @pytest.mark.parametrize(
        "route, source",
        [
            (expected_det_recursion, "traces"),
            (expected_perm_recursion, "traces"),
            (det_sequence_from_char, "coeffs"),
            (expected_perm_from_char, "coeffs"),
            (egf_expand_det, "traces"),
            (egf_expand_perm, "traces"),
        ],
        ids=lambda v: getattr(v, "__name__", None),
    )
    def test_negative_count_refused_by_every_route(self, route, source):
        inputs = {"traces": paper_traces(3), "coeffs": char_coeffs(paper_moments())}
        with pytest.raises(ValueError, match="^count must be >= 0$"):
            route(inputs[source], -1)

    def test_rank_annihilation_beyond_dimension(self):
        rng = Random(43)
        for _ in range(10):
            t = rng.randint(1, 4)
            moments = MomentMatrix(random_psd(rng, t).entries)
            seq = expected_det_recursion(traces_by_power(moments, 10), 10)
            assert all(seq[n] == 0 for n in range(t + 1, 11))

    def test_psd_positivity_and_domination(self):
        # Both sequences nonnegative, and p_n >= a_n termwise; a violation
        # here must fail loudly rather than be patched over.
        rng = Random(47)
        for _ in range(25):
            t = rng.randint(1, 5)
            moments = MomentMatrix(random_psd(rng, t).entries)
            traces = traces_by_power(moments, 10)
            det_seq = expected_det_recursion(traces, 10)
            perm_seq = expected_perm_recursion(traces, 10)
            for n in range(11):
                assert det_seq[n] >= 0
                assert perm_seq[n] >= 0
                assert perm_seq[n] >= det_seq[n]


class TestWeightedCycleSum:
    def test_unit_weights_count_permutations(self):
        for n in range(6):
            assert weighted_cycle_sum([1] * 6, n, signed=False) == factorial(n)

    def test_n_two_closed_form(self):
        x1, x2 = F(5, 2), F(-3)
        assert weighted_cycle_sum([x1, x2], 2, signed=False) == x1**2 + x2
        assert weighted_cycle_sum([x1, x2], 2, signed=True) == x1**2 - x2

    def test_matches_recursions_at_trace_weights(self):
        traces = paper_traces(8)
        weights = list(traces.values)
        det_seq = expected_det_recursion(traces, 8)
        perm_seq = expected_perm_recursion(traces, 8)
        for n in range(9):
            assert weighted_cycle_sum(weights, n, signed=False) == perm_seq[n]
            assert weighted_cycle_sum(weights, n, signed=True) == det_seq[n]

    def test_matches_direct_symmetric_group_enumeration(self):
        rng = Random(53)
        weights = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(6)]
        for n in range(7):
            for signed in (False, True):
                assert weighted_cycle_sum(weights, n, signed) == sn_cycle_sum(weights, n, signed)

    def test_needs_enough_weights(self):
        with pytest.raises(ValueError):
            weighted_cycle_sum([1, 1], 3)


class TestExpectedCoefficient:
    def test_index_zero_is_one(self):
        seq = expected_det_recursion(paper_traces(4), 4)
        assert expected_coefficient(9, 0, seq) == 1

    def test_paper_scale_binomial(self):
        seq = expected_det_recursion(paper_traces(2), 2)
        assert expected_coefficient(4000, 2, seq) == comb(4000, 2) * F(6775, 16)

    def test_zero_beyond_dimension(self):
        seq = expected_det_recursion(paper_traces(6), 6)
        assert expected_coefficient(100, 5, seq) == 0

    def test_bounds(self):
        seq = expected_det_recursion(paper_traces(3), 3)
        with pytest.raises(ValueError):
            expected_coefficient(2, 3, seq)
        with pytest.raises(IndexError):
            expected_coefficient(10, 4, seq)


class TestLoopsOverZeros:
    """The trace recovery and the series inverse skip the zero c_i past the dimension."""

    @staticmethod
    def dense_traces(coeffs, count):
        # Newton's identities with every c_i, zero or not, as the loop ran before.
        c = [coeffs[k] if k <= coeffs.dimension else F(0) for k in range(count + 1)]
        values = []
        for n in range(1, count + 1):
            total = sum((c[i] * values[n - i - 1] * (-1) ** (i - 1) for i in range(1, n)), F(0))
            values.append(total + n * c[n] * (-1) ** (n - 1))
        return tuple(values)

    @staticmethod
    def dense_inverse(coeffs):
        out = [1 / coeffs[0]]
        for m in range(1, len(coeffs)):
            out.append(-sum((coeffs[k] * out[m - k] for k in range(1, m + 1)), F(0)) / coeffs[0])
        return tuple(out)

    @pytest.mark.parametrize(
        "model",
        [
            paper_model(),
            DiscreteVectorDistribution.from_pairs(
                [((1, 2, 0), F(1, 3)), ((F(1, 2), 0, 3), F(1, 2)), ((0, 1, 1), F(1, 6))]
            ),
            CompoundCountModel(probs=(F(1, 2), F(1, 3), F(1, 6)), ell_law=((1, F(1, 4)), (3, F(3, 4)))),
        ],
        ids=["paper", "atoms", "compound"],
    )
    def test_equal_to_the_dense_loops_up_to_200(self, model):
        coeffs = char_coeffs(moment_matrix(model))
        assert traces_from_char_coeffs(coeffs, 200).values == self.dense_traces(coeffs, 200)
        series = TruncatedSeries.from_coefficients([coeffs[i] * (-1) ** i for i in range(coeffs.dimension + 1)], 200)
        assert series.inverse().coeffs == self.dense_inverse(series.coeffs)
