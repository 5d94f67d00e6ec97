from fractions import Fraction
from itertools import permutations
from math import factorial, prod
from random import Random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import gramexpect.matrices as matrices
import gramexpect.oracles as oracles
from gramexpect import (
    DiscreteVectorDistribution,
    ExactMatrix,
    GuardExceeded,
    det_sequence_from_char,
    egf_expand_det,
    egf_expand_perm,
    expected_det_recursion,
    expected_perm_from_char,
    expected_perm_recursion,
    moment_matrix,
    traces_by_power,
)
from gramexpect.matrices import gram
from gramexpect.models import moment_matrix_from_atoms
from gramexpect.oracles import (
    BAREISS_MAX_SIZE,
    CHARPOLY_MAX_SIZE,
    brute_force_expectation,
    char_poly_coeffs_of_gram,
    det_bareiss,
    det_expansion,
    perm_expansion,
    perm_ryser,
    permanental_op_cost,
    permanental_poly_coeffs,
)

from conftest import diagonal_sum, identity_matrix, random_atoms_distribution, random_matrix

F = Fraction


def ones(n):
    return ExactMatrix.from_rows([[1] * n for _ in range(n)])


class TestExpansionOracles:
    def test_two_by_two_closed_forms(self):
        m = ExactMatrix.from_rows([["1/2", 3], [-2, "5/3"]])
        a, b, c, d = F(1, 2), F(3), F(-2), F(5, 3)
        assert det_expansion(m) == a * d - b * c
        assert perm_expansion(m) == a * d + b * c

    def test_integer_example(self):
        m = ExactMatrix.from_rows([[1, 2], [3, 4]])
        assert det_expansion(m) == -2
        assert perm_expansion(m) == 10

    def test_empty_matrix(self):
        empty = ExactMatrix.from_rows([])
        assert det_expansion(empty) == 1
        assert perm_expansion(empty) == 1

    def test_permuted_identity_sign(self):
        m = ExactMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert det_expansion(m) == -1
        assert perm_expansion(m) == 1

    def test_size_guard(self, monkeypatch):
        monkeypatch.setattr(oracles, "LEIBNIZ_MAX_SIZE", 2)
        with pytest.raises(GuardExceeded):
            det_expansion(ones(3))
        with pytest.raises(GuardExceeded):
            perm_expansion(ones(3))

    @pytest.mark.parametrize("expand, at_bound", [(det_expansion, 0), (perm_expansion, 2)], ids=["det", "perm"])
    def test_guard_names_its_expansion(self, expand, at_bound, monkeypatch):
        name = expand.__name__
        with pytest.raises(GuardExceeded, match=f"^{name} guard: n = 10 exceeds max size 9$"):
            expand(ones(10))
        with pytest.raises(ValueError, match=f"^{name} requires a square matrix, got 1x2$"):
            expand(ExactMatrix.from_rows([[1, 2]]))
        monkeypatch.setattr(oracles, "LEIBNIZ_MAX_SIZE", 2)
        assert expand(ones(2)) == at_bound
        with pytest.raises(GuardExceeded, match=f"^{name} guard: n = 3 exceeds max size 2$"):
            expand(ones(3))


class TestRyser:
    def test_all_ones_counts_permutations(self):
        for n in range(11):
            assert perm_ryser(ones(n)) == factorial(n)

    def test_matches_expansion_on_random_matrices(self):
        rng = Random(61)
        for _ in range(60):
            n = rng.randint(0, 5)
            m = random_matrix(rng, n, n, rational=bool(rng.getrandbits(1)))
            assert perm_ryser(m) == perm_expansion(m)

    def test_size_guard(self, monkeypatch):
        monkeypatch.setattr(oracles, "RYSER_MAX_SIZE", 3)
        with pytest.raises(GuardExceeded):
            perm_ryser(ones(4))

    def test_requires_square(self):
        with pytest.raises(ValueError):
            perm_ryser(ExactMatrix.from_rows([[1, 2]]))


class TestBareiss:
    def test_matches_expansion_on_random_matrices(self):
        rng = Random(67)
        for _ in range(60):
            n = rng.randint(0, 5)
            m = random_matrix(rng, n, n, rational=bool(rng.getrandbits(1)))
            assert det_bareiss(m) == det_expansion(m)

    def test_singular_with_zero_leading_column(self):
        m = ExactMatrix.from_rows([[0, 1, 2], [0, 3, 4], [0, 5, 6]])
        assert det_bareiss(m) == 0

    def test_pivoting_tracks_sign(self):
        m = ExactMatrix.from_rows([[0, 1], [1, 0]])
        assert det_bareiss(m) == -1

    def test_size_guard(self):
        assert BAREISS_MAX_SIZE == 100
        with pytest.raises(GuardExceeded, match="^det_bareiss guard: n = 101 exceeds max size 100$"):
            det_bareiss(identity_matrix(101))

    def test_duplicate_gram_columns_are_singular(self):
        a = ExactMatrix.from_rows([[1, 1, 2], [3, 3, 5]])
        assert det_bareiss(gram(a)) == 0


class TestIntegerScaling:
    """Leibniz, Ryser, Bareiss and permpoly scale each matrix to ints themselves and divide once."""

    def test_values_equal_fraction_arithmetic_without_matrices_integer_scaled(self, monkeypatch):
        def broken(rows):
            raise AssertionError("an oracle scaled through matrices.integer_scaled")

        monkeypatch.setattr(matrices, "integer_scaled", broken)
        rng = Random(73)
        for _ in range(40):
            n = rng.randint(0, 5)
            m = ExactMatrix.from_rows(
                [[F(rng.randint(-9, 9), rng.choice((1, 3, 5, 7, 12))) for _ in range(n)] for _ in range(n)]
            )
            entries = m.entries
            terms = [
                (sign, prod((entries[i][p[i]] for i in range(n)), start=F(1)))
                for p in permutations(range(n))
                for sign in [prod(-1 for i in range(n) for j in range(i) if p[j] > p[i])]
            ]
            perm = sum((term for _, term in terms), F(0))
            assert det_expansion(m) == det_bareiss(m) == sum((sign * term for sign, term in terms), F(0))
            assert perm_expansion(m) == perm_ryser(m) == perm
            coeffs = permanental_poly_coeffs(m, n)
            assert all(type(c) is F for c in coeffs)
            assert coeffs[-1] == perm
            if n:
                assert coeffs[1] == diagonal_sum(m)


class TestBruteForce:
    def test_empty_product_is_one(self):
        dist = DiscreteVectorDistribution.from_pairs([((1, 2), 1)])
        assert brute_force_expectation(dist, 0, "det") == 1
        assert brute_force_expectation(dist, 0, "perm") == 1

    def test_single_atom_repeats_a_column(self):
        dist = DiscreteVectorDistribution.from_pairs([((2, 3), 1)])
        assert brute_force_expectation(dist, 2, "det") == 0
        # perm of [[s, s], [s, s]] with s = |w|^2 = 13.
        assert brute_force_expectation(dist, 2, "perm") == 2 * 13**2

    def test_orthonormal_pair(self):
        dist = DiscreteVectorDistribution.from_pairs(
            [((1, 0), "1/2"), ((0, 1), "1/2")]
        )
        # det survives only when the two draws differ: probability 1/2.
        assert brute_force_expectation(dist, 2, "det") == F(1, 2)
        assert brute_force_expectation(dist, 2, "perm") == F(3, 2)

    def test_zero_probability_atoms_are_skipped(self):
        base = DiscreteVectorDistribution.from_pairs([((1, 1), 1)])
        padded = DiscreteVectorDistribution.from_pairs(
            [((1, 1), 1), ((9, 9), 0)]
        )
        for kind in ("det", "perm"):
            assert brute_force_expectation(padded, 3, kind) == brute_force_expectation(
                base, 3, kind
            )

    def test_agrees_with_recursions(self):
        rng = Random(71)
        for _ in range(12):
            dist = random_atoms_distribution(rng, rng.randint(1, 3), rng.randint(1, 3))
            n = rng.randint(1, 4)
            traces = traces_by_power(moment_matrix_from_atoms(dist), n)
            det_seq = expected_det_recursion(traces, n)
            perm_seq = expected_perm_recursion(traces, n)
            assert brute_force_expectation(dist, n, "det") == det_seq[n]
            assert brute_force_expectation(dist, n, "perm") == perm_seq[n]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    @seed(16)
    def test_every_route_equals_enumeration_on_random_models(self, data):
        # 1-4 atoms in t <= 3 with signed entries over denominators up to 6, some of
        # probability zero: moment matrices with many different lcm denominators D.
        t = data.draw(st.integers(1, 3), label="t")
        weights = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(any), label="weights")
        vector = st.tuples(*[st.fractions(-3, 3, max_denominator=6)] * t)
        vectors = data.draw(st.lists(vector, min_size=len(weights), max_size=len(weights)), label="vectors")
        dist = DiscreteVectorDistribution.from_pairs([(v, F(w, sum(weights))) for v, w in zip(vectors, weights)])
        matrix = moment_matrix(dist)
        traces, coeffs = traces_by_power(matrix, 4), matrix.char_coeffs
        routes = {
            "det": (expected_det_recursion(traces, 4), det_sequence_from_char(coeffs, 4), egf_expand_det(traces, 4)),
            "perm": (
                expected_perm_recursion(traces, 4), expected_perm_from_char(coeffs, 4), egf_expand_perm(traces, 4)
            ),
        }
        for kind, sequences in routes.items():
            for n in range(5):
                assert {seq[n] for seq in sequences} == {brute_force_expectation(dist, n, kind)}

    def test_guards(self, monkeypatch):
        dist = DiscreteVectorDistribution.from_pairs([((1,), "1/2"), ((2,), "1/2")])
        with monkeypatch.context() as patch:
            patch.setattr(oracles, "BRUTE_MAX_N", 2)
            with pytest.raises(GuardExceeded):
                brute_force_expectation(dist, 3, "det")
        monkeypatch.setattr(oracles, "TUPLE_GUARD", 10)
        with pytest.raises(GuardExceeded):
            brute_force_expectation(dist, 5, "det")
        with pytest.raises(ValueError):
            brute_force_expectation(dist, 2, "minor")


class TestPermanentalCoeffs:
    def test_hand_example(self):
        a = ExactMatrix.from_rows([[1, 2, 0], [0, 1, 1]])
        g = gram(a)
        assert g.entries == ((F(1), F(2), F(0)), (F(2), F(5), F(1)), (F(0), F(1), F(1)))
        assert permanental_poly_coeffs(g, 3) == (F(1), F(7), F(16), F(10))

    def test_leading_coefficients(self):
        rng = Random(73)
        g = gram(random_matrix(rng, 2, 4))
        coeffs = permanental_poly_coeffs(g, 2)
        assert coeffs[0] == 1
        assert coeffs[1] == diagonal_sum(g)

    def test_shifted_permanent_identity(self):
        # perm(G + x I) = sum_i d_i x^(n-i); checking at n+1 points pins
        # every coefficient of the degree-n polynomial.
        rng = Random(79)
        for _ in range(8):
            n = rng.randint(1, 4)
            g = gram(random_matrix(rng, rng.randint(1, 3), n))
            coeffs = permanental_poly_coeffs(g, n)
            for x in range(n + 1):
                shifted = ExactMatrix(
                    tuple(
                        tuple(g.entries[r][c] + (x if r == c else 0) for c in range(n))
                        for r in range(n)
                    )
                )
                poly = sum(coeffs[i] * F(x) ** (n - i) for i in range(n + 1))
                assert perm_expansion(shifted) == poly

    def test_budget_guard_names_the_index(self):
        g = gram(random_matrix(Random(83), 3, 24))
        with pytest.raises(GuardExceeded) as err:
            permanental_poly_coeffs(g, 24, op_budget=10**4)
        assert "n = 24" in str(err.value)
        assert "i = " in str(err.value)

    def test_budget_guard_at_its_bound(self):
        # A cumulative cost equal to the budget fits; one op less refuses the first index over it.
        g = gram(random_matrix(Random(83), 3, 6))
        costs = permanental_op_cost(6, 3)
        assert len(permanental_poly_coeffs(g, 3, op_budget=costs[-1])) == 4
        message = f"^permanental_poly_coeffs guard: index i = 3 at n = 6 needs ~{costs[-1]} ops, budget is "
        with pytest.raises(GuardExceeded, match=message + f"{costs[-1] - 1}$"):
            permanental_poly_coeffs(g, 3, op_budget=costs[-1] - 1)

    def test_cost_model_is_cumulative(self):
        costs = permanental_op_cost(10, 3)
        assert len(costs) == 3
        assert costs == sorted(costs)

    def test_index_bounds(self):
        g = identity_matrix(3)
        with pytest.raises(ValueError):
            permanental_poly_coeffs(g, 4)


class TestCharPolyOfGram:
    def test_size_guard(self):
        assert CHARPOLY_MAX_SIZE == 32
        with pytest.raises(GuardExceeded, match="^char_poly_coeffs_of_gram guard: n = 33 exceeds max size 32$"):
            char_poly_coeffs_of_gram(identity_matrix(33))
        with pytest.raises(ValueError, match="^char_poly_coeffs_of_gram requires a square matrix, got 1x2$"):
            char_poly_coeffs_of_gram(ExactMatrix.from_rows([[1, 2]]))

    def test_identity(self):
        assert char_poly_coeffs_of_gram(identity_matrix(3)) == (F(1), F(3), F(3), F(1))

    def test_diagonal_elementary_symmetric(self):
        m = ExactMatrix.from_rows([[2, 0], [0, 3]])
        assert char_poly_coeffs_of_gram(m) == (F(1), F(5), F(6))

    def test_rank_deficiency_zeroes_high_coefficients(self):
        rng = Random(89)
        for _ in range(10):
            t = rng.randint(1, 3)
            n = rng.randint(t + 1, 6)
            coeffs = char_poly_coeffs_of_gram(gram(random_matrix(rng, t, n)))
            assert len(coeffs) == n + 1
            assert all(c == 0 for c in coeffs[t + 1 :])

    def test_matches_determinant_expansion_of_shifts(self):
        # det(G + x I) = sum_i b_i x^(n-i) once signs are folded in.
        rng = Random(97)
        g = gram(random_matrix(rng, 2, 3))
        coeffs = char_poly_coeffs_of_gram(g)
        for x in range(4):
            shifted = ExactMatrix(
                tuple(
                    tuple(g.entries[r][c] + (x if r == c else 0) for c in range(3))
                    for r in range(3)
                )
            )
            poly = sum(coeffs[i] * F(x) ** (3 - i) for i in range(4))
            assert det_expansion(shifted) == poly
