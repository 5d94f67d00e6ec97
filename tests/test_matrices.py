import json
from fractions import Fraction
from random import Random

import pytest

from gramexpect import ExactMatrix
from gramexpect.matrices import (
    gram,
    integer_scaled,
    leverrier_char_coeffs,
    matrix_from_json_str,
    matrix_to_json,
)
from gramexpect.scalars import canonical_json

from conftest import diagonal_sum, identity_matrix, integer_scaling_cases, random_matrix, random_symmetric


class TestExactMatrix:
    def test_from_rows_coerces_entry_types(self):
        m = ExactMatrix.from_rows([[1, "1/2"], [Fraction(3, 4), "2"]])
        assert m.entries == ((Fraction(1), Fraction(1, 2)), (Fraction(3, 4), Fraction(2)))

    @pytest.mark.parametrize("entry", [0.5, 2.0, True, False, None], ids=repr)
    def test_rejects_floats_and_bools(self, entry):
        with pytest.raises(ValueError):
            ExactMatrix.from_rows([[entry, 1], [1, 2]])
        with pytest.raises(ValueError):
            matrix_from_json_str(json.dumps({"rows": [[entry, 1], [1, 2]]}))

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            ExactMatrix.from_rows([[1, 2], [3]])

    def test_empty_matrix(self):
        m = ExactMatrix.from_rows([])
        assert m.rows == 0 and m.cols == 0 and m.is_square

    def test_matmul_and_transpose(self):
        a = ExactMatrix.from_rows([[1, 2], [3, 4]])
        b = ExactMatrix.from_rows([["1/2", 0], [1, "1/3"]])
        prod = a @ b
        assert prod.entries == (
            (Fraction(5, 2), Fraction(2, 3)),
            (Fraction(11, 2), Fraction(4, 3)),
        )
        assert a.transpose().entries == ((Fraction(1), Fraction(3)), (Fraction(2), Fraction(4)))

    def test_matmul_shape_mismatch(self):
        a = ExactMatrix.from_rows([[1, 2]])
        with pytest.raises(ValueError):
            a @ a

    def test_submatrix_principal(self):
        m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert m.submatrix((0, 2)).entries == ((Fraction(1), Fraction(3)), (Fraction(7), Fraction(9)))


class TestGram:
    def test_identity_columns(self):
        assert gram(identity_matrix(2)).entries == identity_matrix(2).entries

    def test_hand_dot_products(self):
        a = ExactMatrix.from_rows([[1, 2], [3, 4]])
        assert gram(a).entries == ((Fraction(10), Fraction(14)), (Fraction(14), Fraction(20)))

    def test_duplicated_columns_give_singular_gram(self):
        a = ExactMatrix.from_rows([[1, 1], [2, 2]])
        g = gram(a)
        assert g.entries[0][0] * g.entries[1][1] - g.entries[0][1] * g.entries[1][0] == 0

    def test_symmetric_nonnegative_diagonal(self):
        rng = Random(7)
        for _ in range(20):
            a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
            g = gram(a)
            assert g == g.transpose()
            assert all(g.entries[i][i] >= 0 for i in range(g.rows))


class TestLeverrierCharCoeffs:
    def test_one_by_one(self):
        assert leverrier_char_coeffs(ExactMatrix.from_rows([[1]])).values == (Fraction(1), Fraction(1))

    def test_identity_gives_binomials(self):
        from math import comb

        for t in (1, 2, 3, 5):
            coeffs = leverrier_char_coeffs(identity_matrix(t))
            assert coeffs.values == tuple(Fraction(comb(t, i)) for i in range(t + 1))

    def test_diagonal_elementary_symmetric(self):
        m = ExactMatrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
        assert leverrier_char_coeffs(m).values == (
            Fraction(1),
            Fraction(10),
            Fraction(31),
            Fraction(30),
        )

    def test_c1_is_trace_on_random_matrices(self):
        rng = Random(11)
        for _ in range(15):
            m = random_symmetric(rng, rng.randint(1, 5))
            assert leverrier_char_coeffs(m)[1] == diagonal_sum(m)


def fraction_leverrier(matrix):
    """Faddeev-LeVerrier in Fractions on the matrix as given: the reference for the integer-scaled chain."""
    n = matrix.rows
    coeffs, b = [Fraction(1)], identity_matrix(n)
    for k in range(1, n + 1):
        c = matrix @ b
        raw = diagonal_sum(c) / k
        coeffs.append(raw if k % 2 == 1 else -raw)
        b = ExactMatrix(tuple(tuple(c.entries[i][j] - (raw if i == j else 0) for j in range(n)) for i in range(n)))
    return tuple(coeffs)


class TestIntegerScaledLeverrier:
    @pytest.mark.parametrize("case", integer_scaling_cases().items(), ids=lambda case: case[0])
    def test_equals_the_fraction_chain(self, case):
        _, m = case
        values = leverrier_char_coeffs(m).values
        assert values == fraction_leverrier(m)
        assert all(type(v) is Fraction for v in values)

    def test_random_rational_matrices(self):
        rng = Random(21)
        for _ in range(10):
            m = random_matrix(rng, *(rng.randint(1, 5),) * 2)
            assert leverrier_char_coeffs(m).values == fraction_leverrier(m)

    def test_non_square_is_refused(self):
        with pytest.raises(ValueError):
            leverrier_char_coeffs(ExactMatrix.from_rows([[1, "1/2", 3], [0, 1, 2]]))

    def test_integer_scaled(self):
        cases = integer_scaling_cases()
        scale, rows = integer_scaled(cases["mixed-denominators-7-9-11"].entries)
        assert scale == 693 and all(type(v) is int for row in rows for v in row)
        assert integer_scaled(cases["already-integer"].entries) == (1, ((2, -1, 0), (4, 3, -6), (1, 0, 5)))
        assert integer_scaled([[Fraction(-5, 6), 2, Fraction(3, 4)]]) == (12, ((-10, 24, 9),))
        assert integer_scaled([]) == (1, ())


class TestMatrixJson:
    def test_round_trip_is_byte_identical(self):
        m = ExactMatrix.from_rows([["3/8", "-1"], ["0", "7/2"]])
        text = canonical_json(matrix_to_json(m)) + "\n"
        again = canonical_json(matrix_to_json(matrix_from_json_str(text))) + "\n"
        assert text == again

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            matrix_from_json_str('{"cols": []}')
        with pytest.raises(ValueError):
            matrix_from_json_str('{"rows": [["1", "2"], ["3"]]}')

    def test_invalid_json_is_a_value_error_naming_the_matrix_file(self):
        with pytest.raises(ValueError, match="^matrix file is not valid JSON: Expecting property name") as info:
            matrix_from_json_str("{")
        assert not isinstance(info.value, json.JSONDecodeError)
