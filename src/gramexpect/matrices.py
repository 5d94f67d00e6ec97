"""Exact dense matrices over the rationals.

Deliberately boring: an ``ExactMatrix`` holds tuples of tuples of Fractions,
and its products are schoolbook O(n^3). The package trades asymptotics for
exactness, and every matrix it touches is small (moment matrices of
dimension t, desk-scale Gram matrices), so this stays comfortably fast.
The chains of products do not multiply Fractions: ``integer_scaled``, the
one lcm-and-scale step, writes a rational matrix as D^-1 times an integer
matrix, D the lcm of its denominators. Leverrier here and the power traces
in ``traces`` multiply that integer matrix and divide by D^k once per
result, and the atoms model scales its atom vectors the same way.

Also home to the characteristic-coefficient computation, since both the
moment-matrix closed forms and the Gram-matrix oracles need it. A moment
matrix is an ``ExactMatrix`` too: ``models.MomentMatrix`` only adds its checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from .scalars import format_rational, to_rational

EntryLike = Fraction | int | str


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable rational matrix. ``entries[i][j]`` is row i, column j."""

    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[EntryLike]]) -> "ExactMatrix":
        data = tuple(tuple(to_rational(v, "matrix entries") for v in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("rows must all have the same length")
            if width == 0:
                raise ValueError("rows must be non-empty; use from_rows([]) for the 0x0 matrix")
        return cls(data)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(tuple(zip(*self.entries))) if self.entries else self

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols = other.transpose().entries
        return ExactMatrix(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.entries)
        )

    def submatrix(self, keep: Sequence[int]) -> "ExactMatrix":
        """Principal submatrix on the given row/column indices."""
        return ExactMatrix(tuple(tuple(self.entries[i][j] for j in keep) for i in keep))


def gram(columns_matrix: ExactMatrix) -> ExactMatrix:
    """Gram matrix A^T A of a t x n matrix A whose columns are the vectors.

    Entry (i, j) is the dot product of columns i and j.
    """
    return columns_matrix.transpose() @ columns_matrix


@dataclass(frozen=True)
class CharCoeffs:
    """Coefficients c_0..c_t with det(I + x M) = sum_i c_i x^i, c_0 = 1.

    Equivalently c_i is the i-th elementary symmetric polynomial of the
    eigenvalues of M, i.e. the sum of the i x i principal minors.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.values or self.values[0] != 1:
            raise ValueError("characteristic coefficients must start with c_0 = 1")

    @property
    def dimension(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, index: int) -> Fraction:
        if not 0 <= index <= self.dimension:
            raise IndexError(f"coefficient index {index} out of range 0..{self.dimension}")
        return self.values[index]

    def __len__(self) -> int:
        return len(self.values)


def integer_scaled(rows: Sequence[Sequence[Fraction | int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The lcm D of the entries' denominators and the rows times D, as ints: rows = scaled / D."""
    scale = lcm(*(v.denominator for row in rows for v in row))
    return scale, tuple(tuple(v.numerator * (scale // v.denominator) for v in row) for row in rows)


def leverrier_char_coeffs(matrix: ExactMatrix) -> CharCoeffs:
    """Elementary symmetric functions of a square matrix's eigenvalues.

    Faddeev-LeVerrier chain on the integer matrix M' = D M of
    ``integer_scaled``: B_0 = I, and for k = 1..n take C_k = M' B_{k-1},
    r_k = tr(C_k)/k, B_k = C_k - r_k I. Every B_k is an integer polynomial
    in M', and r_k = (-1)^(k-1) e_k(M') is an integer, so the division by k
    is exact. Odd indices are kept and even ones negated, and
    e_k(M) = e_k(M') / D^k. Runs in O(n^4) integer operations.
    """
    if not matrix.is_square:
        raise ValueError("characteristic coefficients require a square matrix")
    n = matrix.rows
    scale, m = integer_scaled(matrix.entries)
    coeffs = [Fraction(1)]
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        columns = list(zip(*b))
        b = [[sum(map(mul, row, column)) for column in columns] for row in m]
        raw = sum(b[i][i] for i in range(n)) // k
        coeffs.append(Fraction(raw if k % 2 == 1 else -raw, scale**k))
        for i in range(n):
            b[i][i] -= raw
    return CharCoeffs(tuple(coeffs))


def matrix_to_json(matrix: ExactMatrix) -> dict:
    """The matrix-file object {"rows": [[rational strings]]}."""
    return {"rows": [[format_rational(v) for v in row] for row in matrix.entries]}


def matrix_from_json(obj: object) -> ExactMatrix:
    if not isinstance(obj, dict) or "rows" not in obj:
        raise ValueError('matrix JSON must be an object with a "rows" key')
    rows = obj["rows"]
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise ValueError('"rows" must be a list of lists of rational strings')
    return ExactMatrix.from_rows(rows)


def matrix_from_json_str(text: str) -> ExactMatrix:
    try:
        return matrix_from_json(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ValueError(f"matrix file is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError("matrix file nests JSON too deeply to parse") from None
