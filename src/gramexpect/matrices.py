"""Exact dense matrices over the rationals.

Deliberately boring: tuples of tuples of Fractions with schoolbook O(n^3)
products. The package trades asymptotics for exactness, and every matrix it
touches is small (moment matrices of dimension t, desk-scale Gram matrices),
so this stays comfortably fast.

Also home to the characteristic-coefficient computation, since both the
moment-matrix closed forms and the Gram-matrix oracles need it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import canonical_json, format_rational, parse_rational

EntryLike = Fraction | int | str


def _coerce(value: EntryLike) -> Fraction:
    """A wire string, an int or a Fraction as a Fraction; bools and floats are refused."""
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ValueError(f"matrix entries must be rational strings or integers, got {value!r}")
    return Fraction(value)


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable rational matrix. ``entries[i][j]`` is row i, column j."""

    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[EntryLike]]) -> "ExactMatrix":
        data = tuple(tuple(_coerce(v) for v in row) for row in rows)
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

    def trace(self) -> Fraction:
        if not self.is_square:
            raise ValueError("trace requires a square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), Fraction(0))

    def is_symmetric(self) -> bool:
        return self.is_square and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.rows)
        )

    def submatrix(self, keep: Sequence[int]) -> "ExactMatrix":
        """Principal submatrix on the given row/column indices."""
        return ExactMatrix(tuple(tuple(self.entries[i][j] for j in keep) for i in keep))


def identity(size: int) -> ExactMatrix:
    one, zero = Fraction(1), Fraction(0)
    return ExactMatrix(tuple(tuple(one if i == j else zero for j in range(size)) for i in range(size)))


def gram(columns_matrix: ExactMatrix) -> ExactMatrix:
    """Gram matrix A^T A of a t x n matrix A whose columns are the vectors.

    Symmetric by construction; entry (i, j) is the dot product of columns
    i and j.
    """
    cols = columns_matrix.transpose().entries
    n = len(cols)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            dot = sum(a * b for a, b in zip(cols[i], cols[j]))
            out[i][j] = dot
            out[j][i] = dot
    return ExactMatrix(tuple(tuple(row) for row in out))


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


def leverrier_char_coeffs(matrix: ExactMatrix) -> CharCoeffs:
    """Elementary symmetric functions of a square matrix's eigenvalues.

    Faddeev-LeVerrier chain, division-free apart from the exact /k:
    B_0 = I, and for k = 1..n take C_k = M B_{k-1}, r_k = tr(C_k)/k,
    B_k = C_k - r_k I. The raw r_k equal (-1)^(k-1) e_k, so odd indices are
    kept and even indices negated. Runs in O(n^4) exact operations.
    """
    if not matrix.is_square:
        raise ValueError("characteristic coefficients require a square matrix")
    n = matrix.rows
    coeffs = [Fraction(1)]
    b = identity(n)
    for k in range(1, n + 1):
        c = matrix @ b
        raw = c.trace() / k
        coeffs.append(raw if k % 2 == 1 else -raw)
        b = ExactMatrix(
            tuple(
                tuple(c.entries[i][j] - (raw if i == j else 0) for j in range(n))
                for i in range(n)
            )
        )
    return CharCoeffs(tuple(coeffs))


def matrix_to_json_str(matrix: ExactMatrix) -> str:
    """Canonical matrix file: {"rows": [[rational strings]]}, compact, one line."""
    payload = {"rows": [[format_rational(v) for v in row] for row in matrix.entries]}
    return canonical_json(payload) + "\n"


def matrix_from_json(obj: object) -> ExactMatrix:
    if not isinstance(obj, dict) or "rows" not in obj:
        raise ValueError('matrix JSON must be an object with a "rows" key')
    rows = obj["rows"]
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise ValueError('"rows" must be a list of lists of rational strings')
    return ExactMatrix.from_rows(rows)


def matrix_from_json_str(text: str) -> ExactMatrix:
    return matrix_from_json(json.loads(text))
