"""Power traces t_n = trace(M^n) of a moment matrix, two ways.

The direct route multiplies matrices; the indirect route recovers the same
numbers from the characteristic coefficients via Newton's identities. Both
are exact, and keeping both alive is the point: they cross-check each other
in the test suite and in the CLI verification path.

Newton's identities live here in both directions: elementary symmetric
functions to power sums (the indirect route) and power sums to elementary
symmetric functions (the sampled coefficients in ``montecarlo``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .matrices import CharCoeffs, ExactMatrix
from .models import MomentMatrix


@dataclass(frozen=True)
class TraceSequence:
    """Traces t_1..t_N of successive powers; indexing is 1-based like t_n."""

    values: tuple[Fraction, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> Fraction:
        if not 1 <= n <= len(self.values):
            raise IndexError(f"trace index {n} out of range 1..{len(self.values)}")
        return self.values[n - 1]


def _as_square(matrix: MomentMatrix | ExactMatrix) -> ExactMatrix:
    m = matrix.as_exact_matrix() if isinstance(matrix, MomentMatrix) else matrix
    if not m.is_square:
        raise ValueError("traces require a square matrix")
    return m


def traces_by_power(matrix: MomentMatrix | ExactMatrix, count: int) -> TraceSequence:
    """t_1..t_count by iterated exact multiplication."""
    if count < 0:
        raise ValueError("count must be >= 0")
    m = _as_square(matrix)
    values = []
    power = m
    for n in range(count):
        if n > 0:
            power = power @ m
        values.append(power.trace())
    return TraceSequence(tuple(values))


def traces_from_char_coeffs(coeffs: CharCoeffs, count: int) -> TraceSequence:
    """t_1..t_count from elementary symmetric functions, Newton's identities.

    With c_k = 0 for k > dimension:

        t_n = sum_{i=1}^{n-1} (-1)^(i-1) c_i t_{n-i}  +  (-1)^(n-1) n c_n

    so the sequence extends to any length even though only c_1..c_t exist,
    and the sum runs only to i = min(n - 1, t).
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    t = coeffs.dimension
    values: list[Fraction] = []
    for n in range(1, count + 1):
        total = Fraction(0)
        for i in range(1, min(n - 1, t) + 1):
            term = coeffs[i] * values[n - i - 1]
            total += term if i % 2 == 1 else -term
        if n <= t:
            tail = n * coeffs[n]
            total += tail if n % 2 == 1 else -tail
        values.append(total)
    return TraceSequence(tuple(values))


def integer_elementary_from_power_sums(power_sums: Sequence[int], count: int) -> list[int]:
    """e_0..e_count, as ints, from the power sums p_1..p_count of an integer matrix.

    Newton's identities, k e_k = sum_{i=1}^{k} (-1)^(i-1) e_{k-i} p_i. The
    e_k of an integer matrix are integers, so every division is exact; a
    remainder raises ArithmeticError instead of being rounded away.
    """
    elem = [1]
    for k in range(1, count + 1):
        acc = 0
        for i in range(1, k + 1):
            term = elem[k - i] * power_sums[i - 1]
            acc += term if i % 2 == 1 else -term
        quotient, remainder = divmod(acc, k)
        if remainder:
            raise ArithmeticError(f"Newton's identities: {acc} is not a multiple of {k}")
        elem.append(quotient)
    return elem
