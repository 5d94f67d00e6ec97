"""Truncated formal power series with exact rational coefficients.

Supports exactly what the generating-function identities need: exp of a
series with zero constant term, and inversion of a series with nonzero
constant term. Everything is truncated at a fixed order and every
coefficient is a Fraction, so results are exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .scalars import to_rational


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients of x^0..x^order; ``exp`` and ``inverse`` keep that order."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @classmethod
    def from_coefficients(cls, values: Sequence[Fraction | int | str], order: int | None = None) -> "TruncatedSeries":
        coeffs = [to_rational(v, "series coefficients") for v in values]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            coeffs = coeffs[: order + 1]
            coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        return cls(tuple(coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient index {k} out of range 0..{self.order}")
        return self.coeffs[k]

    def exp(self) -> "TruncatedSeries":
        """exp(S) for a series with S(0) = 0.

        Uses the derivative recurrence E' = S' E, i.e.

            (n + 1) e_{n+1} = sum_{k=0}^{n} (k + 1) s_{k+1} e_{n-k}

        which needs no factorials and stays in lowest-terms rationals.
        """
        if self.coeffs[0] != 0:
            raise ValueError("exp requires a zero constant term")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        out[0] = Fraction(1)
        for m in range(n):
            acc = Fraction(0)
            for k in range(m + 1):
                s = self.coeffs[k + 1]
                if s != 0:
                    acc += (k + 1) * s * out[m - k]
            out[m + 1] = acc / (m + 1)
        return TruncatedSeries(tuple(out))

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a nonzero constant term. Sums run over the support only."""
        if self.coeffs[0] == 0:
            raise ValueError("inverse requires a nonzero constant term")
        n = self.order
        support = [(k, s) for k, s in enumerate(self.coeffs) if k and s]
        out = [Fraction(0)] * (n + 1)
        out[0] = 1 / self.coeffs[0]
        for m in range(1, n + 1):
            acc = Fraction(0)
            for k, s in support:
                if k > m:
                    break
                acc += s * out[m - k]
            out[m] = -acc / self.coeffs[0]
        return TruncatedSeries(tuple(out))
