"""Expected determinants and permanents of random Gram matrices.

Let G_n = A^T A where A has n i.i.d. columns with second-moment matrix M,
and write a_n = E(det(G_n)), p_n = E(perm(G_n)), t_k = trace(M^k). Three
routes to the same numbers are implemented, and kept separate on purpose so
they can police each other:

* recursion:
      a_{n+1} = sum_{j=0}^{n} C(n,j) (-1)^j j! a_{n-j} t_{j+1}
  and the same with all plus signs for p_{n+1}, run divided through by n!
  (below);
* closed form from the characteristic coefficients c_i of M:
      a_n = n! c_n        (c_n = 0 past the dimension)
      p_n = n! [x^n] (1 - c_1 x + c_2 x^2 - ...)^(-1);
* exponential generating function:
      sum a_n x^n / n! = exp(t_1 x - t_2 x^2/2 + t_3 x^3/3 - ...)
  and with all plus signs inside the exp for p_n.

The recursion and the EGF are one recurrence: with q_n = a_n / n! the
recursion reads (n+1) q_{n+1} = sum_j (-1)^j q_{n-j} t_{j+1}, the series
exp's own. The recursion runs in that form, one signed product per term
and one n! per a_n, while the EGF route builds the signed log series and
calls ``TruncatedSeries.exp``: two implementations of one normalized
recurrence. Only the closed form (Leverrier, then a series inverse) is
algorithmically independent.

The cycle-weight sum generalizes both recursions to arbitrary weights, and
``expected_coefficient`` scales a_i / p_i up to coefficient expectations of
the sampled characteristic and permanental polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .matrices import CharCoeffs, ExactMatrix, leverrier_char_coeffs
from .series import TruncatedSeries
from .traces import TraceSequence

KIND_DET = "determinant"
KIND_PERM = "permanent"
PATH_RECURSION = "recursion"
PATH_CHAR = "char_closed_form"
PATH_EGF = "egf"


@dataclass(frozen=True)
class ExpectedSequence:
    """values[n] = a_n or p_n for n = 0..N, tagged with how it was computed."""

    kind: str
    path: str
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.kind not in (KIND_DET, KIND_PERM):
            raise ValueError(f"kind must be {KIND_DET!r} or {KIND_PERM!r}, got {self.kind!r}")
        if self.path not in (PATH_RECURSION, PATH_CHAR, PATH_EGF):
            raise ValueError(f"unknown path {self.path!r}")
        if not self.values or self.values[0] != 1:
            raise ValueError("values[0] must be 1, the det and perm of the empty matrix")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n < len(self.values):
            raise IndexError(f"term index {n} out of range 0..{len(self.values) - 1}")
        return self.values[n]

    @property
    def terms(self) -> int:
        """Largest n covered."""
        return len(self.values) - 1


def char_coeffs(moment: ExactMatrix) -> CharCoeffs:
    """Sign-adjusted characteristic coefficients of M.

    det(lambda I - M) = c_0 lambda^t - c_1 lambda^(t-1) + c_2 lambda^(t-2) - ...
    with c_0 = 1; c_i is the sum of the i x i principal minors, and c_t is
    det(M). All c_i >= 0 is a necessary condition for M to be PSD.
    """
    return leverrier_char_coeffs(moment)


def _expectation_recursion(traces: TraceSequence, count: int, signed: bool) -> tuple[Fraction, ...]:
    if count < 0:
        raise ValueError("count must be >= 0")
    if len(traces) < count:
        raise ValueError(f"trace sequence too short: need t_1..t_{count}, have {len(traces)}")
    # q_n = a_n / n!: (n+1) q_{n+1} = sum_j (-1)^j q_{n-j} t_{j+1}, all plus signs for p_n.
    q = [Fraction(1)]
    for n in range(count):
        total = Fraction(0)
        for j in range(n + 1):
            term = q[n - j] * traces[j + 1]
            if signed and j % 2 == 1:
                total -= term
            else:
                total += term
        q.append(total / (n + 1))
    return tuple(factorial(n) * q_n for n, q_n in enumerate(q))


def expected_det_recursion(traces: TraceSequence, count: int) -> ExpectedSequence:
    """a_0..a_count via the signed recursion."""
    return ExpectedSequence(KIND_DET, PATH_RECURSION, _expectation_recursion(traces, count, signed=True))


def expected_perm_recursion(traces: TraceSequence, count: int) -> ExpectedSequence:
    """p_0..p_count via the unsigned recursion."""
    return ExpectedSequence(KIND_PERM, PATH_RECURSION, _expectation_recursion(traces, count, signed=False))


def det_sequence_from_char(coeffs: CharCoeffs, count: int) -> ExpectedSequence:
    """a_0..a_count by the closed form a_n = n! c_n, with c_n = 0 beyond the matrix dimension."""
    if count < 0:
        raise ValueError("count must be >= 0")
    values = (factorial(n) * coeffs[n] if n <= coeffs.dimension else Fraction(0) for n in range(count + 1))
    return ExpectedSequence(KIND_DET, PATH_CHAR, tuple(values))


def _alternating_char_series(coeffs: CharCoeffs, order: int) -> TruncatedSeries:
    values = [coeffs[i] if i % 2 == 0 else -coeffs[i] for i in range(coeffs.dimension + 1)]
    return TruncatedSeries.from_coefficients(values, order)


def expected_perm_from_char(coeffs: CharCoeffs, count: int) -> ExpectedSequence:
    """p_0..p_count via inversion of the alternating coefficient series.

    Builds 1 - c_1 x + c_2 x^2 - ... + (-1)^t c_t x^t, inverts it to order
    ``count``, and scales coefficient n by n!.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    inverted = _alternating_char_series(coeffs, count).inverse()
    values = tuple(factorial(n) * inverted.coefficient(n) for n in range(count + 1))
    return ExpectedSequence(KIND_PERM, PATH_CHAR, values)


def _egf_values(weights: Sequence[Fraction | int], count: int, signed: bool) -> tuple[Fraction, ...]:
    """n! [u^n] exp(sum_i X_i u^i / i) for n = 0..count, where X_i = weights[i - 1].

    With ``signed`` each X_i is replaced by (-1)^(i-1) X_i, the determinant
    weighting.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if len(weights) < count:
        raise ValueError(f"need weights X_1..X_{count}, have {len(weights)}")
    log = [Fraction(0)] + [
        Fraction(-x if signed and i % 2 == 0 else x, i) for i, x in enumerate(weights[:count], start=1)
    ]
    expanded = TruncatedSeries(tuple(log)).exp()
    return tuple(factorial(n) * expanded.coefficient(n) for n in range(count + 1))


def egf_expand_det(traces: TraceSequence, count: int) -> ExpectedSequence:
    """a_0..a_count as n! times the EGF coefficients."""
    return ExpectedSequence(KIND_DET, PATH_EGF, _egf_values(traces.values, count, signed=True))


def egf_expand_perm(traces: TraceSequence, count: int) -> ExpectedSequence:
    """p_0..p_count as n! times the EGF coefficients, all-plus signs."""
    return ExpectedSequence(KIND_PERM, PATH_EGF, _egf_values(traces.values, count, signed=False))


def weighted_cycle_sum(weights: Sequence[Fraction | int], n: int, signed: bool = False) -> Fraction:
    """P_n(X_1..X_n) = sum over sigma in S_n of prod_i X_i^(cycles of length i).

    ``weights[k]`` holds X_{k+1}. Evaluated through the generating identity
    sum_n P_n u^n / n! = exp(sum_i X_i u^i / i); with ``signed`` each X_i is
    replaced by (-1)^(i-1) X_i, which recovers the determinant weighting.
    At X_i = t_i this returns p_n (unsigned) or a_n (signed).
    """
    return _egf_values(weights, n, signed)[n]


def expected_coefficient(n: int, i: int, seq: ExpectedSequence) -> Fraction:
    """E of the i-th sampled-polynomial coefficient at size n: C(n,i) * seq[i].

    With seq the determinant sequence this is E(b_i), the expected sum of
    i x i principal minors of a sampled n x n Gram matrix; with the permanent
    sequence it is E(d_i) for the permanental analogue.
    """
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    if i > seq.terms:
        raise IndexError(f"sequence covers n <= {seq.terms}, needs index {i}")
    return comb(n, i) * seq[i]
