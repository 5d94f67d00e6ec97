"""Brute-force reference implementations that police the fast paths.

Nothing here is clever, and that is the point: Leibniz permutation sums,
Ryser's inclusion-exclusion, fraction-free elimination, and exhaustive
enumeration over atom tuples. Each oracle is exact, guarded against
accidentally huge inputs, and independent of the generating-function code
it is used to validate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, lcm, prod
from typing import Sequence

from .matrices import ExactMatrix, gram, leverrier_char_coeffs
from .models import DiscreteVectorDistribution
from .scalars import format_rational

LEIBNIZ_MAX_SIZE = 9
RYSER_MAX_SIZE = 28
# Exact O(n^3) integer Bareiss and O(n^4) integer Leverrier: on entries in [-4, 4],
# about 0.1 s each at these bounds (2-core Xeon, CPython 3.11).
BAREISS_MAX_SIZE = 100
CHARPOLY_MAX_SIZE = 32
# t n^2 Fraction products for a t x n matrix: about 5 s at 100x100 on the same entries.
GRAM_MAX_SIZE = 100
TUPLE_GUARD = 10**6
BRUTE_MAX_N = 8
OP_BUDGET = 10**7


class GuardExceeded(Exception):
    """An oracle size guard tripped; the message names the offending bound.

    Oracles refuse oversized inputs instead of approximating: a reference
    value that silently degrades is worse than no value.
    """


class VerificationMismatch(Exception):
    """Two computation paths disagreed (exit 1)."""


def agreed(what: str, first: int, computed: dict[str, tuple], index: str = "n") -> tuple:
    """The first path's values; a path that differs raises, naming the first differing ``index`` = ``first`` + k."""
    (reference_name, reference), *others = computed.items()
    for name, values in others:
        if values != reference:
            k = next(k for k, (a, b) in enumerate(zip(reference, values)) if a != b)
            raise VerificationMismatch(
                f"{what} paths disagree: {reference_name} vs {name} first differ at "
                f"{index} = {first + k} ({format_rational(reference[k])} vs {format_rational(values[k])})"
            )
    return reference


def _require_square(matrix: ExactMatrix, what: str, max_size: int | None = None) -> int:
    if not matrix.is_square:
        raise ValueError(f"{what} requires a square matrix, got {matrix.rows}x{matrix.cols}")
    if max_size is not None and matrix.rows > max_size:
        raise GuardExceeded(f"{what} guard: n = {matrix.rows} exceeds max size {max_size}")
    return matrix.rows


def _integer_entries(matrix: ExactMatrix) -> tuple[list[list[int]], int]:
    """The entries times the lcm D of their denominators, as ints, and D.

    Computed here rather than by ``matrices.integer_scaled``, which the
    fast paths use, so a fault there cannot hide in an oracle too.
    """
    scale = lcm(*(x.denominator for row in matrix.entries for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in matrix.entries], scale


def _permutation_sign(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _leibniz_sum(matrix: ExactMatrix, what: str, signed: bool) -> Fraction:
    n = _require_square(matrix, what, LEIBNIZ_MAX_SIZE)
    entries, scale = _integer_entries(matrix)
    total = 0
    for perm in permutations(range(n)):
        term = prod(entries[i][perm[i]] for i in range(n))
        total += -term if signed and _permutation_sign(perm) < 0 else term
    return Fraction(total, scale**n)


def det_expansion(matrix: ExactMatrix) -> Fraction:
    """Signed Leibniz sum over all permutations. Guarded at n! terms."""
    return _leibniz_sum(matrix, "det_expansion", signed=True)


def perm_expansion(matrix: ExactMatrix) -> Fraction:
    """Unsigned Leibniz sum over all permutations. Guarded at n! terms."""
    return _leibniz_sum(matrix, "perm_expansion", signed=False)


def _perm_ryser_entries(entries: Sequence[Sequence[int]]) -> int:
    n = len(entries)
    if n == 0:
        return 1
    # Inclusion-exclusion over nonempty column subsets S:
    #   perm = sum_S (-1)^(n - |S|) prod_i (sum_{j in S} entries[i][j])
    # visited in Gray-code order (step k toggles the lowest set bit of k),
    # so the row sums update in O(n) per subset.
    row_sums = [0] * n
    in_subset = [False] * n
    size = 0
    total = 0
    for k in range(1, 1 << n):
        flip = (k & -k).bit_length() - 1
        if in_subset[flip]:
            for i in range(n):
                row_sums[i] -= entries[i][flip]
            in_subset[flip] = False
            size -= 1
        else:
            for i in range(n):
                row_sums[i] += entries[i][flip]
            in_subset[flip] = True
            size += 1
        term = prod(row_sums)
        if term != 0:
            total += term if (n - size) % 2 == 0 else -term
    return total


def perm_ryser(matrix: ExactMatrix) -> Fraction:
    """Exact permanent in O(2^n n) via Ryser's formula with Gray-code subsets."""
    n = _require_square(matrix, "perm_ryser", RYSER_MAX_SIZE)
    entries, scale = _integer_entries(matrix)
    return Fraction(_perm_ryser_entries(entries), scale**n)


def det_bareiss(matrix: ExactMatrix) -> Fraction:
    """Exact determinant by fraction-free elimination with row pivoting.

    Runs on the integer matrix D A, where every division in the Bareiss
    recurrence is exact, and returns det(D A) / D^n; a zero pivot column
    means a singular matrix and an exact 0 result.
    """
    n = _require_square(matrix, "det_bareiss", BAREISS_MAX_SIZE)
    if n == 0:
        return Fraction(1)
    a, scale = _integer_entries(matrix)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return Fraction(sign * a[n - 1][n - 1], scale**n)


def brute_force_expectation(dist: DiscreteVectorDistribution, n: int, kind: str) -> Fraction:
    """E(det G_n) or E(perm G_n) by enumerating every ordered atom tuple.

    Tuples are ordered with repetition, matching column independence; the
    weight of a tuple is the product of its atom probabilities.
    """
    if kind not in ("det", "perm"):
        raise ValueError(f'kind must be "det" or "perm", got {kind!r}')
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > BRUTE_MAX_N:
        raise GuardExceeded(f"brute_force_expectation guard: n = {n} exceeds max {BRUTE_MAX_N}")
    k = len(dist.atoms)
    if k**n > TUPLE_GUARD:
        raise GuardExceeded(
            f"brute_force_expectation guard: {k}^{n} tuples exceed the budget of {TUPLE_GUARD}"
        )
    # Pairwise atom dot products; each tuple's Gram matrix takes its rows and columns from these.
    dots = gram(ExactMatrix(tuple(v for v, _ in dist.atoms)).transpose())
    evaluate = det_bareiss if kind == "det" else perm_ryser
    total = Fraction(0)
    for choice in product(range(k), repeat=n):
        weight = prod((dist.atoms[c][1] for c in choice), start=Fraction(1))
        if weight == 0:
            continue
        total += weight * evaluate(dots.submatrix(choice))
    return total


def permanental_op_cost(n: int, max_index: int) -> list[int]:
    """Cumulative Ryser cost per index: cost_i ~ C(n,i) * 2^i * i^2."""
    costs = []
    running = 0
    for i in range(1, max_index + 1):
        running += comb(n, i) * (2**i) * i * i
        costs.append(running)
    return costs


def refuse_over_budget(costs: Sequence[int], n: int, op_budget: int, what: str) -> None:
    """Raise GuardExceeded, opened by ``what``, at the first index i whose cumulative cost is over the budget."""
    for i, cost in enumerate(costs, start=1):
        if cost > op_budget:
            raise GuardExceeded(f"{what}: index i = {i} at n = {n} needs ~{cost} ops, budget is {op_budget}")


def permanental_poly_coeffs(
    gram_matrix: ExactMatrix,
    max_index: int,
    *,
    op_budget: int = OP_BUDGET,
) -> tuple[Fraction, ...]:
    """d_0..d_max_index with d_i the sum of perm over i x i principal submatrices.

    These are the sign-adjusted coefficients of perm(lambda I - G). Costed
    up front: the cumulative Ryser work must fit the op budget, otherwise a
    guard error names the offending (n, i) before any work happens. Ryser
    runs on the integer matrix D G, and d_i is its sum over D^i.
    """
    n = _require_square(gram_matrix, "permanental_poly_coeffs")
    if not 0 <= max_index <= n:
        raise ValueError(f"need 0 <= max_index <= n, got max_index={max_index}, n={n}")
    refuse_over_budget(permanental_op_cost(n, max_index), n, op_budget, "permanental_poly_coeffs guard")
    entries, scale = _integer_entries(gram_matrix)
    coeffs = [Fraction(1)]
    for i in range(1, max_index + 1):
        total = 0
        for keep in combinations(range(n), i):
            total += _perm_ryser_entries([[entries[r][c] for c in keep] for r in keep])
        coeffs.append(Fraction(total, scale**i))
    return tuple(coeffs)


def guarded_gram(matrix: ExactMatrix) -> ExactMatrix:
    """``matrices.gram`` of a matrix refused, before any product, past GRAM_MAX_SIZE rows or columns."""
    size = max(matrix.rows, matrix.cols)
    if size > GRAM_MAX_SIZE:
        raise GuardExceeded(f"gram guard: n = {size} exceeds max size {GRAM_MAX_SIZE}")
    return gram(matrix)


def char_poly_coeffs_of_gram(gram_matrix: ExactMatrix) -> tuple[Fraction, ...]:
    """b_0..b_n with b_i the sum of i x i principal minors of G.

    Sign-adjusted coefficients of det(lambda I - G); identically zero past
    the rank of G.
    """
    _require_square(gram_matrix, "char_poly_coeffs_of_gram", CHARPOLY_MAX_SIZE)
    return leverrier_char_coeffs(gram_matrix).values
