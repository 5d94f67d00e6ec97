"""Sampling experiments: coefficient statistics of random Gram matrices.

Each replicate draws n i.i.d. columns, forms G = A^T A, and extracts the
sign-adjusted coefficients of its characteristic polynomial (b_i) and/or
permanental polynomial (d_i). Normalized by C(n, i), their replicate means
are compared against the exact expectations a_i and p_i via z-scores.

Two contracts shape the implementation:

* Exactness. The b_i are computed exactly at any n: the nonzero spectrum
  of the n x n Gram matrix A^T A equals that of the t x t matrix A A^T, so
  power sums of the small matrix plus Newton's identities give every b_i,
  including exact zeros past the rank. The d_i are computed exactly from
  the t-dimensional columns too, by a Wick expansion whose cost is linear
  in n at fixed t and max_index. No floating-point fallback exists, and
  the report's mode field says so.
* Determinism. Replicate r uses an RNG seeded by a documented split
  (SplitMix64 of the master seed and r), and aggregation reduces replicate
  results in index order. Reports are therefore byte-identical no matter
  how many workers ran.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb, factorial, lcm, sqrt
from operator import mul
from random import Random

# sample_vector is no longer called here but stays importable from this module.
from .models import Model, column_draws, moment_matrix, sample_rows, sample_vector
from .matrices import ExactMatrix, gram
from .oracles import GuardExceeded, OP_BUDGET, permanental_op_cost, permanental_poly_coeffs
from .sequences import ExpectedSequence, expected_det_recursion, expected_perm_recursion
from .traces import integer_elementary_from_power_sums, traces_by_power

_MASK64 = (1 << 64) - 1
# Reserved stream index for the acceptance suite's single statistical retry;
# replicate streams use indices 0..reps-1 and can never collide with it.
_RETRY_INDEX = (1 << 62) + 20240801

KINDS = ("det", "perm", "both")


def derive_seed(seed: int, index: int) -> int:
    """Stream seed for a (master seed, index) pair: SplitMix64 finalizer.

    This is the documented splitting function behind replicate streams;
    serial and parallel runs draw identical samples because each replicate
    owns the stream derived from its index.
    """
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def retry_seed(seed: int) -> int:
    """Fresh master seed for the one permitted statistical retry."""
    return derive_seed(seed, _RETRY_INDEX)


@dataclass(frozen=True)
class SimulationConfig:
    model: Model
    n: int
    reps: int
    max_index: int
    kind: str
    seed: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if not 0 <= self.max_index <= self.n:
            raise ValueError(f"need 0 <= max_index <= n, got {self.max_index} with n={self.n}")
        if self.kind not in KINDS:
            raise ValueError(f'kind must be one of {KINDS}, got {self.kind!r}')
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits")

    @property
    def kinds(self) -> tuple[str, ...]:
        """The coefficient families this run samples, det before perm."""
        return ("det", "perm") if self.kind == "both" else (self.kind,)


@dataclass(frozen=True)
class CoefficientStats:
    """Aggregated statistics of one normalized coefficient across replicates."""

    index: int
    normalized_mean: float
    normalized_stddev: float | None
    exact_value: Fraction
    z_score: float | None


@dataclass(frozen=True)
class SimulationReport:
    """Statistics and raw replicate values (b_i or d_i, not over C(n, i)), keyed by kind."""

    n: int
    reps: int
    seed: int
    max_index: int
    kind: str
    mode: str
    stats: dict[str, tuple[CoefficientStats, ...]]
    raw: dict[str, tuple[tuple[Fraction, ...], ...]]

    def stats_for(self, kind: str) -> tuple[CoefficientStats, ...]:
        if kind not in self.stats:
            raise ValueError(f"report holds no {kind!r} statistics")
        return self.stats[kind]

    def replicates_for(self, kind: str) -> tuple[tuple[Fraction, ...], ...]:
        """The replicate values of ``kind`` normalized by C(n, i)."""
        if kind not in self.raw:
            raise ValueError(f"report holds no {kind!r} replicate values")
        scales = [comb(self.n, i) for i in range(1, self.max_index + 1)]
        return tuple(tuple(v / c for v, c in zip(row, scales)) for row in self.raw[kind])


def _gram_entries(columns: list[tuple]) -> ExactMatrix:
    """The Gram matrix of the columns, by ``matrices.gram``."""
    return gram(ExactMatrix.from_rows(zip(*columns)))


# W from count rows below 16: each count's square, and the product of the
# two counts packed in a byte as (x << 4) + y.
_SQUARE = bytes(b * b for b in range(16)) + bytes(240)
_PRODUCT = bytes((b >> 4) * (b & 15) for b in range(256))


def _row_gram(rows: list, max_count: int = 255) -> list[list[int]]:
    """W = A A^T of integer rows, one entry of its upper triangle at a time.

    Bytes rows whose entries are at most ``max_count`` < 16 use the byte
    tables: W_ii sums row i's squares, and W_ij the byte products of
    (row_i << 4) + row_j, in which no byte carries. Other rows take
    ``sum(map(mul))``.
    """
    t = len(rows)
    w = [[0] * t for _ in range(t)]
    if isinstance(rows[0], bytes) and max_count < 16:
        n, ints = len(rows[0]), [int.from_bytes(row, "little") for row in rows]
        for i in range(t):
            w[i][i] = sum(rows[i].translate(_SQUARE))
            for j in range(i + 1, t):
                w[i][j] = w[j][i] = sum(((ints[i] << 4) + ints[j]).to_bytes(n, "little").translate(_PRODUCT))
        return w
    for i in range(t):
        for j in range(i, t):
            w[i][j] = w[j][i] = sum(map(mul, rows[i], rows[j]))
    return w


def _char_coefficient_values(rows: list, max_index: int, max_count: int = 255) -> tuple[Fraction, ...]:
    """b_1..b_max_index of the Gram matrix of A, exactly, at any n, from the rows of A.

    Works on W = A A^T (t x t, t the column dimension): its power sums equal
    those of the Gram matrix, and elementary symmetric functions of a
    spectrum ignore extra zero eigenvalues, so e_k(G) = e_k(W) for k up to
    n, with e_k(W) = 0 past the rank. Cost is O(t^2 n + t^3 max_index).
    Count rows are ints or bytes (``max_count`` bounds their entries); atom
    rows are Fractions and are scaled by the lcm D of their denominators, so
    W is an integer matrix (``_row_gram``). The power sums need only W^k up
    to k = ceil(m/2), as tr(W^(2k)) = <W^k, W^k> and
    tr(W^(2k+1)) = <W^k, W^(k+1)>; they and Newton's identities run in
    ints, and e_k is divided by D^(2k) once at the end.
    """
    if max_index == 0:
        return ()
    scale = 1
    if isinstance(rows[0][0], Fraction):
        scale = lcm(*(x.denominator for row in rows for x in row))
        rows = [[int(x * scale) for x in row] for row in rows]
    w = _row_gram(rows, max_count)
    t = len(w)
    # powers[k] is W^k from W^0 = I, so tr(W) = <W^0, W^1> takes the same formula.
    powers = [[[int(i == j) for j in range(t)] for i in range(t)], w]
    while 2 * len(powers) - 2 < max_index:
        # W and its powers are symmetric: column j of W is row j.
        powers.append([[sum(map(mul, row, w_row)) for w_row in w] for row in powers[-1]])
    flat = [list(chain.from_iterable(power)) for power in powers]
    power_sums = [sum(map(mul, flat[k // 2], flat[(k + 1) // 2])) for k in range(1, max_index + 1)]
    elementary = integer_elementary_from_power_sums(power_sums, max_index)
    return tuple(Fraction(e, scale ** (2 * k)) for k, e in enumerate(elementary[1:], start=1))


def check_sampling_draws(model: Model, n: int, op_budget: int) -> None:
    """Refuse, before sampling, a run whose replicates draw more words than the budget.

    One replicate of n columns draws at most n times ``column_draws``: n
    for atoms, n ell for a multinomial and n (max ell + 1) for a compound
    model. The CLI runs this check; ``simulate`` itself applies its op
    budget to the permanental path only.
    """
    draws = n * column_draws(model)
    if draws > op_budget:
        raise GuardExceeded(
            f"run refused before sampling: one replicate of n = {n} columns "
            f"draws up to {draws} words, budget is {op_budget}"
        )


def perm_coefficient_op_cost(n: int, t: int, max_index: int) -> list[int]:
    """Cumulative cost per index of the Wick expansion below.

    Multiplying a stored degree-k polynomial, at most C(k+t-1, t-1)^2
    terms, by l(u) l(v) takes about t^2 operations per term, and only the
    n - k columns after the first k meet a nonempty degree-k level, so
    cost_i = t^2 sum_{k<i} (n - k) C(k+t-1, t-1)^2.
    """
    costs = []
    running = 0
    for k in range(max_index):
        running += (n - k) * t * t * comb(k + t - 1, t - 1) ** 2
        costs.append(running)
    return costs


def perm_by_wick(n: int, t: int, max_index: int, op_budget: int) -> bool:
    """Pick the permanental path of a run before sampling: True for Wick, False for Ryser.

    The Wick expansion is the path. Its cost grows like C(i+t-1, t-1)^2, so
    a few columns in many dimensions can overrun the budget where Ryser
    over every principal submatrix of the n x n Gram matrix fits; Ryser
    runs then, and no run is refused that Ryser alone would accept. Raises
    GuardExceeded, naming the first index i over budget, when neither fits.
    """
    costs = perm_coefficient_op_cost(n, t, max_index)
    if not costs or costs[-1] <= op_budget:
        return True
    if permanental_op_cost(n, max_index)[-1] <= op_budget:
        return False
    i, cost = next((i, c) for i, c in enumerate(costs, start=1) if c > op_budget)
    raise GuardExceeded(
        f"permanental run refused before sampling: index i = {i} at "
        f"n = {n} needs ~{cost} ops, budget is {op_budget}"
    )


def _times_l_v(row: dict[int, int], terms: list[tuple[int, int]]) -> dict[int, int]:
    """Multiply a polynomial in v by l(v) = sum_k a_k v_k."""
    out: dict[int, int] = {}
    for nu, coeff in row.items():
        for unit, a in terms:
            key = nu + unit
            out[key] = out.get(key, 0) + a * coeff
    return out


def _times_pair(poly: dict, terms: list[tuple[int, int]]) -> dict:
    """l(u) l(v) poly for poly stored as {mu: {nu: coeff}}."""
    out: dict = {}
    for mu, row in poly.items():
        row = _times_l_v(row, terms)
        for unit, a in terms:
            target = out.setdefault(mu + unit, {})
            for nu, coeff in row.items():
                target[nu] = target.get(nu, 0) + a * coeff
    return out


def _perm_coefficient_values(columns: list[tuple], max_index: int) -> tuple[Fraction, ...]:
    """d_1..d_max_index of gram(columns), exactly, without forming the Gram matrix.

    d_i sums perm over the i x i principal submatrices of G = A^T A. With
    l_j(u) = sum_k a_kj u_k for column j and the linear functional
    L(u^mu v^nu) = mu! [mu = nu] (Wick pairing of complex Gaussians),

        sum_i d_i x^i = L(prod_j (1 + x l_j(u) l_j(v))).

    The product is kept truncated at degree max_index, one polynomial per
    degree k, bihomogeneous of degree (k, k), stored as {mu: {nu: coeff}}
    with each exponent vector packed into an int of base max_index + 1
    digits, so adding a unit exponent is integer addition. Repeated
    columns are grouped and enter as (1 + x l(u) l(v))^c. Only the diagonal
    mu = nu of the top degree is ever paired, so it goes straight into
    d_max_index and is never stored. Columns are scaled by the lcm D of
    their denominators so every coefficient is an int, and d_i is divided
    by D^(2i) at the end. Cost: ``perm_coefficient_op_cost``.
    """
    if max_index == 0:
        return ()
    base = max_index + 1
    scale = lcm(*(x.denominator for column in columns for x in column))
    units = [base**k for k in range(len(columns[0]))]
    pairing: dict[int, int] = {}

    def mu_factorial(mu: int) -> int:
        if mu not in pairing:
            value, digits = 1, mu
            while digits:
                digits, exponent = divmod(digits, base)
                value *= factorial(exponent)
            pairing[mu] = value
        return pairing[mu]

    levels: list[dict] = [{0: {0: 1}}] + [{} for _ in range(1, max_index)]
    top = 0
    for column, count in Counter(columns).items():
        terms = [(unit, int(a * scale)) for unit, a in zip(units, column) if a]
        if not terms:
            continue
        # Highest source degree first: a chain from degree s writes only to
        # degrees above s, which have already been read as sources.
        for source in range(max_index - 1, -1, -1):
            poly = levels[source]
            for k in range(1, min(count, max_index - source) + 1):
                weight = comb(count, k)
                if source + k == max_index:
                    for mu, row in poly.items():
                        row = _times_l_v(row, terms)
                        for unit, a in terms:
                            coeff = row.get(mu + unit)
                            if coeff:
                                top += weight * a * coeff * mu_factorial(mu + unit)
                    break
                poly = _times_pair(poly, terms)
                level = levels[source + k]
                for mu, row in poly.items():
                    target = level.setdefault(mu, {})
                    for nu, coeff in row.items():
                        target[nu] = target.get(nu, 0) + weight * coeff
    values = [
        sum(mu_factorial(mu) * row.get(mu, 0) for mu, row in levels[i].items())
        for i in range(1, max_index)
    ]
    values.append(top)
    return tuple(Fraction(v, scale ** (2 * i)) for i, v in enumerate(values, start=1))


def _replicate_worker(args: tuple) -> tuple[tuple[Fraction, ...], ...]:
    """One replicate: the values of each kind in ``kinds``, from one draw of A."""
    model, n, max_index, kinds, wick, op_budget, stream_seed = args
    rows = sample_rows(model, n, Random(stream_seed))
    values = []
    for kind in kinds:
        if kind == "det":
            # A count never exceeds the trials of its column, column_draws(model).
            values.append(_char_coefficient_values(rows, max_index, column_draws(model)) if n else ())
        elif wick:
            values.append(_perm_coefficient_values(list(zip(*rows)), max_index))
        else:
            g = _gram_entries(list(zip(*rows)))
            values.append(permanental_poly_coeffs(g, max_index, op_budget=op_budget)[1:])
    return tuple(values)


def _aggregate(
    raw_rows: Sequence[tuple[Fraction, ...]], n: int, exact_seq: ExpectedSequence
) -> tuple[CoefficientStats, ...]:
    """Statistics of the values over C(n, i) from S1 = sum v and S2 = sum v^2, in ints if all are.

    mean = S1 / (reps C), variance = (reps S2 - S1^2) / (reps (reps - 1) C^2).
    """
    reps = len(raw_rows)
    stats = []
    for i, values in enumerate(zip(*raw_rows), start=1):
        if all(v.denominator == 1 for v in values):
            values = [v.numerator for v in values]
        s1, s2, c = sum(values), sum(map(mul, values, values)), comb(n, i)
        mean, exact = Fraction(s1, reps * c), exact_seq[i]
        try:
            stddev = sqrt(float(Fraction(reps * s2 - s1 * s1, reps * (reps - 1) * c * c))) if reps > 1 else None
            z = float(mean - exact) / (stddev / sqrt(reps)) if stddev else None
            stats.append(CoefficientStats(
                index=i, normalized_mean=float(mean), normalized_stddev=stddev, exact_value=exact, z_score=z
            ))
        except OverflowError:
            raise ValueError(f"{exact_seq.kind} coefficient i = {i}: a statistic exceeds float range") from None
    return tuple(stats)


def simulate(config: SimulationConfig, *, threads: int = 1, op_budget: int = OP_BUDGET) -> SimulationReport:
    """Run the replicates and aggregate coefficient statistics.

    The permanental path and its op budget are settled by ``perm_by_wick``
    before any sampling starts, so a doomed run fails immediately.
    ``threads`` > 1 fans replicates out to worker processes; the report is
    identical either way.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    kinds = config.kinds
    wick = "perm" not in kinds or perm_by_wick(config.n, config.model.t, config.max_index, op_budget)
    work = [
        (config.model, config.n, config.max_index, kinds, wick, op_budget, derive_seed(config.seed, r))
        for r in range(config.reps)
    ]
    if threads == 1:
        results = [_replicate_worker(item) for item in work]
    else:
        chunk = max(1, config.reps // (threads * 4))
        from concurrent.futures import ProcessPoolExecutor  # only pools pay for its import

        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_replicate_worker, work, chunksize=chunk))

    traces = traces_by_power(moment_matrix(config.model), config.max_index)
    recursions = {"det": expected_det_recursion, "perm": expected_perm_recursion}
    raw = dict(zip(kinds, zip(*results)))
    stats = {
        kind: _aggregate(raw[kind], config.n, recursions[kind](traces, config.max_index))
        for kind in kinds
    }
    return SimulationReport(
        n=config.n,
        reps=config.reps,
        seed=config.seed,
        max_index=config.max_index,
        kind=config.kind,
        mode="exact",
        stats=stats,
        raw=raw,
    )


def stddev_trend(
    model: Model,
    n_list: list[int],
    reps: int,
    index: int,
    kind: str,
    seed: int,
    *,
    threads: int = 1,
    op_budget: int = OP_BUDGET,
) -> list[tuple[int, float]]:
    """Normalized stddev of coefficient ``index`` across increasing n.

    One simulate run per n, each on its own derived seed stream. ``kind``
    must be det or perm; a combined trajectory has no meaning here. Every
    n is validated, and a permanental run costed at its largest n, before
    the first point is computed.
    """
    if kind not in ("det", "perm"):
        raise ValueError(f'trend kind must be "det" or "perm", got {kind!r}')
    if not 0 <= seed <= _MASK64:
        raise ValueError("seed must fit in 64 bits")
    if list(n_list) != sorted(set(n_list)) or not n_list:
        raise ValueError("n_list must be non-empty and strictly increasing")
    if index < 1:
        raise ValueError("coefficient index must be >= 1")
    if reps < 2:
        raise ValueError(f"a trend needs reps >= 2 for a sample standard deviation, got {reps}")
    configs = [
        SimulationConfig(model=model, n=n, reps=reps, max_index=index, kind=kind, seed=derive_seed(seed, n))
        for n in n_list
    ]
    if kind == "perm":
        # Both permanental cost models grow with n, so costing the largest n
        # refuses, before any work, exactly the runs a later point would.
        perm_by_wick(n_list[-1], model.t, index, op_budget)
    points = []
    for config in configs:
        report = simulate(config, threads=threads, op_budget=op_budget)
        points.append((config.n, report.stats_for(kind)[index - 1].normalized_stddev))
    return points
