"""Sampling experiments: coefficient statistics of random Gram matrices.

Each replicate draws n i.i.d. columns, forms G = A^T A, and extracts the
sign-adjusted coefficients of its characteristic polynomial (b_i) and/or
permanental polynomial (d_i). Normalized by C(n, i), their replicate means
are compared against the exact expectations a_i and p_i via z-scores.

Two contracts shape the implementation:

* Exactness. The b_i are computed exactly at any n: the nonzero spectrum
  of the n x n Gram matrix A^T A equals that of the t x t matrix A A^T, so
  power sums of the small matrix plus Newton's identities give every b_i,
  including exact zeros past the rank. The d_i come from the t rows of A
  too, by a Wick expansion kept as one row-sparse matrix per degree over
  that degree's monomials, each row cut to the band of entries that can
  still reach a diagonal, at a cost linear in n at fixed t and max_index.
  Both kernels run in ints on rows that the model has scaled by its D, a
  replicate returns those ints, and the report keeps them with coefficient
  i's divisor C(n, i) D^(2i), in the calling process. No floating-point
  fallback exists, and the report's mode field says so.
* Determinism. Replicate r uses an RNG seeded by a documented split
  (SplitMix64 of the master seed and r), and aggregation reduces replicate
  results in index order. Reports are therefore byte-identical no matter
  how many processes ran: with W workers, W - 1 child processes each take
  every W-th replicate and the calling process takes its own share, and a
  command, ``trend`` included, starts its children once.
"""

from __future__ import annotations

import os
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import accumulate, chain, islice
from math import comb, factorial, prod, sqrt
from operator import add, mul
from random import Random

# sample_vector is not called here; it stays because bench/run.py hooks this name for
# its models.sample_vector span, until ROADMAP item 1 or 5 repoints the hooks.
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
    """Statistics and the kernels' replicate ints, by kind, and value i's divisor C(n, i) D^(2i) in ``divisors``."""

    n: int
    reps: int
    seed: int
    max_index: int
    kind: str
    mode: str
    stats: dict[str, tuple[CoefficientStats, ...]]
    values: dict[str, tuple[tuple[int, ...], ...]]
    divisors: tuple[int, ...]

    def stats_for(self, kind: str) -> tuple[CoefficientStats, ...]:
        if kind not in self.stats:
            raise ValueError(f"report holds no {kind!r} statistics")
        return self.stats[kind]

    def replicates_for(self, kind: str) -> tuple[tuple[Fraction, ...], ...]:
        """The replicate values of ``kind`` normalized by C(n, i): b_i / C(n, i) or d_i / C(n, i)."""
        if kind not in self.values:
            raise ValueError(f"report holds no {kind!r} replicate values")
        return tuple(tuple(map(Fraction, row, self.divisors)) for row in self.values[kind])


def _gram_entries(rows: list) -> ExactMatrix:
    """The Gram matrix A^T A of the rows of A, by ``matrices.gram``.

    Its own name because bench/run.py hooks it for its montecarlo.gram span,
    until ROADMAP item 1 or 5 repoints the hooks.
    """
    return gram(ExactMatrix.from_rows(rows))


# W from count rows below 16: each count's square, and the product of the
# two counts packed in a byte as (x << 4) + y.
_BELOW_16 = bytes(range(16))
_SQUARE = bytes(b * b for b in range(16)) + bytes(240)
_PRODUCT = bytes((b >> 4) * (b & 15) for b in range(256))


def _row_gram(rows: list) -> list[list[int]]:
    """W = A A^T of integer rows, one entry of its upper triangle at a time.

    Bytes rows whose counts are all below 16 use the byte tables: W_ii sums
    row i's squares, and W_ij the byte products of (row_i << 4) + row_j, in
    which no byte carries. Other rows take ``sum(map(mul))``.
    """
    t = len(rows)
    w = [[0] * t for _ in range(t)]
    # Deleting the counts below 16 leaves a row empty exactly when the tables apply.
    if isinstance(rows[0], bytes) and not any(row.translate(None, _BELOW_16) for row in rows):
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


def _char_coefficient_values(rows: list, max_index: int) -> tuple[int, ...]:
    """b_1..b_max_index of the Gram matrix of the integer rows of A, exactly, at any n.

    Works on W = A A^T (t x t, t the column dimension): its power sums equal
    those of the Gram matrix, and elementary symmetric functions of a
    spectrum ignore extra zero eigenvalues, so e_k(G) = e_k(W) for k up to
    n, with e_k(W) = 0 past the rank. Cost is O(t^2 n + t^3 max_index).
    The power sums need only W^k up to k = ceil(m/2), as
    tr(W^(2k)) = <W^k, W^k> and tr(W^(2k+1)) = <W^k, W^(k+1)>; they and
    Newton's identities run in ints.
    """
    if max_index == 0:
        return ()
    w = _row_gram(rows)
    t = len(w)
    # powers[k] is W^k from W^0 = I, so tr(W) = <W^0, W^1> takes the same formula.
    powers = [[[int(i == j) for j in range(t)] for i in range(t)], w]
    while 2 * len(powers) - 2 < max_index:
        # W and its powers are symmetric: column j of W is row j.
        powers.append([[sum(map(mul, row, w_row)) for w_row in w] for row in powers[-1]])
    flat = [list(chain.from_iterable(power)) for power in powers]
    power_sums = [sum(map(mul, flat[k // 2], flat[(k + 1) // 2])) for k in range(1, max_index + 1)]
    return tuple(integer_elementary_from_power_sums(power_sums, max_index)[1:])


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

    Each degree-k level holds at most C(k+t-1, t-1)^2 coefficients, a
    column costs about c = max(t^2, 2t + 1) operations per coefficient, and
    only the n - k columns after the first k meet a nonempty degree-k
    level, so cost_i = c sum_{k<i} (n - k) C(k+t-1, t-1)^2. It bounds the
    kernel's multiply-adds; c = t^2 for t >= 3, and the 2t + 1 covers the
    row scatters that t^2 undercounts at t <= 2. Counted over t = 1..6,
    i <= 6, the banded kernel's multiply-adds came to at most 0.80 of it.
    """
    per_coefficient = max(t * t, 2 * t + 1)
    return list(accumulate((n - k) * per_coefficient * comb(k + t - 1, t - 1) ** 2 for k in range(max_index)))


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


@lru_cache(maxsize=None)
def _monomial_tables(t: int, max_index: int) -> tuple[list, list, list, list]:
    """Monomials in t variables of degree 0..max_index, indexed within their degree, and the kept band.

    ``successors[k][p][a]`` indexes monomial p of degree k times u_a.
    ``bands[k][p]`` lists, in index order, the p2 that level k < max_index
    keeps in row p: those within 2(max_index - k) unit moves of p, and at
    k = max_index - 1 only those with p2 >= p. ``pairings[p][a]`` lists
    (position of p2 in ``bands[-1][p]``, b, f q!) for each p2 u_b = p u_a = q
    with p2 >= p, where f = 2 off the diagonal counts (p2, p) as well.
    ``weights[k][q]`` is q!.
    """
    monomials, successors = [[(0,) * t]], []
    for _ in range(max_index):
        index: dict[tuple, int] = {}
        successors.append([
            [index.setdefault(p[:a] + (p[a] + 1,) + p[a + 1 :], len(index)) for a in range(t)]
            for p in monomials[-1]
        ])
        monomials.append(list(index))
    weights = [[prod(map(factorial, q)) for q in level] for level in monomials]
    # Two monomials of degree k lie 2 (k - sum(min(p, p2))) unit moves apart.
    bands = []
    for k, level in enumerate(monomials[:-1]):
        overlap, half = 2 * k - max_index, k == max_index - 1
        bands.append([
            [p2 for p2, y in enumerate(level) if sum(map(min, x, y)) >= overlap and (p2 >= p or not half)]
            for p, x in enumerate(level)
        ])
    predecessors: list[list[tuple[int, int]]] = [[] for _ in monomials[-1]]
    for p, row in enumerate(successors[-1]):
        for a, q in enumerate(row):
            predecessors[q].append((p, a))
    below = bands[-1]
    pairings = [
        [
            [(below[p].index(p2), b, (1 if p2 == p else 2) * weights[-1][q]) for p2, b in predecessors[q] if p2 >= p]
            for q in row
        ]
        for p, row in enumerate(successors[-1])
    ]
    return successors, bands, pairings, weights


def _perm_coefficient_values(rows: list, max_index: int) -> tuple[int, ...]:
    """d_1..d_max_index of the Gram matrix of the integer rows of A, exactly, without forming it.

    d_i sums perm over the i x i principal submatrices of G = A^T A. With
    l_j(u) = sum_k a_kj u_k for column j and the linear functional
    L(u^mu v^nu) = mu! [mu = nu] (Wick pairing of complex Gaussians),

        sum_i d_i x^i = L(prod_j (1 + x l_j(u) l_j(v))).

    The product is truncated at degree max_index. Level k holds the
    coefficients M_k[p][p2] of u^p v^p2 (indexed by ``_monomial_tables``)
    as a dict of its nonzero rows. A column x maps M_k to T M_k T^T, T the
    successor table weighted by x, so (p, p2) reaches only
    (p + e_a, p2 + e_b), at most 2 unit moves nearer the diagonal, and every
    d_i is read off a diagonal. So level k keeps only its band, the p2
    within 2(max_index - k) moves of p, as a dense int list over the band's
    positions: each row moves through T, skipping zeros, and is gathered
    into the bands of t rows. M_k is symmetric, and the level below the top
    is read only by the top pairing, so it keeps the upper half p2 >= p.
    Repeated columns are grouped and enter as (1 + x l(u) l(v))^c. The top
    degree is never formed: d_max_index gains sum_q q! sum over (p, a),
    (p2, b) in pred(q) of x_a x_b M[p][p2], each off-diagonal pair counted
    twice. Cost: ``perm_coefficient_op_cost``.
    """
    if max_index == 0:
        return ()
    successors, bands, pairings, weights = _monomial_tables(len(rows), max_index)
    levels: list[dict[int, list[int]]] = [{0: [1]}] + [{} for _ in range(1, max_index)]
    top = 0
    for xs, count in Counter(zip(*rows)).items():
        terms = [(a, x) for a, x in enumerate(xs) if x]
        if not terms:
            continue
        # Highest source degree first: a chain from degree s writes only to
        # degrees above s, which have already been read as sources.
        for source in range(max_index - 1, -1, -1):
            poly, steps = levels[source], min(count, max_index - source)
            if not poly:
                continue
            for k in range(1, steps + 1):
                weight, degree = comb(count, k), source + k
                if degree == max_index:
                    pair_sum = 0
                    for p, row in poly.items():
                        pairing = pairings[p]
                        for a, x in terms:
                            part = 0
                            for at, b, f in pairing[a]:
                                y = xs[b]
                                if y:
                                    part += f * y * row[at]
                            pair_sum += x * part
                    top += weight * pair_sum
                    break
                # Below the top, a chain's last step is k = count, of weight 1,
                # so it writes into its level directly.
                last = k == steps
                target: dict[int, list[int]] = levels[degree] if last else {}
                succ, size = successors[degree - 1], len(weights[degree])
                source_band, band = bands[degree - 1], bands[degree]
                for p, row in poly.items():
                    moved = [0] * size
                    for p2, value in zip(source_band[p], row):
                        if value:
                            to = succ[p2]
                            for b, x in terms:
                                moved[to[b]] += x * value
                    to = succ[p]
                    for a, x in terms:
                        q = to[a]
                        out = target.get(q)
                        if out is None:
                            target[q] = [x * moved[j] for j in band[q]]
                        else:
                            for at, j in enumerate(band[q]):
                                value = moved[j]
                                if value:
                                    out[at] += x * value
                if not last:
                    level = levels[degree]
                    for q, row in target.items():
                        row = map(weight.__mul__, row)
                        level[q] = list(map(add, level[q], row)) if q in level else list(row)
                poly = target
    diagonal = [
        sum(weights[i][q] * row[band[q].index(q)] for q, row in levels[i].items())
        for i, band in enumerate(bands[1:], start=1)
    ]
    return tuple(diagonal) + (top,)


def _replicate_worker(args: tuple) -> tuple[tuple[int, ...], ...]:
    """One replicate from one draw of A: each kind's ints on its D-scaled rows, value i times D^(2i)."""
    model, n, max_index, kinds, wick, op_budget, stream_seed = args
    rows = sample_rows(model, n, Random(stream_seed))
    values = []
    for kind in kinds:
        if kind == "det":
            values.append(_char_coefficient_values(rows, max_index))
        elif wick:
            values.append(_perm_coefficient_values(rows, max_index))
        else:
            coeffs = permanental_poly_coeffs(_gram_entries(rows), max_index, op_budget=op_budget)
            values.append(tuple(v.numerator for v in coeffs[1:]))  # whole: the Gram matrix is integer
    return tuple(values)


def _aggregate(
    rows: Sequence[tuple[int, ...]], divisors: Sequence[int], exact_seq: ExpectedSequence
) -> tuple[CoefficientStats, ...]:
    """Statistics of the int values over their divisors C, from S1 = sum v and S2 = sum v^2.

    mean = S1 / (reps C), variance = (reps S2 - S1^2) / (reps (reps - 1) C^2).
    """
    reps = len(rows)
    stats = []
    for i, (values, c) in enumerate(zip(zip(*rows), divisors), start=1):
        s1, s2 = sum(values), sum(map(mul, values, values))
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


def _child_share(sender, work: list) -> None:
    """A child's share of ``_map_replicates``: one message, its results or the exception that stopped them."""
    try:
        message = [_replicate_worker(args) for args in work]
    except Exception as exc:
        message = exc
    sender.send(message)


def _map_replicates(threads: int, work: list) -> list:
    """``_replicate_worker`` over ``work``, in order, by this process and w - 1 children.

    w = min(threads, len(work), usable CPUs); at w = 1 this process runs
    everything. Otherwise child k runs work[k::w] and sends its results back
    once through a one-way pipe while this process runs work[0::w]. A
    child's exception is raised here, a child that exits without sending
    raises RuntimeError, and every child is stopped and joined before the
    call returns or raises.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    w = min(threads, len(work), cpus)
    if w <= 1:
        return [_replicate_worker(args) for args in work]
    from multiprocessing import Pipe, Process  # only runs with children pay for its import

    children = []
    try:
        for k in range(1, w):
            receiver, sender = Pipe(duplex=False)
            child = Process(target=_child_share, args=(sender, work[k::w]))
            child.start()
            children.append((child, receiver))
            sender.close()  # the child holds the only write end now, so its exit ends the pipe
        shares = [[_replicate_worker(args) for args in work[0::w]]]
        for child, receiver in children:
            try:
                shares.append(receiver.recv())
            except EOFError:
                child.join()
                raise RuntimeError(f"a replicate worker exited with code {child.exitcode} before sending") from None
            if isinstance(shares[-1], Exception):
                raise shares[-1]
    finally:
        for child, receiver in children:
            receiver.close()
            child.terminate()  # it has sent its share, or the call failed: either way it is done
            child.join()
    return [shares[r % w][r // w] for r in range(len(work))]


def simulate(config: SimulationConfig, *, threads: int = 1, op_budget: int = OP_BUDGET) -> SimulationReport:
    """Run the replicates and aggregate coefficient statistics.

    The permanental path and its op budget are settled by ``perm_by_wick``
    before any sampling starts, so a doomed run fails immediately.
    ``threads`` > 1 shares the replicates between this process and child
    processes, at most one per replicate and per usable CPU; the report is
    identical either way.
    """
    return _report(config, _map_replicates(threads, _replicate_work(config, op_budget)))


def _replicate_work(config: SimulationConfig, op_budget: int) -> list[tuple]:
    """The ``_replicate_worker`` arguments of each replicate of ``config``, in index order."""
    kinds = config.kinds
    wick = "perm" not in kinds or perm_by_wick(config.n, config.model.t, config.max_index, op_budget)
    return [
        (config.model, config.n, config.max_index, kinds, wick, op_budget, derive_seed(config.seed, r))
        for r in range(config.reps)
    ]


def _report(config: SimulationConfig, results: list) -> SimulationReport:
    """The report of ``config`` from its replicates' results, in index order."""
    kinds = config.kinds
    traces = traces_by_power(moment_matrix(config.model), config.max_index)
    recursions = {"det": expected_det_recursion, "perm": expected_perm_recursion}
    divisors = tuple(comb(config.n, i) * config.model.scale ** (2 * i) for i in range(1, config.max_index + 1))
    values = dict(zip(kinds, zip(*results)))
    stats = {
        kind: _aggregate(values[kind], divisors, recursions[kind](traces, config.max_index))
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
        values=values,
        divisors=divisors,
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

    One simulate run per n, each on its own derived seed stream, and one
    ``_map_replicates`` call for the replicates of every n, so a trend
    starts its child processes once. ``kind`` must be det or perm; a
    combined trajectory has no meaning here. Every n is validated, and its
    permanental path costed by ``_replicate_work``, before the first point
    is computed; a refusal names the smallest n over budget.
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
    work = [args for config in configs for args in _replicate_work(config, op_budget)]
    results = iter(_map_replicates(threads, work))
    return [
        (config.n, _report(config, list(islice(results, reps))).stats_for(kind)[index - 1].normalized_stddev)
        for config in configs
    ]
