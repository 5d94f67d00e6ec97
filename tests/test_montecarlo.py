import multiprocessing
import os
import signal
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial, lcm, prod, sqrt
from operator import mul
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramexpect import (
    DiscreteVectorDistribution,
    GuardExceeded,
    SimulationConfig,
    derive_seed,
    expected_det_recursion,
    expected_perm_recursion,
    moment_matrix,
    paper_model,
    retry_seed,
    simulate,
    stddev_trend,
    traces_by_power,
)
from gramexpect import montecarlo
from gramexpect.matrices import ExactMatrix, gram
from gramexpect.models import (
    CompoundCountModel,
    MultinomialCountModel,
    sample_columns,
    sample_rows,
    sample_vector,
)
from gramexpect.montecarlo import (
    CoefficientStats,
    SimulationReport,
    _aggregate,
    _char_coefficient_values,
    _monomial_tables,
    _row_gram,
    _perm_coefficient_values,
    check_sampling_draws,
    perm_by_wick,
    perm_coefficient_op_cost,
)
from gramexpect.oracles import (
    OP_BUDGET,
    char_poly_coeffs_of_gram,
    perm_ryser,
    permanental_op_cost,
    permanental_poly_coeffs,
)

from conftest import random_atoms_distribution

F = Fraction

TWO_ATOMS = DiscreteVectorDistribution.from_pairs(
    [((1, 0), "1/2"), ((1, 2), "1/2")]
)


class TestSeedSplitting:
    def test_deterministic(self):
        assert derive_seed(20240801, 0) == derive_seed(20240801, 0)

    def test_distinct_streams(self):
        seeds = {derive_seed(7, index) for index in range(2000)}
        assert len(seeds) == 2000

    def test_64_bit_range(self):
        for index in range(50):
            s = derive_seed(2**64 - 1, index)
            assert 0 <= s < 2**64

    def test_master_seed_matters(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_retry_stream_is_disjoint_from_replicates(self):
        retry = retry_seed(20240801)
        assert retry != 20240801
        assert all(derive_seed(20240801, r) != retry for r in range(1000))


@contextmanager
def deadline(seconds):
    """Fail the block with TimeoutError after ``seconds``, where SIGALRM exists, instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def count_children(monkeypatch) -> list:
    """The child processes ``_map_replicates`` starts from now on, listed as they start."""
    started, start = [], multiprocessing.Process.start

    def counting_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(multiprocessing.Process, "start", counting_start)
    return started


def sample_gram(model, n, rng):
    """G = A^T A of n freshly drawn columns."""
    return gram(ExactMatrix.from_rows(zip(*sample_columns(model, n, rng))))


class TestSampleGram:
    def test_deterministic_per_seed(self):
        a = sample_gram(paper_model(), 5, Random(11))
        b = sample_gram(paper_model(), 5, Random(11))
        assert a.entries == b.entries

    def test_empty(self):
        g = sample_gram(paper_model(), 0, Random(3))
        assert g.rows == 0

    def test_single_column_norm(self):
        rng = Random(5)
        g = sample_gram(TWO_ATOMS, 1, rng)
        w = sample_vector(TWO_ATOMS, Random(5))
        assert g.entries[0][0] == sum(x * x for x in w)

    def test_symmetric_with_nonnegative_diagonal(self):
        g = sample_gram(paper_model(), 6, Random(13))
        assert g == g.transpose()
        assert all(g.entries[i][i] >= 0 for i in range(6))


def ryser_coefficients(columns, max_index):
    """d_1..d_max_index of the columns' Gram matrix by the Ryser oracle."""
    g = gram(ExactMatrix.from_rows(zip(*columns)))
    return permanental_poly_coeffs(g, max_index)[1:]


def grouped_ryser_coefficients(columns, max_index):
    """d_1..d_max_index by Ryser, once per multiset of distinct columns.

    perm(G_S) depends only on the multiset of columns in S, and the i-subsets
    taking s of a column that occurs c times number prod C(c, s), so few
    distinct columns reach n far past the direct oracle's budget.
    """
    counts = Counter(columns)
    distinct = list(counts)
    values = []
    for i in range(1, max_index + 1):
        total = F(0)
        for choice in combinations_with_replacement(range(len(distinct)), i):
            weight = prod(comb(counts[distinct[k]], s) for k, s in Counter(choice).items())
            if weight:
                total += weight * perm_ryser(gram(ExactMatrix.from_rows(zip(*(distinct[k] for k in choice)))))
        values.append(total)
    return tuple(values)


def integer_rows(rows):
    """The rows scaled to ints by the lcm D of their entries' denominators (bytes rows as they are), and D."""
    scale = lcm(*(F(x).denominator for row in rows for x in row))
    return [row if isinstance(row, bytes) else tuple(int(x * scale) for x in row) for row in rows], scale


def unscaled(values, scale):
    """Coefficient i of D-scaled rows over D^(2i)."""
    return tuple(F(v, scale ** (2 * i)) for i, v in enumerate(values, start=1))


def sampled_values(report, kind):
    """Each replicate's b_i or d_i: ``replicates_for`` times C(n, i)."""
    return tuple(
        tuple(v * comb(report.n, i) for i, v in enumerate(row, start=1)) for row in report.replicates_for(kind)
    )


def assert_matches_ryser(columns, max_index):
    """The Wick kernel, fed the columns scaled to integer rows, against Ryser on the n x n Gram matrix."""
    rows, scale = integer_rows(list(zip(*columns)))
    values = _perm_coefficient_values(rows, max_index)
    assert all(type(v) is int for v in values)
    assert unscaled(values, scale) == ryser_coefficients(columns, max_index)


def assert_matches_char_poly(rows, max_index):
    """The integer det replicate, fed the rows of A scaled to ints, against Leverrier on the n x n Gram matrix."""
    scaled, scale = integer_rows(rows)
    values = _char_coefficient_values(scaled, max_index)
    assert all(type(v) is int for v in values)
    coeffs = char_poly_coeffs_of_gram(gram(ExactMatrix.from_rows(rows)))
    coeffs += (F(0),) * (max_index + 1 - len(coeffs))
    assert unscaled(values, scale) == coeffs[1 : max_index + 1]


class TestCharCoefficientValues:
    def test_rational_atom_columns(self):
        rng = Random(12)
        for _ in range(15):
            dist = random_atoms_distribution(rng, rng.randint(1, 4), rng.randint(1, 3))
            n = rng.randint(1, 7)
            columns = [sample_vector(dist, rng) for _ in range(n)]
            assert_matches_char_poly(list(zip(*columns)), rng.randint(1, n))

    def test_rational_columns_with_mixed_denominators(self):
        rng = Random(13)
        for _ in range(10):
            t, n = rng.randint(1, 4), rng.randint(1, 6)
            columns = [
                tuple(F(rng.randint(-5, 5), rng.choice((1, 2, 3, 6, 7))) for _ in range(t))
                for _ in range(n)
            ]
            assert_matches_char_poly(list(zip(*columns)), n)

    def test_count_columns_past_the_rank(self):
        rng = Random(14)
        columns = [sample_vector(paper_model(), rng) for _ in range(9)]
        assert_matches_char_poly(list(zip(*columns)), 9)  # b_5..b_9 vanish: rank <= t = 4
        assert_matches_char_poly([(0, 0, 0, 1), (0, 0, 0, 2), (0, 0, 0, 3)], 4)

    def test_max_index_zero(self):
        assert _char_coefficient_values([(F(1, 2),), (F(3),)], 0) == ()

    @pytest.mark.parametrize("top", [15, 16])
    @pytest.mark.parametrize("max_index", range(1, 8))
    def test_byte_rows_on_either_side_of_the_table_cut(self, top, max_index):
        # Counts up to 15 take the byte tables, 16 takes sum(map(mul)); odd
        # and even max_index use the <W^k, W^k> and <W^k, W^(k+1)> traces.
        rng = Random(100 * top + max_index)
        n = 9
        rows = [bytes(rng.choice((0, top, rng.randint(0, top))) for _ in range(n)) for _ in range(4)]
        rows[1] = bytes([top] * n)
        assert_matches_char_poly(rows, max_index)
        # Rank-deficient: a repeated row and a zero row leave rank 2.
        rows[2], rows[3] = rows[0], bytes(n)
        assert_matches_char_poly(rows, max_index)

    @pytest.mark.parametrize("ell", [1, 10, 15, 16, 40])
    def test_sampled_byte_rows(self, ell):
        model = MultinomialCountModel(ell=ell, probs=(F(3, 8), F(1, 4), F(1, 4), F(1, 8)))
        rows = sample_rows(model, 9, Random(ell))
        assert all(isinstance(row, bytes) for row in rows)
        assert_matches_char_poly(rows, 7)


class TestRowGram:
    @staticmethod
    def dot_products(rows):
        return [[sum(map(mul, a, b)) for b in rows] for a in rows]

    @pytest.mark.parametrize("top", [1, 10, 15])
    def test_byte_tables_equal_dot_products(self, top):
        rng = Random(top)
        for t, n in ((1, 1), (2, 3), (4, 400), (5, 1000)):
            rows = [bytes(rng.randint(0, top) for _ in range(n)) for _ in range(t)]
            rows[0] = bytes([top] * n)  # (15 << 4) + 15 = 255: the widest packed byte
            w = _row_gram(rows)
            assert w == self.dot_products(rows) == _row_gram([tuple(row) for row in rows])
            assert all(type(x) is int for row in w for x in row)

    def test_counts_of_16_need_the_dot_products(self):
        rows = [bytes([16, 3, 0]), bytes([16, 1, 15])]
        assert _row_gram(rows) == self.dot_products(rows) == [[265, 259], [259, 482]]

    def test_the_tables_run_exactly_when_every_count_is_below_16(self, monkeypatch):
        below = [bytes([15, 3, 0]), bytes([1, 1, 15])]
        # ell = 20 trials, yet every count of these rows stays below 16.
        sampled = sample_rows(MultinomialCountModel(ell=20, probs=(F(1, 4),) * 4), 9, Random(3))
        assert max(map(max, sampled)) < 16
        holding_16 = [bytes([16, 3, 0]), bytes([1, 1, 15])]
        as_tuples = [tuple(row) for row in below]
        cases = [below, sampled, holding_16, as_tuples]
        expected = [self.dot_products(rows) for rows in cases]
        # A zeroed product table zeroes every W_ij that the tables build.
        monkeypatch.setattr(montecarlo, "_PRODUCT", bytes(256))
        assert [_row_gram(rows) == w for rows, w in zip(cases, expected)] == [False, False, True, True]


class TestPermCoefficientValues:
    def test_seeded_paper_model_columns(self):
        for seed in range(4):
            rng = Random(seed)
            columns = [sample_vector(paper_model(), rng) for _ in range(8)]
            assert_matches_ryser(columns, 4)

    def test_integer_columns_with_negatives_and_zeros(self):
        rng = Random(7)
        for _ in range(10):
            t, n = rng.randint(1, 4), rng.randint(1, 7)
            columns = [tuple(rng.randint(-3, 3) for _ in range(t)) for _ in range(n)]
            columns[0] = (0,) * t
            assert_matches_ryser(columns, rng.randint(1, n))

    def test_rational_atom_columns(self):
        rng = Random(8)
        for _ in range(10):
            t, n = rng.randint(1, 3), rng.randint(1, 6)
            columns = [
                tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 3, 4))) for _ in range(t))
                for _ in range(n)
            ]
            assert_matches_ryser(columns, n)

    def test_heavily_repeated_columns(self):
        columns = [(1, 2, 0)] * 5 + [(F(-1, 2), 1, 3)] * 3 + [(2, 0, 1)]
        assert_matches_ryser(columns, 5)
        assert_matches_ryser([(2, -1)] * 7, 7)

    def test_edge_shapes(self):
        assert _perm_coefficient_values([(3,), (4,)], 0) == ()
        assert_matches_ryser([(3, 4)], 1)
        assert_matches_ryser([(1, -2), (3, 1), (0, 2)], 3)
        # Fewer columns than dimensions.
        assert_matches_ryser([(1, 2, 3, 4, 5), (-1, 0, 2, F(1, 3), 1)], 2)
        assert_matches_ryser([(0, 0)] * 3, 3)

    def test_six_dimensions_past_the_wick_estimate(self):
        # t = 6, n = 8, i = 6: the shape where the Wick and Ryser costs meet.
        for seed in range(2):
            rng = Random(seed)
            assert_matches_ryser([tuple(rng.randint(0, 3) for _ in range(6)) for _ in range(8)], 6)

    def test_band_trims_two_levels_at_i_6(self):
        # t = 3, i = 6: levels 4 and 5 keep only their bands, not just the level under the top.
        for seed in range(2):
            rng = Random(seed)
            assert_matches_ryser([tuple(rng.randint(-2, 3) for _ in range(3)) for _ in range(10)], 6)

    @pytest.mark.parametrize("t, n", [(2, 30), (3, 14)])
    def test_repeated_columns_through_the_trimmed_levels(self, t, n):
        # Four columns, each 3 or more times, through the banded levels 4 and 5
        # and the half band under the top; checked by Ryser once per multiset.
        rng = Random(10 * t + n)
        pool = [tuple(rng.randint(-2, 3) for _ in range(t)) for _ in range(4)]
        columns = [pool[k] for k in (0, 1, 2, 3) for _ in range(3)]
        columns += [rng.choice(pool) for _ in range(n - len(columns))]
        rng.shuffle(columns)
        assert len(columns) == n and min(Counter(columns).values()) >= 3
        rows, scale = integer_rows(list(zip(*columns)))
        assert unscaled(_perm_coefficient_values(rows, 6), scale) == grouped_ryser_coefficients(columns, 6)

    def test_grouped_ryser_is_ryser(self):
        columns = [(1, 2), (0, -1), (1, 2), (3, 1), (0, -1), (1, 2)]
        assert grouped_ryser_coefficients(columns, 6) == ryser_coefficients(columns, 6)

    def test_frozen_paper_replicate_at_n_400(self):
        # Out of Ryser's reach; frozen from the dict-of-dicts expansion this kernel replaced.
        rows = sample_rows(paper_model(), 400, Random(derive_seed(0, 0)))
        assert _perm_coefficient_values(rows, 4) == (14288, 168349176, 1922018074248, 21795016344773464)

    def test_frozen_paper_replicate_at_n_1000(self):
        # 162 distinct columns, one of them 29 times: counts far above max_index.
        # Frozen from the kernel that grouped repeated columns into binomial chains.
        rows = sample_rows(paper_model(), 1000, Random(derive_seed(0, 0)))
        assert _perm_coefficient_values(rows, 4) == (35684, 1052365167, 30120918688472, 857627360799747436)

    def test_column_repeated_past_max_index_beside_a_zero_column(self):
        columns = [(1, F(-1, 2), 2)] * 6 + [(0, 0, 0)] + [(2, 1, 0)]
        assert_matches_ryser(columns, 3)
        assert_matches_ryser(columns[5:] + columns[:5], 4)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_ryser_property(self, data):
        t = data.draw(st.integers(1, 5), label="t")
        n = data.draw(st.integers(1, 6), label="n")
        max_index = data.draw(st.integers(0, n), label="max_index")
        entry = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)
        # A pool of at most four columns, one of them zero, so repeats and zero columns occur.
        pool = data.draw(st.lists(st.tuples(*[entry] * t), min_size=1, max_size=3), label="pool")
        column = st.sampled_from(pool + [(0,) * t])
        columns = data.draw(st.lists(column, min_size=n, max_size=n), label="columns")
        assert_matches_ryser(columns, max_index)


class TestMonomialTables:
    @staticmethod
    def exponents(successors, t):
        """The exponent vectors of each degree, in index order, rebuilt from the successor table."""
        levels = [[(0,) * t]]
        for succ in successors:
            level = {q: p[:a] + (p[a] + 1,) + p[a + 1 :] for p, row in zip(levels[-1], succ) for a, q in enumerate(row)}
            levels.append([level[q] for q in range(len(level))])
        return levels

    @pytest.mark.parametrize("t, max_index", [(1, 3), (3, 1), (2, 6), (3, 6), (4, 4), (5, 3)])
    def test_bands_and_pairings_match_their_definition(self, t, max_index):
        successors, bands, pairings, weights = _monomial_tables(t, max_index)
        levels = self.exponents(successors, t)
        assert weights == [[prod(map(factorial, q)) for q in level] for level in levels]
        # Level k keeps the p2 within 2(i - k) unit moves of p, and at k = i - 1 only p2 >= p.
        for k, monomials in enumerate(levels[:-1]):
            for p, x in enumerate(monomials):
                moves = [sum(abs(a - b) for a, b in zip(x, y)) for y in monomials]
                kept = [p2 for p2, m in enumerate(moves) if m <= 2 * (max_index - k) and (k < max_index - 1 or p2 >= p)]
                assert bands[k][p] == kept
        # The top pairs (p, a) with every (p2, b), p2 >= p, that reaches the same q, twice off the diagonal.
        below, top = successors[-1], weights[-1]
        for p, row in enumerate(below):
            for a, q in enumerate(row):
                expected = [
                    (bands[-1][p].index(p2), b, (1 if p2 == p else 2) * top[q])
                    for p2 in range(p, len(below))
                    for b in range(t)
                    if below[p2][b] == q
                ]
                assert sorted(pairings[p][a]) == sorted(expected)


def outcomes(model):
    """The (column, probability) pairs of an atoms model or a multinomial, columns in the model's own values."""
    if isinstance(model, DiscreteVectorDistribution):
        return list(model.atoms)
    # Each sorted choice of t - 1 cut points in 0..ell splits the ell trials into one count vector.
    cuts = combinations_with_replacement(range(model.ell + 1), model.t - 1)
    columns = [tuple(b - a for a, b in zip((0,) + c, c + (model.ell,))) for c in cuts]
    return [(x, factorial(model.ell) * prod(p**k / factorial(k) for p, k in zip(model.probs, x))) for x in columns]


EXACT_MODELS = {
    "integer-atoms": DiscreteVectorDistribution.from_pairs(
        [((1, 0, 2), "1/2"), ((0, 3, 1), "1/3"), ((2, 1, 1), "1/6")]
    ),
    # D = 6: the rows are six times the columns.
    "signed-rational-atoms": DiscreteVectorDistribution.from_pairs(
        [((1, "-1/2", 0), "1/4"), (("2/3", 0, -1), "1/4"), ((-2, "1/3", "5/2"), "1/2")]
    ),
    "multinomial-ell-2-t-2": MultinomialCountModel(ell=2, probs=(F(1, 3), F(2, 3))),
}


class TestExactAverages:
    """E(b_i) = C(n,i) a_i and E(d_i) = C(n,i) p_i exactly, summed over every column multiset of n draws.

    A multiset with counts c_k of the outcomes has probability n! prod p_k^c_k / c_k!. Its rows, D
    times its columns as ``sample_rows`` gives them, go through the real ``_replicate_worker``, whose
    ints are D^(2i) times the values.
    """

    # Ryser at n = 8 takes about 5 s a model, so only the Wick path runs there.
    @pytest.mark.parametrize(
        "n, wick", [(3, True), (6, True), (8, True), (3, False), (6, False)], ids=["3", "6", "8", "3-ryser", "6-ryser"]
    )
    @pytest.mark.parametrize("model", EXACT_MODELS.values(), ids=EXACT_MODELS.keys())
    def test_replicates_average_to_the_exact_values(self, monkeypatch, model, n, wick):
        pairs = outcomes(model)
        assert sum(p for _, p in pairs) == 1
        sums = {"det": [F(0)] * n, "perm": [F(0)] * n}
        for choice in combinations_with_replacement(range(len(pairs)), n):
            counts = Counter(choice)
            weight = factorial(n) * prod(pairs[k][1] ** c / factorial(c) for k, c in counts.items())
            rows = list(zip(*(tuple(int(model.scale * x) for x in pairs[k][0]) for k in choice)))
            monkeypatch.setattr(montecarlo, "sample_rows", lambda *args, rows=rows: rows)
            det, perm = montecarlo._replicate_worker((model, n, n, ("det", "perm"), wick, OP_BUDGET, 0))
            for kind, values in (("det", det), ("perm", perm)):
                sums[kind] = [s + weight * v for s, v in zip(sums[kind], values)]
        traces = traces_by_power(moment_matrix(model), n)
        exact = {"det": expected_det_recursion(traces, n), "perm": expected_perm_recursion(traces, n)}
        for kind in ("det", "perm"):
            assert sums[kind] == [comb(n, i) * model.scale ** (2 * i) * exact[kind][i] for i in range(1, n + 1)]


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        model = paper_model()
        with pytest.raises(ValueError):
            SimulationConfig(model, n=-1, reps=5, max_index=0, kind="det", seed=0)
        with pytest.raises(ValueError):
            SimulationConfig(model, n=4, reps=0, max_index=2, kind="det", seed=0)
        with pytest.raises(ValueError):
            SimulationConfig(model, n=4, reps=5, max_index=5, kind="det", seed=0)
        with pytest.raises(ValueError):
            SimulationConfig(model, n=4, reps=5, max_index=2, kind="minors", seed=0)
        with pytest.raises(ValueError):
            SimulationConfig(model, n=4, reps=5, max_index=2, kind="det", seed=2**64)

    def test_kind_flags(self):
        cfg = SimulationConfig(paper_model(), n=4, reps=1, max_index=2, kind="both", seed=0)
        assert cfg.kinds == ("det", "perm")
        for kind in ("det", "perm"):
            assert SimulationConfig(paper_model(), n=4, reps=1, max_index=2, kind=kind, seed=0).kinds == (kind,)


class TestReplicateValues:
    def test_det_replicates_match_char_poly_oracle(self):
        cfg = SimulationConfig(TWO_ATOMS, n=5, reps=6, max_index=4, kind="det", seed=99)
        report = simulate(cfg)
        rows = report.replicates_for("det")
        for r in range(cfg.reps):
            rng = Random(derive_seed(cfg.seed, r))
            columns = [sample_vector(cfg.model, rng) for _ in range(cfg.n)]
            g = ExactMatrix.from_rows(
                [[sum(a * b for a, b in zip(u, v)) for v in columns] for u in columns]
            )
            coeffs = char_poly_coeffs_of_gram(g)
            for i in range(1, cfg.max_index + 1):
                assert rows[r][i - 1] == coeffs[i] / comb(cfg.n, i)

    @pytest.mark.parametrize("ell", [10, 15, 16, 40])
    def test_det_replicates_of_byte_rows_match_char_poly_oracle(self, ell):
        model = MultinomialCountModel(ell=ell, probs=(F(1, 2), F(1, 3), F(1, 6)))
        cfg = SimulationConfig(model, n=6, reps=3, max_index=4, kind="both", seed=ell)
        rows = simulate(cfg).replicates_for("det")
        for r in range(cfg.reps):
            columns = sample_columns(model, cfg.n, Random(derive_seed(cfg.seed, r)))
            coeffs = char_poly_coeffs_of_gram(gram(ExactMatrix.from_rows(zip(*columns))))
            assert rows[r] == tuple(coeffs[i] / comb(cfg.n, i) for i in range(1, cfg.max_index + 1))

    def test_perm_replicates_match_permanental_oracle(self):
        cfg = SimulationConfig(TWO_ATOMS, n=5, reps=4, max_index=3, kind="perm", seed=42)
        report = simulate(cfg)
        rows = report.replicates_for("perm")
        for r in range(cfg.reps):
            rng = Random(derive_seed(cfg.seed, r))
            columns = [sample_vector(cfg.model, rng) for _ in range(cfg.n)]
            g = ExactMatrix.from_rows(
                [[sum(a * b for a, b in zip(u, v)) for v in columns] for u in columns]
            )
            coeffs = permanental_poly_coeffs(g, cfg.max_index)
            for i in range(1, cfg.max_index + 1):
                assert rows[r][i - 1] == coeffs[i] / comb(cfg.n, i)

    def test_perm_replicate_values_are_fractions(self):
        cfg = SimulationConfig(paper_model(), n=30, reps=3, max_index=4, kind="both", seed=3)
        report = simulate(cfg)
        for kind in ("det", "perm"):
            for row in report.replicates_for(kind):
                assert all(type(v) is Fraction for v in row)

    def test_both_kinds_share_one_column_draw(self):
        cfg = SimulationConfig(TWO_ATOMS, n=4, reps=3, max_index=2, kind="both", seed=7)
        report = simulate(cfg)
        det_only = simulate(
            SimulationConfig(TWO_ATOMS, n=4, reps=3, max_index=2, kind="det", seed=7)
        )
        perm_only = simulate(
            SimulationConfig(TWO_ATOMS, n=4, reps=3, max_index=2, kind="perm", seed=7)
        )
        assert report.replicates_for("det") == det_only.replicates_for("det")
        assert report.replicates_for("perm") == perm_only.replicates_for("perm")

    def test_rank_bound_zeroes_are_exact(self):
        # Columns live in dimension 2, so b_3, b_4, b_5 vanish identically.
        cfg = SimulationConfig(TWO_ATOMS, n=6, reps=5, max_index=5, kind="det", seed=17)
        report = simulate(cfg)
        for row in report.replicates_for("det"):
            assert row[2] == 0 and row[3] == 0 and row[4] == 0
        for stats in report.stats_for("det")[2:]:
            assert stats.normalized_mean == 0.0
            assert stats.exact_value == 0

    @pytest.mark.parametrize(
        "model",
        [
            TWO_ATOMS,
            CompoundCountModel(probs=(F(1, 2), F(1, 4), F(1, 4)), ell_law=((1, F(1, 2)), (3, F(1, 2)))),
        ],
        ids=["atoms", "compound"],
    )
    def test_perm_only_replicates_follow_the_column_stream(self, model):
        cfg = SimulationConfig(model, n=6, reps=3, max_index=3, kind="perm", seed=11)
        report = simulate(cfg)
        for r, row in enumerate(sampled_values(report, "perm")):
            columns = sample_columns(model, cfg.n, Random(derive_seed(cfg.seed, r)))
            rows, scale = integer_rows(list(zip(*columns)))
            assert row == unscaled(_perm_coefficient_values(rows, cfg.max_index), scale)

    def test_raw_values_and_their_normalization(self):
        cfg = SimulationConfig(paper_model(), n=5, reps=3, max_index=3, kind="both", seed=21)
        report = simulate(cfg)
        for r in range(cfg.reps):
            columns = sample_columns(cfg.model, cfg.n, Random(derive_seed(cfg.seed, r)))
            g = gram(ExactMatrix.from_rows(zip(*columns)))
            assert sampled_values(report, "det")[r] == char_poly_coeffs_of_gram(g)[1 : cfg.max_index + 1]
            assert sampled_values(report, "perm")[r] == permanental_poly_coeffs(g, cfg.max_index)[1:]
        assert report.divisors == tuple(comb(cfg.n, i) * cfg.model.scale ** (2 * i) for i in (1, 2, 3))
        for kind in cfg.kinds:
            assert all(type(v) is int for row in report.values[kind] for v in row)

    @pytest.mark.parametrize("kind", ["det", "perm", "both"])
    @pytest.mark.parametrize("model", [paper_model(), TWO_ATOMS], ids=["paper", "atoms"])
    def test_zero_columns_give_empty_replicates(self, model, kind):
        cfg = SimulationConfig(model, n=0, reps=3, max_index=0, kind=kind, seed=5)
        report = simulate(cfg)
        assert report.stats == {k: () for k in cfg.kinds}
        assert {k: report.replicates_for(k) for k in cfg.kinds} == {k: ((),) * cfg.reps for k in cfg.kinds}

    def test_report_metadata(self):
        cfg = SimulationConfig(TWO_ATOMS, n=3, reps=2, max_index=1, kind="det", seed=5)
        report = simulate(cfg)
        assert (report.n, report.reps, report.seed) == (3, 2, 5)
        assert report.mode == "exact"
        assert "perm" not in report.stats
        assert "perm" not in report.values
        with pytest.raises(ValueError):
            report.stats_for("perm")
        with pytest.raises(ValueError):
            report.replicates_for("perm")


def reference_aggregate(raw_rows, n, max_index, exact_seq):
    """The Fraction mean and squared-deviation variance of the normalized values."""
    reps = len(raw_rows)
    normalized = tuple(tuple(row[i - 1] / comb(n, i) for i in range(1, max_index + 1)) for row in raw_rows)
    stats = []
    for i in range(1, max_index + 1):
        values = [row[i - 1] for row in normalized]
        mean = sum(values, F(0)) / reps
        stddev = None
        if reps > 1:
            stddev = sqrt(float(sum(((v - mean) ** 2 for v in values), F(0)) / (reps - 1)))
        z = float(mean - exact_seq[i]) / (stddev / sqrt(reps)) if stddev else None
        stats.append(CoefficientStats(i, float(mean), stddev, exact_seq[i], z))
    return tuple(stats), normalized


class TestAggregation:
    # Replicate ints and the model's scale D: the values are v_i / D^(2i).
    @pytest.mark.parametrize(
        "rows, scale",
        [
            ([(v, v * v - 3) for v in (17, 4, 250, 9, 33, 0, 12)], 1),
            ([(v, -v) for v in (1, 5, 2, 8, 13)], 3),
            ([(2, 64), (28, 64), (-3, -128)], 2),
            ([(12, 7)], 3),
            ([(17, -3), (4, 250)], 1),
            ([(24, 40)] * 4, 2),
        ],
        ids=["ints", "denominators", "mixed", "one-replicate", "two-replicates", "constant"],
    )
    def test_exact_sums_equal_the_fraction_formula(self, rows, scale):
        exact_seq = [F(1), F(11, 2), F(-3)]
        raw_rows = [tuple(F(v, scale ** (2 * i)) for i, v in enumerate(row, start=1)) for row in rows]
        divisors = tuple(comb(7, i) * scale ** (2 * i) for i in (1, 2))
        stats = _aggregate(rows, divisors, exact_seq)
        report = SimulationReport(
            n=7, reps=len(rows), seed=0, max_index=2, kind="det", mode="exact",
            stats={"det": stats}, values={"det": tuple(rows)}, divisors=divisors,
        )
        normalized = report.replicates_for("det")
        assert (stats, normalized) == reference_aggregate(raw_rows, 7, 2, exact_seq)
        if len(set(raw_rows)) == 1:
            assert all(s.z_score is None for s in stats)

    def test_stats_recomputable_from_replicates(self):
        cfg = SimulationConfig(paper_model(), n=8, reps=10, max_index=3, kind="det", seed=314)
        report = simulate(cfg)
        rows = report.replicates_for("det")
        traces = traces_by_power(moment_matrix(cfg.model), cfg.max_index)
        exact_seq = expected_det_recursion(traces, cfg.max_index)
        for i in range(1, cfg.max_index + 1):
            values = [row[i - 1] for row in rows]
            mean = sum(values, F(0)) / cfg.reps
            variance = sum(((v - mean) ** 2 for v in values), F(0)) / (cfg.reps - 1)
            stddev = sqrt(float(variance))
            stats = report.stats_for("det")[i - 1]
            assert stats.index == i
            assert stats.normalized_mean == float(mean)
            assert stats.normalized_stddev == stddev
            assert stats.exact_value == exact_seq[i]
            if stddev:
                assert stats.z_score == float(mean - exact_seq[i]) / (stddev / sqrt(cfg.reps))
            else:
                assert stats.z_score is None

    def test_degenerate_model_has_zero_spread(self):
        point = DiscreteVectorDistribution.from_pairs([((1, 2), 1)])
        cfg = SimulationConfig(point, n=6, reps=5, max_index=2, kind="det", seed=1)
        report = simulate(cfg)
        b1 = report.stats_for("det")[0]
        assert b1.normalized_stddev == 0.0
        assert b1.z_score is None
        assert b1.normalized_mean == float(b1.exact_value) == 5.0

    def test_single_replicate_has_no_stddev(self):
        cfg = SimulationConfig(TWO_ATOMS, n=4, reps=1, max_index=2, kind="det", seed=2)
        stats = simulate(cfg).stats_for("det")[0]
        assert stats.normalized_stddev is None
        assert stats.z_score is None


class TestParallelism:
    def test_thread_count_never_changes_the_report(self):
        cfg = SimulationConfig(paper_model(), n=10, reps=12, max_index=4, kind="both", seed=628)
        assert simulate(cfg, threads=1) == simulate(cfg, threads=2)

    @pytest.mark.parametrize(
        "threads, reps, cpus, children",
        [
            (10**6, 6, 4, 3),
            (10**6, 3, 64, 2),
            (2, 100, 2, 1),  # simulate-det-par: one child and this process
            (10**6, 5, 1, 0),  # one worker runs in this process
        ],
    )
    def test_the_pool_never_outgrows_the_replicates_or_the_cpus(self, monkeypatch, threads, reps, cpus, children):
        cfg = SimulationConfig(paper_model(), n=5, reps=reps, max_index=2, kind="both", seed=reps)
        single = simulate(cfg, threads=1)
        started = count_children(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert simulate(cfg, threads=threads) == single
        assert len(started) == children
        assert multiprocessing.active_children() == []

    def test_usable_cpus_bound_the_workers(self, monkeypatch):
        cfg = SimulationConfig(paper_model(), n=5, reps=4, max_index=2, kind="det", seed=3)
        single = simulate(cfg, threads=1)
        started = count_children(monkeypatch)
        # One usable CPU of four installed, as under taskset -c 0: no child.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert simulate(cfg, threads=2) == single
        assert started == []
        # Without an affinity call the installed count bounds them.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert simulate(cfg, threads=3) == single
        assert len(started) == 2

    def test_a_child_exception_is_raised_with_its_type(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        cfg = SimulationConfig(paper_model(), n=5, reps=6, max_index=2, kind="perm", seed=0)
        work = montecarlo._replicate_work(cfg, OP_BUDGET)
        # Replicate 1 falls to the first of two children and takes the Ryser path on a budget of one op.
        work[1] = work[1][:4] + (False, 1) + work[1][6:]
        with deadline(60), pytest.raises(GuardExceeded, match="permanental_poly_coeffs guard"):
            montecarlo._map_replicates(3, work)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="children see the patch only by fork")
    def test_a_child_that_exits_without_sending_raises(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        parent, worker = os.getpid(), montecarlo._replicate_worker

        def dies_in_a_child(args):
            return worker(args) if os.getpid() == parent else os._exit(7)

        monkeypatch.setattr(montecarlo, "_replicate_worker", dies_in_a_child)
        cfg = SimulationConfig(paper_model(), n=5, reps=4, max_index=2, kind="det", seed=0)
        with deadline(60), pytest.raises(RuntimeError, match="exited with code 7 before sending"):
            simulate(cfg, threads=2)
        assert multiprocessing.active_children() == []

    def test_thread_validation(self):
        cfg = SimulationConfig(TWO_ATOMS, n=2, reps=1, max_index=1, kind="det", seed=0)
        with pytest.raises(ValueError):
            simulate(cfg, threads=0)


class TestGuard:
    @pytest.mark.parametrize(
        "model, n, draws",
        [
            (TWO_ATOMS, 40, 40),
            (paper_model(), 400, 4000),
            (MultinomialCountModel(ell=0, probs=(F(1),)), 400, 0),
            (CompoundCountModel(probs=(F(1, 2), F(1, 2)), ell_law=((1, F(1, 2)), (9, F(1, 2)))), 30, 300),
        ],
        ids=["atoms", "multinomial", "ell-zero", "compound"],
    )
    def test_sampling_draws_checked_against_budget(self, model, n, draws):
        check_sampling_draws(model, n, draws)
        check_sampling_draws(model, n, OP_BUDGET)
        if draws:
            with pytest.raises(GuardExceeded, match="before sampling"):
                check_sampling_draws(model, n, draws - 1)

    def test_permanental_budget_checked_before_sampling(self):
        cfg = SimulationConfig(paper_model(), n=60, reps=10**9, max_index=20, kind="perm", seed=0)
        with pytest.raises(GuardExceeded) as err:
            simulate(cfg, op_budget=10**6)
        assert "before sampling" in str(err.value)

    def test_cost_is_cumulative_and_monotone(self):
        costs = perm_coefficient_op_cost(60, 4, 5)
        # t^2 (60 + 59 * 16 + 58 * 100 + 57 * 400 + 56 * 1225) summed index by index.
        assert costs == [960, 16064, 108864, 473664, 1571264]
        # At t <= 2 a coefficient costs 2t + 1, not t^2: 3 (60 + 59 + ...) and 5 (60 + 59 * 4 + 58 * 9 + ...).
        assert perm_coefficient_op_cost(60, 1, 5) == [180, 357, 531, 702, 870]
        assert perm_coefficient_op_cost(60, 2, 5) == [300, 1480, 4090, 8650, 15650]
        for n in (6, 12, 200):
            for t in (1, 2, 4):
                costs = perm_coefficient_op_cost(n, t, 6)
                assert len(costs) == 6 and all(a < b for a, b in zip(costs, costs[1:]))
                assert all(a < b for a, b in zip(costs, perm_coefficient_op_cost(n + 1, t, 6)))
        assert perm_coefficient_op_cost(5, 4, 0) == []

    def test_perm_budget_reaches_hundreds_of_columns(self):
        assert perm_by_wick(400, 4, 4, OP_BUDGET)
        with pytest.raises(GuardExceeded, match=r"index i = 5 at n = 60"):
            perm_by_wick(60, 4, 20, 10**6)

    def test_no_run_refused_that_ryser_accepts(self):
        for budget in (10**5, OP_BUDGET):
            for t in range(1, 11):
                for n in range(1, 17):
                    for i in range(1, n + 1):
                        wick_fits = perm_coefficient_op_cost(n, t, i)[-1] <= budget
                        if permanental_op_cost(n, i)[-1] <= budget:
                            assert perm_by_wick(n, t, i, budget) == wick_fits  # Wick whenever it fits
                        elif wick_fits:
                            assert perm_by_wick(n, t, i, budget)
                        else:
                            with pytest.raises(GuardExceeded):
                                perm_by_wick(n, t, i, budget)

    def test_few_columns_in_many_dimensions_run_ryser(self):
        dist = random_atoms_distribution(Random(4), 3, 8)
        assert not perm_by_wick(6, 8, 6, OP_BUDGET)
        cfg = SimulationConfig(dist, n=6, reps=2, max_index=6, kind="perm", seed=5)
        rows = simulate(cfg).replicates_for("perm")
        for r in range(cfg.reps):
            rng = Random(derive_seed(cfg.seed, r))
            columns = [sample_vector(dist, rng) for _ in range(cfg.n)]
            expected = ryser_coefficients(columns, cfg.max_index)
            assert rows[r] == tuple(d / comb(cfg.n, i) for i, d in enumerate(expected, start=1))

    def test_det_path_has_no_permanental_guard(self):
        cfg = SimulationConfig(TWO_ATOMS, n=40, reps=2, max_index=6, kind="det", seed=0)
        report = simulate(cfg, op_budget=1)
        assert report.stats_for("det")[0].normalized_mean > 0


class TestTrend:
    def test_points_and_per_n_seeding(self):
        points = stddev_trend(TWO_ATOMS, [4, 8], reps=6, index=2, kind="det", seed=55)
        assert [n for n, _ in points] == [4, 8]
        direct = simulate(
            SimulationConfig(TWO_ATOMS, n=8, reps=6, max_index=2, kind="det", seed=derive_seed(55, 8))
        )
        assert points[1][1] == direct.stats_for("det")[1].normalized_stddev

    @pytest.mark.parametrize("kind", ["det", "perm"])
    def test_a_pooled_trend_starts_one_pool_and_equals_the_serial_one(self, monkeypatch, kind):
        serial = stddev_trend(paper_model(), [4, 6, 8], reps=3, index=1, kind=kind, seed=5)
        started = count_children(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        # Three workers over all nine replicates: two children for the whole trend.
        assert stddev_trend(paper_model(), [4, 6, 8], reps=3, index=1, kind=kind, seed=5, threads=3) == serial
        assert len(started) == 2
        assert multiprocessing.active_children() == []

    def test_perm_run_costed_at_its_largest_n_before_any_point(self, monkeypatch):
        import gramexpect.montecarlo as montecarlo

        def no_sampling(*args):
            raise AssertionError("a point was computed before the run was costed")

        monkeypatch.setattr(montecarlo, "_replicate_worker", no_sampling)
        with pytest.raises(GuardExceeded, match="n = 3000"):
            stddev_trend(paper_model(), [100, 400, 3000], reps=20, index=4, kind="perm", seed=0)

    def test_every_n_validated_before_any_point(self, monkeypatch):
        import gramexpect.montecarlo as montecarlo

        monkeypatch.setattr(montecarlo, "_replicate_worker", None)
        with pytest.raises(ValueError, match="^coefficient index must be <= the smallest n, got 4 with n = 2$"):
            stddev_trend(paper_model(), [2, 3000], reps=2, index=4, kind="perm", seed=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            stddev_trend(TWO_ATOMS, [4, 8], reps=2, index=1, kind="both", seed=0)
        with pytest.raises(ValueError):
            stddev_trend(TWO_ATOMS, [8, 4], reps=2, index=1, kind="det", seed=0)
        with pytest.raises(ValueError):
            stddev_trend(TWO_ATOMS, [4, 4], reps=2, index=1, kind="det", seed=0)
        with pytest.raises(ValueError):
            stddev_trend(TWO_ATOMS, [], reps=2, index=1, kind="det", seed=0)
        with pytest.raises(ValueError):
            stddev_trend(TWO_ATOMS, [4], reps=2, index=0, kind="det", seed=0)

    def test_index_above_the_smallest_n_refused_in_its_own_words(self):
        # SimulationConfig's refusal named its max_index field, not the trend's index.
        with pytest.raises(ValueError, match="^coefficient index must be <= the smallest n, got 3 with n = 2$"):
            stddev_trend(TWO_ATOMS, [2, 3], reps=2, index=3, kind="det", seed=0)
        assert [n for n, _ in stddev_trend(TWO_ATOMS, [3, 4], reps=2, index=3, kind="det", seed=0)] == [3, 4]

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_seed_outside_64_bits_refused_before_any_work(self, monkeypatch, seed):
        # 2^64 used to wrap silently onto the streams of seed 0.
        import gramexpect.montecarlo as montecarlo

        monkeypatch.setattr(montecarlo, "_replicate_worker", None)
        with pytest.raises(ValueError, match="64 bits"):
            stddev_trend(paper_model(), [5, 9], reps=3, index=2, kind="det", seed=seed)

    def test_one_replicate_refused_before_any_work(self, monkeypatch):
        # One replicate has no sample standard deviation; it used to print 0.
        import gramexpect.montecarlo as montecarlo

        monkeypatch.setattr(montecarlo, "_replicate_worker", None)
        with pytest.raises(ValueError, match="reps >= 2"):
            stddev_trend(paper_model(), [5, 8], reps=1, index=2, kind="det", seed=0)
