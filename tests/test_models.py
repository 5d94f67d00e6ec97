import ast
import pickle
import tracemalloc
from fractions import Fraction
from math import lcm
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramexpect import (
    CompoundCountModel,
    DiscreteVectorDistribution,
    InvalidModelError,
    MultinomialCountModel,
    moment_matrix,
    paper_model,
)
from gramexpect import ExactMatrix, models
from gramexpect.models import (
    CategoricalSampler,
    MomentMatrix,
    model_from_json_str,
    model_to_dict,
    moment_matrix_compound,
    moment_matrix_from_atoms,
    moment_matrix_multinomial,
    sample_columns,
    sample_rows,
    sample_vector,
)
from gramexpect.scalars import canonical_json

from conftest import random_atoms_distribution, random_prob_vector

F = Fraction

# Second-moment matrix of the built-in example model, entries checked by
# hand against ell(ell-1) p_i p_j + ell p_i delta_ij at ell=10.
PAPER_MOMENTS = (
    (F(525, 32), F(135, 16), F(135, 16), F(135, 32)),
    (F(135, 16), F(65, 8), F(45, 8), F(45, 16)),
    (F(135, 16), F(45, 8), F(65, 8), F(45, 16)),
    (F(135, 32), F(45, 16), F(45, 16), F(85, 32)),
)


def prob_vectors(max_len=4):
    return st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=max_len).map(
        lambda ws: tuple(F(w, sum(ws)) for w in ws)
    )


class TestValidation:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(InvalidModelError):
            MultinomialCountModel(ell=2, probs=(F(1, 2), F(1, 4)))

    def test_probs_must_be_nonnegative(self):
        with pytest.raises(InvalidModelError):
            MultinomialCountModel(ell=2, probs=(F(3, 2), F(-1, 2)))

    def test_ell_must_be_nonnegative_integer(self):
        with pytest.raises(InvalidModelError):
            MultinomialCountModel(ell=-1, probs=(F(1),))
        with pytest.raises(InvalidModelError):
            MultinomialCountModel(ell="3", probs=(F(1),))

    def test_ell_zero_is_allowed(self):
        model = MultinomialCountModel(ell=0, probs=(F(1, 2), F(1, 2)))
        assert moment_matrix(model).entries == ((F(0), F(0)), (F(0), F(0)))

    def test_atom_vectors_must_share_dimension(self):
        with pytest.raises(InvalidModelError):
            DiscreteVectorDistribution.from_pairs([((1, 0), "1/2"), ((1,), "1/2")])

    def test_compound_ells_distinct_nonnegative(self):
        with pytest.raises(InvalidModelError):
            CompoundCountModel(probs=(F(1),), ell_law=((2, F(1, 2)), (2, F(1, 2))))
        with pytest.raises(InvalidModelError):
            CompoundCountModel(probs=(F(1),), ell_law=((-1, F(1)),))

    def test_moment_matrix_must_be_symmetric(self):
        with pytest.raises(InvalidModelError):
            MomentMatrix(((F(1), F(2)), (F(3), F(1))))

    def test_moment_matrix_rejects_negative_char_coefficient(self):
        # Symmetric with nonnegative diagonal but eigenvalues 3 and -1,
        # so c_2 = det = -3 < 0: fails the necessary PSD condition.
        with pytest.raises(InvalidModelError):
            MomentMatrix(((F(1), F(2)), (F(2), F(1))))


class TestMomentMatrixFromAtoms:
    def test_single_deterministic_atom(self):
        dist = DiscreteVectorDistribution.from_pairs([((1,), 1)])
        assert moment_matrix_from_atoms(dist).entries == ((F(1),),)

    def test_two_basis_atoms(self):
        dist = DiscreteVectorDistribution.from_pairs([((1, 0), "1/2"), ((0, 1), "1/2")])
        assert moment_matrix_from_atoms(dist).entries == ((F(1, 2), F(0)), (F(0), F(1, 2)))

    def test_hand_summed_example(self):
        dist = DiscreteVectorDistribution.from_pairs([((1, 1), "1/3"), ((2, 0), "2/3")])
        assert moment_matrix_from_atoms(dist).entries == ((F(3), F(1, 3)), (F(1, 3), F(1, 3)))

    def test_always_symmetric(self):
        rng = Random(3)
        for _ in range(25):
            dist = random_atoms_distribution(rng, rng.randint(1, 4), rng.randint(1, 4))
            m = moment_matrix_from_atoms(dist)
            assert m.entries == m.transpose().entries


class TestMomentMatrixMultinomial:
    def test_paper_entry_and_trace(self):
        m = moment_matrix_multinomial(paper_model())
        assert m.entries == PAPER_MOMENTS
        assert m.trace() == F(565, 16)

    def test_ell_one_is_diagonal(self):
        m = moment_matrix_multinomial(MultinomialCountModel(ell=1, probs=(F(1, 4), F(3, 4))))
        assert m.entries == ((F(1, 4), F(0)), (F(0), F(3, 4)))

    @given(prob_vectors(), st.integers(min_value=0, max_value=12))
    @settings(max_examples=60)
    def test_trace_identity(self, probs, ell):
        m = moment_matrix_multinomial(MultinomialCountModel(ell=ell, probs=probs))
        expected = ell * (ell - 1) * sum(p * p for p in probs) + ell
        assert m.trace() == expected


class TestMomentMatrixCompound:
    def test_one_point_law_degenerates_to_multinomial(self):
        probs = (F(3, 8), F(1, 4), F(1, 4), F(1, 8))
        compound = CompoundCountModel(probs=probs, ell_law=((10, F(1)),))
        fixed = MultinomialCountModel(ell=10, probs=probs)
        assert moment_matrix_compound(compound).entries == moment_matrix_multinomial(fixed).entries

    def test_hand_weighted_average(self):
        model = CompoundCountModel(
            probs=(F(1, 2), F(1, 2)), ell_law=((1, F(1, 2)), (2, F(1, 2)))
        )
        m = moment_matrix_compound(model)
        assert m.entries[0][0] == F(1)

    def test_zero_law_gives_zero_matrix(self):
        model = CompoundCountModel(probs=(F(1, 2), F(1, 2)), ell_law=((0, F(1)),))
        assert moment_matrix_compound(model).entries == ((F(0), F(0)), (F(0), F(0)))

    def test_mixture_is_entrywise_average(self):
        rng = Random(5)
        for _ in range(10):
            probs = random_prob_vector(rng, rng.randint(1, 3))
            ells = sorted(rng.sample(range(8), 2))
            law = random_prob_vector(rng, 2)
            model = CompoundCountModel(probs=probs, ell_law=tuple(zip(ells, law)))
            mixed = moment_matrix_compound(model)
            parts = [moment_matrix_multinomial(MultinomialCountModel(ell=e, probs=probs)) for e in ells]
            for i in range(len(probs)):
                for j in range(len(probs)):
                    expected = law[0] * parts[0].entries[i][j] + law[1] * parts[1].entries[i][j]
                    assert mixed.entries[i][j] == expected


def _package_imports(tree: ast.AST) -> set[str]:
    """The top-level gramexpect modules a parsed module imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("gramexpect")):
            module = (node.module or "").removeprefix("gramexpect").strip(".")
            found.update([module] if module else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.removeprefix("gramexpect.") for a in node.names if a.name.startswith("gramexpect."))
    return {name.split(".")[0] for name in found}


class TestExactCore:
    def test_imports_nothing_above_it(self):
        # The exact core takes a matrix: it must not reach the models, the sampler, the oracles or the CLI.
        package = Path(models.__file__).parent
        for name in ("matrices", "scalars", "series", "traces", "sequences"):
            tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
            assert not _package_imports(tree) & {"models", "montecarlo", "oracles", "cli"}, name

    def test_every_moment_matrix_is_an_exact_matrix(self):
        atoms = DiscreteVectorDistribution.from_pairs([((1, 1), "1/3"), ((2, 0), "2/3")])
        compound = CompoundCountModel(probs=(F(1, 2), F(1, 2)), ell_law=((1, F(1, 2)), (2, F(1, 2))))
        for model in (atoms, paper_model(), compound):
            assert isinstance(moment_matrix(model), ExactMatrix)


class _FixedBits:
    """Stand-in RNG handing out preset 64-bit draws.

    getrandbits(64 k) packs the next k words from the low end, as CPython does.
    """

    def __init__(self, values):
        self._values = list(values)

    def getrandbits(self, bits):
        assert bits % 64 == 0
        count = bits // 64
        words, self._values = self._values[:count], self._values[count:]
        return sum(word << (64 * i) for i, word in enumerate(words))


class TestCategoricalSampler:
    def test_threshold_boundaries_dyadic(self):
        sampler = CategoricalSampler((F(1, 4), F(3, 4)))
        draws = _FixedBits([0, (1 << 62) - 1, 1 << 62, (1 << 64) - 1])
        assert [sampler.draw(draws) for _ in range(4)] == [0, 0, 1, 1]

    def test_straddling_cell_goes_to_lower_index(self):
        # ceil(2^64 / 3) - 1 is the 2^-64 cell containing the real boundary
        # 1/3; it must belong to category 0.
        sampler = CategoricalSampler((F(1, 3), F(2, 3)))
        boundary = -(-(1 << 64) // 3)
        assert sampler.draw(_FixedBits([boundary - 1])) == 0
        assert sampler.draw(_FixedBits([boundary])) == 1

    def test_zero_probability_category_never_selected(self):
        sampler = CategoricalSampler((F(1, 4), F(0), F(3, 4)))
        boundary = 1 << 62
        assert sampler.draw(_FixedBits([boundary - 1])) == 0
        assert sampler.draw(_FixedBits([boundary])) == 2

    @pytest.mark.parametrize(
        "probs",
        [
            (F(1, 3), F(2, 3)),  # threshold inside top byte 85: its words are bisected
            (F(1, 4), F(0), F(3, 4)),  # thresholds on a top-byte boundary
            (F(1, 2**60), F(1, 2) - F(1, 2**60), F(1, 2)),  # threshold inside top byte 0
        ],
        ids=["inside-a-byte", "on-a-boundary", "inside-byte-zero"],
    )
    def test_block_categories_equal_single_draws_at_byte_edges(self, probs):
        sampler = CategoricalSampler(probs)
        edges = [0, 1, (1 << 64) - 1]
        for threshold in sampler._thresholds[:-1]:
            top = threshold >> 56
            edges += [threshold - 1, threshold, top << 56, ((top + 1) << 56) - 1]
        expected = [sampler.draw(_FixedBits([word])) for word in edges]
        assert list(sampler.categories(_FixedBits(edges), len(edges))) == expected


class TestSampling:
    def test_counts_sum_to_ell(self):
        model = MultinomialCountModel(ell=9, probs=(F(1, 3), F(1, 3), F(1, 3)))
        rng = Random(123)
        for _ in range(50):
            counts = sample_vector(model, rng)
            assert sum(counts) == 9
            assert all(c >= 0 for c in counts)

    def test_ell_zero_always_zero_vector(self):
        model = MultinomialCountModel(ell=0, probs=(F(1, 2), F(1, 2)))
        assert sample_vector(model, Random(1)) == (0, 0)

    def test_degenerate_category(self):
        model = MultinomialCountModel(ell=10, probs=(F(1), F(0), F(0), F(0)))
        assert sample_vector(model, Random(99)) == (10, 0, 0, 0)

    def test_compound_draws_ell_from_law(self):
        model = CompoundCountModel(probs=(F(1, 2), F(1, 2)), ell_law=((2, F(1)),))
        for seed in range(20):
            assert sum(sample_vector(model, Random(seed))) == 2

    def test_deterministic_given_seed(self):
        model = paper_model()
        a = [sample_vector(model, Random(7)) for _ in range(5)]
        b = [sample_vector(model, Random(7)) for _ in range(5)]
        assert a == b

    def test_empirical_moments_converge(self):
        model = paper_model()
        t = model.t
        rng = Random(20240801)
        draws = 100_000
        sums = [[0] * t for _ in range(t)]
        squares = [[0] * t for _ in range(t)]
        for _ in range(draws):
            w = sample_vector(model, rng)
            for i in range(t):
                for j in range(i, t):
                    prod = w[i] * w[j]
                    sums[i][j] += prod
                    squares[i][j] += prod * prod
        exact = moment_matrix_multinomial(model).entries
        for i in range(t):
            for j in range(i, t):
                mean = sums[i][j] / draws
                variance = squares[i][j] / draws - mean * mean
                se = (variance / draws) ** 0.5
                assert abs(mean - float(exact[i][j])) <= 5 * se, (i, j)



def _reference_columns(model, n, rng):
    """The per-draw loop: one getrandbits(64) and one bisect per categorical draw."""
    columns = []
    for _ in range(n):
        if isinstance(model, DiscreteVectorDistribution):
            sampler = CategoricalSampler(tuple(p for _, p in model.atoms))
            columns.append(model.atoms[sampler.draw(rng)][0])
            continue
        if isinstance(model, CompoundCountModel):
            law = CategoricalSampler(tuple(p for _, p in model.ell_law))
            ell = model.ell_law[law.draw(rng)][0]
        else:
            ell = model.ell
        sampler = CategoricalSampler(model.probs)
        counts = [0] * model.t
        for _ in range(ell):
            counts[sampler.draw(rng)] += 1
        columns.append(tuple(counts))
    return columns


_NON_DYADIC = (F(1, 3), F(1, 5), F(1, 7), F(1, 11), F(1) - F(1, 3) - F(1, 5) - F(1, 7) - F(1, 11))

STREAM_CASES = {
    "atoms-with-zero-prob-atom": (
        DiscreteVectorDistribution.from_pairs(
            [((1, 0), "1/2"), (("-1/2", "3"), "1/3"), ((5, 5), "0"), ((2, 2), "1/6")]
        ),
        37,
    ),
    "paper": (paper_model(), 50),
    "n-zero": (paper_model(), 0),
    "ell-zero": (MultinomialCountModel(ell=0, probs=(F(1, 2), F(1, 2))), 5),
    "zero-prob-categories": (MultinomialCountModel(ell=7, probs=(F(1, 4), F(0), F(3, 4), F(0))), 30),
    # 3 * 1366 = 4098 words: the second block holds two, and a column straddles the boundary.
    "across-block-boundary": (MultinomialCountModel(ell=3, probs=(F(1, 3), F(2, 3))), 1366),
    "column-longer-than-block": (MultinomialCountModel(ell=9000, probs=(F(1, 5), F(4, 5))), 1),
    "two-columns-longer-than-block": (MultinomialCountModel(ell=4097, probs=(F(1, 2), F(1, 2))), 2),
    "compound": (
        CompoundCountModel(
            probs=(F(2, 5), F(0), F(3, 5)),
            ell_law=((0, F(1, 4)), (3, F(1, 4)), (4100, F(1, 2))),
        ),
        6,
    ),
    "compound-ell-zero": (CompoundCountModel(probs=(F(1),), ell_law=((0, F(1)),)), 3),
    # Non-dyadic probabilities put thresholds inside top bytes, so some words are bisected.
    "non-dyadic-convolved": (MultinomialCountModel(ell=10, probs=_NON_DYADIC), 40),
    "non-dyadic-single-column": (MultinomialCountModel(ell=10, probs=_NON_DYADIC), 1),
    "ell-63-convolved": (MultinomialCountModel(ell=63, probs=_NON_DYADIC), 70),
    "ell-64-counted": (MultinomialCountModel(ell=64, probs=_NON_DYADIC), 70),
    "ell-255": (MultinomialCountModel(ell=255, probs=(F(1, 3), F(2, 3))), 17),
    "ell-256": (MultinomialCountModel(ell=256, probs=(F(1, 3), F(2, 3))), 17),
    "ell-4096": (MultinomialCountModel(ell=4096, probs=(F(1, 3), F(2, 3))), 2),
    "ell-4097": (MultinomialCountModel(ell=4097, probs=_NON_DYADIC), 2),
    # 255 or more categories: no top-byte table, every word is bisected.
    "atoms-300": (
        DiscreteVectorDistribution.from_pairs([((k, 1), F(k + 1, 45150)) for k in range(300)]),
        60,
    ),
    "multinomial-300-categories": (MultinomialCountModel(ell=7, probs=(F(1, 300),) * 300), 20),
    "compound-non-dyadic-above-block": (
        CompoundCountModel(probs=_NON_DYADIC, ell_law=((1, F(2, 3)), (5000, F(1, 3)))),
        4,
    ),
}


@st.composite
def _rational_probs(draw):
    """Probability vectors whose thresholds land on, next to, or inside top-byte boundaries.

    Cut points are mixed from exact multiples of 2^-8 (thresholds on a
    top-byte boundary), such multiples moved by a few 2^-64 (inside the
    neighbouring byte) and arbitrary 64-bit ones; a non-dyadic vector and
    zero-probability categories (repeated cut points) come in too.
    """
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 12), min_size=1, max_size=8))
        if not any(weights):
            weights[0] = 1
        return tuple(F(w, sum(weights)) for w in weights)
    cut = st.one_of(
        st.integers(0, 256).map(lambda b: b << 56),
        st.tuples(st.integers(1, 255), st.integers(-3, 3)).map(lambda p: (p[0] << 56) + p[1]),
        st.integers(0, 2**64),
    )
    cuts = sorted(draw(st.lists(cut, max_size=7)))
    edges = [0, *cuts, 2**64]
    return tuple(F(b - a, 2**64) for a, b in zip(edges, edges[1:]))


def _assert_stream_identical(model, n, seed):
    batched, single, reference = Random(seed), Random(seed), Random(seed)
    columns = sample_columns(model, n, batched)
    assert columns == [sample_vector(model, single) for _ in range(n)]
    assert columns == _reference_columns(model, n, reference)
    assert batched.getrandbits(64) == single.getrandbits(64) == reference.getrandbits(64)


class TestSampleColumns:
    @pytest.mark.parametrize("model, n", STREAM_CASES.values(), ids=STREAM_CASES.keys())
    def test_stream_identical_to_per_draw_loop(self, model, n):
        _assert_stream_identical(model, n, 20240801)

    @settings(max_examples=40, deadline=None)
    @given(
        case=st.sampled_from(sorted(STREAM_CASES)),
        n=st.integers(min_value=0, max_value=12),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_stream_identical_over_seeds(self, case, n, seed):
        model, _ = STREAM_CASES[case]
        _assert_stream_identical(model, n, seed)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_stream_identical_over_random_rational_probabilities(self, data):
        probs = data.draw(_rational_probs())
        kind = data.draw(st.sampled_from(["atoms", "multinomial", "compound"]))
        if kind == "atoms":
            model = DiscreteVectorDistribution.from_pairs(
                ((k, -k), p) for k, p in enumerate(probs)
            )
        elif kind == "multinomial":
            model = MultinomialCountModel(ell=data.draw(st.integers(0, 80)), probs=probs)
        else:
            ells = data.draw(st.lists(st.integers(0, 70), min_size=1, max_size=4, unique=True))
            model = CompoundCountModel(probs=probs, ell_law=tuple((e, F(1, len(ells))) for e in ells))
        n = data.draw(st.integers(0, 30))
        seed = data.draw(st.integers(0, 2**64 - 1))
        _assert_stream_identical(model, n, seed)
        # sample_rows convolves multinomial counts; the per-draw loop is its reference too.
        rows = sample_rows(model, n, Random(seed))
        assert len(rows) == model.t
        assert list(zip(*rows)) == _reference_columns(model, n, Random(seed))

    def test_counts_columns_without_the_convolution(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sample_columns must not convolve")

        monkeypatch.setattr(models, "_convolved_rows", refuse)
        model = MultinomialCountModel(ell=10, probs=_NON_DYADIC)
        assert sample_columns(model, 30, Random(5)) == _reference_columns(model, 30, Random(5))

    def test_model_keeps_its_sampler_through_pickling(self):
        model = MultinomialCountModel(ell=10, probs=_NON_DYADIC)
        copy = pickle.loads(pickle.dumps(model))
        assert copy == model
        assert sample_columns(copy, 30, Random(4)) == sample_columns(model, 30, Random(4))
        # Signed rational atoms travel with their scale D = 6 and their scaled rows.
        atoms = DiscreteVectorDistribution.from_pairs([((1, "-1/2"), "1/3"), (("2/3", 0), "1/6"), ((-2, 5), "1/2")])
        copy = pickle.loads(pickle.dumps(atoms))
        assert copy == atoms and copy.scale == atoms.scale == 6
        assert sample_rows(copy, 30, Random(4)) == sample_rows(atoms, 30, Random(4))

    def test_long_column_memory_stays_at_block_scale(self):
        model = MultinomialCountModel(ell=10**6, probs=(F(1, 3), F(2, 3)))
        sample_columns(model, 1, Random(0))  # warm the per-model caches
        tracemalloc.start()
        try:
            (column,) = sample_columns(model, 1, Random(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(column) == 10**6
        # One block is 4096 words; 10^6 words would take 8 MB even as raw bytes.
        assert peak < 1 << 20


# 409 = 4096 // 10 columns fill one block at ell = 10, so 410 opens a second and 818 fills it.
ROW_CASES = {
    **{
        f"ell-{ell}-n-{n}": (MultinomialCountModel(ell=ell, probs=probs), n)
        for ell in (1, 10, 15, 16, 40, 63, 64)
        for n in (1, 409, 410, 818)
        for probs in [paper_model().probs if ell == 10 else _NON_DYADIC]
    },
    "non-dyadic-ell-10-across-blocks": (MultinomialCountModel(ell=10, probs=_NON_DYADIC), 410),
    "n-zero": (paper_model(), 0),
    "ell-zero": (MultinomialCountModel(ell=0, probs=(F(1, 2), F(1, 2))), 5),
    "multinomial-300-categories": STREAM_CASES["multinomial-300-categories"],
    "atoms": STREAM_CASES["atoms-with-zero-prob-atom"],
    "atoms-n-zero": (STREAM_CASES["atoms-with-zero-prob-atom"][0], 0),
    "atoms-300": STREAM_CASES["atoms-300"],
    "compound": STREAM_CASES["compound"],
    "compound-non-dyadic-above-block": STREAM_CASES["compound-non-dyadic-above-block"],
}


def _assert_rows_are_transposed_columns(model, n, seed):
    """sample_rows: t integer rows, D times the transposed sample_columns, from the same words."""
    by_rows, by_columns = Random(seed), Random(seed)
    rows = sample_rows(model, n, by_rows)
    atoms = isinstance(model, DiscreteVectorDistribution)
    scale = lcm(*(x.denominator for vec, _ in model.atoms for x in vec)) if atoms else 1
    columns = sample_columns(model, n, by_columns)
    assert list(zip(*rows)) == [tuple(scale * x for x in column) for column in columns]
    assert by_rows.getrandbits(64) == by_columns.getrandbits(64)
    convolved = isinstance(model, MultinomialCountModel) and n > 1 and 0 < model.ell < 64 and model.t < 255
    assert all(isinstance(row, bytes) == convolved for row in rows)
    assert len(rows) == model.t and all(len(row) == n for row in rows)
    assert all(type(x) is int for row in rows for x in row)


class TestSampleRows:
    @pytest.mark.parametrize("model, n", ROW_CASES.values(), ids=ROW_CASES.keys())
    def test_transpose_of_sample_columns_from_the_same_words(self, model, n):
        _assert_rows_are_transposed_columns(model, n, 20240801)

    @settings(max_examples=40, deadline=None)
    @given(
        case=st.sampled_from(sorted(ROW_CASES)),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_transpose_of_sample_columns_over_seeds(self, case, seed):
        model, n = ROW_CASES[case]
        _assert_rows_are_transposed_columns(model, n, seed)

    def test_byte_counts_reach_ell(self):
        rows = sample_rows(MultinomialCountModel(ell=15, probs=(F(1),)), 3, Random(0))
        assert rows == [bytes([15, 15, 15])]


class TestModelJson:
    @pytest.mark.parametrize(
        "model",
        [
            paper_model(),
            MultinomialCountModel(ell=0, probs=(F(1),)),
            CompoundCountModel(probs=(F(2, 5), F(3, 5)), ell_law=((0, F(1, 4)), (3, F(3, 4)))),
            DiscreteVectorDistribution.from_pairs([((1, 0), "1/2"), (("-1/2", "3"), "1/2")]),
        ],
    )
    def test_round_trip_byte_identical(self, model):
        text = canonical_json(model_to_dict(model)) + "\n"
        again = canonical_json(model_to_dict(model_from_json_str(text))) + "\n"
        assert text == again

    def test_declared_t_is_optional(self):
        model = model_from_json_str('{"type":"multinomial","ell":2,"probs":["1/2","1/2"]}')
        assert model == MultinomialCountModel(ell=2, probs=(F(1, 2), F(1, 2)))

    def test_declared_t_must_match(self):
        with pytest.raises(InvalidModelError):
            model_from_json_str('{"type":"multinomial","t":3,"ell":2,"probs":["1/2","1/2"]}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"type":"multinomial","t":2,"ell":true,"probs":["1/2","1/2"]}',
            '{"type":"compound","t":2,"probs":["1/2","1/2"],"ell_law":[{"ell":false,"prob":"1"}]}',
            '{"type":"atoms","t":true,"atoms":[{"vector":["1"],"prob":"1"}]}',
            '{"type":"multinomial","t":2,"ell":2,"probs":[0.5,"1/2"]}',
            '{"type":"atoms","t":1,"atoms":[{"vector":[1.5],"prob":"1"}]}',
        ],
        ids=["ell-bool", "ell-law-bool", "t-bool", "float-prob", "float-vector-entry"],
    )
    def test_bools_and_floats_rejected(self, text):
        with pytest.raises(InvalidModelError):
            model_from_json_str(text)

    def test_unknown_type_rejected(self):
        with pytest.raises(InvalidModelError):
            model_from_json_str('{"type":"gaussian"}')

    def test_invalid_json_rejected(self):
        with pytest.raises(InvalidModelError):
            model_from_json_str("{not json")

    def test_paper_model_definition(self):
        model = paper_model()
        assert model.ell == 10
        assert model.probs == (F(3, 8), F(1, 4), F(1, 4), F(1, 8))
