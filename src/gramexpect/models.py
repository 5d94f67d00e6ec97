"""Column-vector distributions, their second-moment matrices, and sampling.

A model describes the law of one random column w in Z^t or Q^t. Three kinds
are supported:

* ``DiscreteVectorDistribution``: finitely many atom vectors with rational
  probabilities (the fully general case, used by the brute-force oracle).
* ``MultinomialCountModel``: w ~ Multinomial(ell, p), the count vector of
  ell independent categorical trials over t categories.
* ``CompoundCountModel``: a multinomial whose trial count ell is itself
  random with a finite rational law.

The second-moment matrix M with M[i][j] = E(w_i w_j) is what every exact
expectation downstream consumes. For the multinomial it is

    M[i][i] = ell (ell - 1) p_i^2 + ell p_i
    M[i][j] = ell (ell - 1) p_i p_j      (i != j)

and the compound case averages those entries over the law of ell.

Sampling is exact: categorical draws compare a 64-bit uniform integer
against precomputed integer thresholds ceil(cumprob * 2^64), so replicate
streams are reproducible bit for bit and independent of float rounding.
``sample_columns`` draws the words in blocks and categorises each by its
top byte, or by an exact ``bisect_right`` on the full word whenever a
threshold falls inside that byte, so the stream is unchanged; it tallies
each count column in C with ``bytes.count``. ``sample_rows`` gives the
integer rows of A: an atoms model's columns times its ``scale`` D, the lcm
of its entries' denominators, and multinomial counts convolved into bytes
rows. ``sample_columns`` is the per-column reference in the model's values.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain
from math import ceil
from operator import add
from random import Random
from struct import unpack
from typing import Iterator, Sequence

from .matrices import ExactMatrix, integer_scaled, leverrier_char_coeffs
from .scalars import format_rational, to_rational

_TWO64 = 1 << 64


class InvalidModelError(ValueError):
    """A model definition violates its constraints (raised on load too)."""


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _coerce_prob_vector(probs: Sequence[Fraction | int | str], what: str) -> tuple[Fraction, ...]:
    if len(probs) == 0:
        raise InvalidModelError(f"{what} must be non-empty")
    out = []
    for p in probs:
        q = to_rational(p, what, InvalidModelError)
        if q < 0:
            raise InvalidModelError(f"{what} entries must be nonnegative, got {q}")
        out.append(q)
    total = sum(out)
    if total != 1:
        raise InvalidModelError(f"{what} must sum to 1, got {total}")
    return tuple(out)


@dataclass(frozen=True)
class DiscreteVectorDistribution:
    """Finitely many rational atom vectors with probabilities summing to 1; ``scale`` D makes them ints."""

    atoms: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise InvalidModelError("distribution needs at least one atom")
        t = len(self.atoms[0][0])
        if t < 1:
            raise InvalidModelError("atom vectors must have dimension >= 1")
        if any(len(vec) != t for vec, _ in self.atoms):
            raise InvalidModelError("atom vectors must all have the same dimension")
        probs = _coerce_prob_vector([p for _, p in self.atoms], "atom probabilities")
        vectors = tuple(
            tuple(to_rational(v, "atom vector entries", InvalidModelError) for v in vec) for vec, _ in self.atoms
        )
        object.__setattr__(self, "atoms", tuple(zip(vectors, probs)))
        object.__setattr__(self, "_sampler", CategoricalSampler(probs))
        scale, scaled = integer_scaled(vectors)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "_scaled", scaled)

    @classmethod
    def from_pairs(cls, pairs) -> "DiscreteVectorDistribution":
        return cls(tuple((tuple(vec), prob) for vec, prob in pairs))

    @property
    def t(self) -> int:
        return len(self.atoms[0][0])


@dataclass(frozen=True)
class MultinomialCountModel:
    """w ~ Multinomial(ell, probs): counts of ell categorical trials.

    ell = 0 is allowed and yields the zero vector with probability 1.
    """

    scale = 1  # counts are integers: sample_rows returns them unscaled
    ell: int
    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not _is_count(self.ell):
            raise InvalidModelError(f"ell must be a nonnegative integer, got {self.ell!r}")
        object.__setattr__(self, "probs", _coerce_prob_vector(self.probs, "probs"))
        object.__setattr__(self, "_sampler", CategoricalSampler(self.probs))

    @property
    def t(self) -> int:
        return len(self.probs)


@dataclass(frozen=True)
class CompoundCountModel:
    """Multinomial counts whose trial count ell has a finite rational law."""

    scale = 1
    probs: tuple[Fraction, ...]
    ell_law: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _coerce_prob_vector(self.probs, "probs"))
        if not self.ell_law:
            raise InvalidModelError("ell_law needs at least one entry")
        ells = [e for e, _ in self.ell_law]
        if not all(_is_count(e) for e in ells):
            raise InvalidModelError("ell_law values must be nonnegative integers")
        if len(set(ells)) != len(ells):
            raise InvalidModelError("ell_law values must be distinct")
        weights = _coerce_prob_vector([p for _, p in self.ell_law], "ell_law probabilities")
        ordered = tuple(sorted(zip(ells, weights)))
        object.__setattr__(self, "ell_law", ordered)
        object.__setattr__(self, "_sampler", CategoricalSampler(self.probs))
        object.__setattr__(self, "_ell_sampler", CategoricalSampler([p for _, p in ordered]))

    @property
    def t(self) -> int:
        return len(self.probs)


Model = DiscreteVectorDistribution | MultinomialCountModel | CompoundCountModel


@dataclass(frozen=True)
class MomentMatrix(ExactMatrix):
    """Second-moment matrix E(w w^T): an ``ExactMatrix`` checked symmetric with nonnegative diagonal.

    ``char_coeffs`` keeps the ``CharCoeffs`` that the check computes, so Leverrier runs once per matrix.
    """

    def __post_init__(self) -> None:
        t = len(self.entries)
        if t < 1 or any(len(row) != t for row in self.entries):
            raise InvalidModelError("moment matrix must be square and non-empty")
        for i in range(t):
            if self.entries[i][i] < 0:
                raise InvalidModelError(f"moment matrix diagonal entry {i} is negative")
            for j in range(i + 1, t):
                if self.entries[i][j] != self.entries[j][i]:
                    raise InvalidModelError(f"moment matrix not symmetric at ({i},{j})")
        # Necessary PSD condition: every sign-adjusted characteristic
        # coefficient of a second-moment matrix is nonnegative.
        coeffs = leverrier_char_coeffs(self)
        for i, c in enumerate(coeffs.values):
            if c < 0:
                raise InvalidModelError(
                    f"not a valid moment matrix: characteristic coefficient c_{i} = {c} < 0"
                )
        object.__setattr__(self, "char_coeffs", coeffs)


def moment_matrix_from_atoms(dist: DiscreteVectorDistribution) -> MomentMatrix:
    """M[i][j] = sum over atoms of prob * v_i * v_j."""
    rows = range(dist.t)
    return MomentMatrix(tuple(tuple(sum(p * v[i] * v[j] for v, p in dist.atoms) for j in rows) for i in rows))


def _multinomial_entries(ell: int, probs: Sequence[Fraction]) -> list[list[Fraction]]:
    t = len(probs)
    pair = Fraction(ell * (ell - 1))
    out = [[pair * probs[i] * probs[j] for j in range(t)] for i in range(t)]
    for i in range(t):
        out[i][i] += ell * probs[i]
    return out


def moment_matrix_multinomial(model: MultinomialCountModel) -> MomentMatrix:
    return MomentMatrix(tuple(tuple(row) for row in _multinomial_entries(model.ell, model.probs)))


def moment_matrix_compound(model: CompoundCountModel) -> MomentMatrix:
    """Entrywise average of the fixed-ell matrices under the law of ell."""
    fixed = [(weight, _multinomial_entries(ell, model.probs)) for ell, weight in model.ell_law]
    rows = range(model.t)
    return MomentMatrix(tuple(tuple(sum(w * m[i][j] for w, m in fixed) for j in rows) for i in rows))


def moment_matrix(model: Model) -> MomentMatrix:
    if isinstance(model, DiscreteVectorDistribution):
        return moment_matrix_from_atoms(model)
    if isinstance(model, MultinomialCountModel):
        return moment_matrix_multinomial(model)
    if isinstance(model, CompoundCountModel):
        return moment_matrix_compound(model)
    raise InvalidModelError(f"unsupported model type: {type(model).__name__}")


# Words per getrandbits call; one block of words is the only draw-sized buffer.
_BLOCK = 4096
# Top-byte table entry for "a threshold lies inside this byte's interval".
_SENTINEL = 255
# Below this many trials, convolving 2+ columns beat bytes.count (measured).
_CONVOLVE_BELOW = 64


class CategoricalSampler:
    """Exact categorical draws over rational probabilities.

    Thresholds are T_k = ceil(cum_k * 2^64). A draw takes one 64-bit uniform
    u and returns the smallest k with u < T_k; ties resolve toward the lower
    index, and zero-probability categories are never selected. With fewer
    than 255 categories a table gives each top byte's category, or the
    sentinel if a threshold lies inside the byte (never if 256 p_k are ints).
    """

    def __init__(self, probs: Sequence[Fraction]):
        cums = accumulate(_coerce_prob_vector(probs, "probs"))
        self._thresholds = thresholds = [ceil(cum * _TWO64) for cum in cums]
        self._table = None
        if len(thresholds) < _SENTINEL:
            inside = {threshold >> 56 for threshold in thresholds if threshold % (1 << 56)}
            self._table = bytes(
                _SENTINEL if b in inside else bisect_right(thresholds, b << 56) for b in range(256)
            )
            self._onehots = [bytes(c) + b"\1" + bytes(255 - c) for c in range(len(thresholds))]

    def draw(self, rng: Random) -> int:
        return bisect_right(self._thresholds, rng.getrandbits(64))

    def categories(self, rng: Random, count: int) -> bytearray | list[int]:
        """``count`` draws, equal to as many calls of ``draw``, from one getrandbits call.

        CPython fills getrandbits(64 count) from the low end, 32 bits at a
        time, so word i is what the i-th getrandbits(64) would return.
        """
        raw = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
        if self._table is None:
            return list(map(partial(bisect_right, self._thresholds), unpack(f"<{count}Q", raw)))
        cats = bytearray(raw[7::8].translate(self._table))
        at = cats.find(_SENTINEL)
        while at >= 0:
            cats[at] = bisect_right(self._thresholds, int.from_bytes(raw[8 * at : 8 * at + 8], "little"))
            at = cats.find(_SENTINEL, at + 1)
        return cats


def _chunks(total: int, size: int) -> list[int]:
    return [size] * (total // size) + [total % size] * (total % size > 0)


def _convolved_rows(model: Model, n: int, rng: Random) -> list[bytes] | None:
    """The t count rows (one byte per column) of n multinomial columns, or None.

    None, drawing nothing, unless n > 1, 0 < ell < 64 and t < 255. Blocks
    hold whole columns. Byte j of int(draws == c) * sum_{i<ell} 256^i counts
    c in the ell draws ending at j: at most ell, so no byte carries.
    """
    multinomial = isinstance(model, MultinomialCountModel)
    if not (multinomial and n > 1 and 0 < model.ell < _CONVOLVE_BELOW and model.t < _SENTINEL):
        return None
    sampler, ell = model._sampler, model.ell
    window = int.from_bytes(b"\1" * ell, "little")
    parts: list[list[bytes]] = [[] for _ in sampler._onehots]
    for m in _chunks(n, _BLOCK // ell):
        cats = sampler.categories(rng, m * ell)
        for part, onehot in zip(parts, sampler._onehots):
            convolved = int.from_bytes(cats.translate(onehot), "little") * window
            part.append(convolved.to_bytes((m + 1) * ell, "little")[ell - 1 : m * ell : ell])
    return [b"".join(part) for part in parts]


def _count(cats: bytearray | list[int], t: int) -> tuple[int, ...]:
    """How often each of the categories 0..t-1 occurs in ``cats``."""
    if t < _SENTINEL:
        return tuple(map(cats.count, range(t)))
    counts = [0] * t
    for c in cats:  # no table: every word was bisected, one by one
        counts[c] += 1
    return tuple(counts)


def _counted_column(sampler: CategoricalSampler, rng: Random, ell: int, t: int) -> tuple[int, ...]:
    """One column of ``ell`` trials, counted a block of at most ``_BLOCK`` draws at a time."""
    counts = _count(sampler.categories(rng, min(ell, _BLOCK)), t)
    while ell > _BLOCK:
        ell -= _BLOCK
        counts = tuple(map(add, counts, _count(sampler.categories(rng, min(ell, _BLOCK)), t)))
    return counts


def _atom_draws(model: DiscreteVectorDistribution, n: int, rng: Random) -> Iterator[int]:
    """The atom indices of n columns, drawn a block of words at a time."""
    return chain.from_iterable(model._sampler.categories(rng, k) for k in _chunks(n, _BLOCK))


def sample_columns(model: Model, n: int, rng: Random) -> list[tuple[Fraction, ...]] | list[tuple[int, ...]]:
    """n column vectors drawn from the model, in order.

    Equal to n calls of ``sample_vector`` and leaves ``rng`` in the same
    state: each categorical draw takes the next 64-bit word of the stream
    (a compound column takes one word for ell, then ell trial words).
    Extra memory is O(block + n t) however long a column is.
    """
    if isinstance(model, DiscreteVectorDistribution):
        return list(map([vec for vec, _ in model.atoms].__getitem__, _atom_draws(model, n, rng)))
    t = model.t
    if isinstance(model, MultinomialCountModel):
        return [_counted_column(model._sampler, rng, model.ell, t) for _ in range(n)]
    ells = [ell for ell, _ in model.ell_law]
    return [_counted_column(model._sampler, rng, ells[model._ell_sampler.draw(rng)], t) for _ in range(n)]


def sample_rows(model: Model, n: int, rng: Random) -> list[bytes] | list[tuple[int, ...]]:
    """The t integer rows of A, ``scale`` times the transposed ``sample_columns``, from the same words."""
    if isinstance(model, DiscreteVectorDistribution):
        rows = list(zip(*map(model._scaled.__getitem__, _atom_draws(model, n, rng))))
    else:
        rows = _convolved_rows(model, n, rng) or list(zip(*sample_columns(model, n, rng)))
    return rows or [()] * model.t


def sample_vector(model: Model, rng: Random) -> tuple[Fraction, ...] | tuple[int, ...]:
    """One column vector drawn from the model; for a compound model ell is drawn first."""
    return sample_columns(model, 1, rng)[0]


def column_draws(model: Model) -> int:
    """The most 64-bit words one sampled column can take."""
    if isinstance(model, DiscreteVectorDistribution):
        return 1
    if isinstance(model, MultinomialCountModel):
        return model.ell
    return model.ell_law[-1][0] + 1


def paper_model() -> MultinomialCountModel:
    """The built-in worked example: ell = 10 trials over four categories."""
    return MultinomialCountModel(
        ell=10,
        probs=(Fraction(3, 8), Fraction(1, 4), Fraction(1, 4), Fraction(1, 8)),
    )


def model_to_dict(model: Model) -> dict:
    if isinstance(model, DiscreteVectorDistribution):
        return {
            "type": "atoms",
            "t": model.t,
            "atoms": [
                {"vector": [format_rational(v) for v in vec], "prob": format_rational(p)}
                for vec, p in model.atoms
            ],
        }
    if isinstance(model, MultinomialCountModel):
        return {
            "type": "multinomial",
            "t": model.t,
            "ell": model.ell,
            "probs": [format_rational(p) for p in model.probs],
        }
    if isinstance(model, CompoundCountModel):
        return {
            "type": "compound",
            "t": model.t,
            "probs": [format_rational(p) for p in model.probs],
            "ell_law": [{"ell": e, "prob": format_rational(p)} for e, p in model.ell_law],
        }
    raise InvalidModelError(f"unsupported model type: {type(model).__name__}")


def model_from_dict(obj: object) -> Model:
    if not isinstance(obj, dict):
        raise InvalidModelError("model JSON must be an object")
    kind = obj.get("type")
    try:
        if kind == "atoms":
            model: Model = DiscreteVectorDistribution.from_pairs(
                (atom["vector"], atom["prob"]) for atom in obj["atoms"]
            )
        elif kind == "multinomial":
            model = MultinomialCountModel(ell=obj["ell"], probs=tuple(obj["probs"]))
        elif kind == "compound":
            model = CompoundCountModel(
                probs=tuple(obj["probs"]),
                ell_law=tuple((entry["ell"], entry["prob"]) for entry in obj["ell_law"]),
            )
        else:
            raise InvalidModelError(
                f'model "type" must be atoms, multinomial, or compound, got {kind!r}'
            )
    except InvalidModelError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidModelError(f"malformed {kind!r} model: {exc}") from exc
    if "t" in obj and (not _is_count(obj["t"]) or obj["t"] != model.t):
        raise InvalidModelError(f'declared "t" = {obj["t"]} but the model has dimension {model.t}')
    return model


def model_from_json_str(text: str) -> Model:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidModelError(f"model file is not valid JSON: {exc}") from exc
    except RecursionError:
        raise InvalidModelError("model file nests JSON too deeply to parse") from None
    return model_from_dict(obj)
