"""Shared helpers: random exact-matrix generators and a CLI runner."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from random import Random

from gramexpect import DiscreteVectorDistribution, ExactMatrix


def random_fraction(rng: Random, low: int = -3, high: int = 3, dens=(1, 1, 2, 4)) -> Fraction:
    return Fraction(rng.randint(low, high), rng.choice(dens))


def random_matrix(rng: Random, rows: int, cols: int, rational: bool = True) -> ExactMatrix:
    if rational:
        data = [[random_fraction(rng) for _ in range(cols)] for _ in range(rows)]
    else:
        data = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
    return ExactMatrix.from_rows(data)


def random_symmetric(rng: Random, t: int) -> ExactMatrix:
    data = [[Fraction(0)] * t for _ in range(t)]
    for i in range(t):
        for j in range(i, t):
            v = random_fraction(rng)
            data[i][j] = v
            data[j][i] = v
    return ExactMatrix.from_rows(data)


def random_psd(rng: Random, t: int) -> ExactMatrix:
    """B^T B for a random square B: PSD with rational entries."""
    b = random_matrix(rng, t, t)
    return b.transpose() @ b


def integer_scaling_cases() -> dict[str, ExactMatrix]:
    """Square matrices for the integer-scaled moment side, each with the case it covers."""
    rng = Random(19)
    mixed = [[Fraction(rng.randint(-9, 9), rng.choice((7, 9, 11))) for _ in range(4)] for _ in range(4)]
    return {
        "mixed-denominators-7-9-11": ExactMatrix.from_rows(mixed),
        "symmetric-signed": random_symmetric(rng, 5),
        "zero": ExactMatrix.from_rows([[0] * 3 for _ in range(3)]),
        "one-by-one": ExactMatrix.from_rows([["-5/7"]]),
        "already-integer": ExactMatrix.from_rows([[2, -1, 0], [4, 3, -6], [1, 0, 5]]),
    }


def random_prob_vector(rng: Random, k: int) -> tuple[Fraction, ...]:
    weights = [rng.randint(1, 9) for _ in range(k)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def random_atoms_distribution(rng: Random, num_atoms: int, t: int) -> DiscreteVectorDistribution:
    probs = random_prob_vector(rng, num_atoms)
    atoms = tuple(
        (tuple(random_fraction(rng, -2, 2, (1, 2)) for _ in range(t)), p) for p in probs
    )
    return DiscreteVectorDistribution(atoms)


def run_cli(*argv: str, env_extra: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "gramexpect", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
