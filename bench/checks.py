"""Inputs drawn from the workload seed, and checks of the CLI's stdout.

The exact values used here are computed independently of the package: the
moment matrix of a multinomial count model from its closed form, traces of
its powers by plain matrix products, and a_n, p_n for small n straight from
their definition as sums over permutations,

    p_n = sum_{sigma in S_n} prod_{cycles c} t_{|c|},
    a_n = sum_{sigma in S_n} sgn(sigma) prod_{cycles c} t_{|c|},

so a fault shared by the package's three routes still shows here.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import permutations, product
from random import Random

PAPER_ELL = 10
PAPER_PROBS = (Fraction(3, 8), Fraction(1, 4), Fraction(1, 4), Fraction(1, 8))

# Probabilities k/8 over four categories, each k >= 1, not all even so the
# common denominator stays 8 as in the paper model: keeps the size of the
# exact numbers, and so the cost of expect-deep, close across seeds.
SEEDED_PROBS = tuple(
    tuple(Fraction(k, 8) for k in parts)
    for parts in product(range(1, 6), repeat=4)
    if sum(parts) == 8 and any(k % 2 for k in parts)
)

# a_n and p_n are checked against the permutation sums up to this n.
CHECKED_TERMS = 6


def seeded_model(seed: int) -> dict:
    """A multinomial model (t = 4, ell = 10) drawn from ``seed``."""
    probs = Random(seed).choice(SEEDED_PROBS)
    return {"type": "multinomial", "ell": PAPER_ELL, "probs": [str(p) for p in probs]}


def _power_traces(ell: int, probs: tuple[Fraction, ...], count: int) -> list[Fraction]:
    """t_1..t_count of M = ell (ell - 1) p p^T + ell diag(p)."""
    t = len(probs)
    m = [
        [ell * (ell - 1) * probs[i] * probs[j] + (ell * probs[i] if i == j else 0) for j in range(t)]
        for i in range(t)
    ]
    traces, power = [], m
    for _ in range(count):
        traces.append(sum(power[i][i] for i in range(t)))
        power = [[sum(power[i][k] * m[k][j] for k in range(t)) for j in range(t)] for i in range(t)]
    return traces


def _cycle_lengths(perm: tuple[int, ...]) -> list[int]:
    seen, lengths = [False] * len(perm), []
    for start in range(len(perm)):
        length, i = 0, start
        while not seen[i]:
            seen[i], i, length = True, perm[i], length + 1
        if length:
            lengths.append(length)
    return lengths


def exact_terms(ell: int, probs: tuple[Fraction, ...], count: int) -> tuple[list, list]:
    """([a_0..a_count], [p_0..p_count]) by summing over permutations."""
    traces = _power_traces(ell, probs, count)
    dets, perms = [], []
    for n in range(count + 1):
        det = perm = Fraction(0)
        for sigma in permutations(range(n)):
            lengths = _cycle_lengths(sigma)
            weight = math.prod((traces[k - 1] for k in lengths), start=Fraction(1))
            perm += weight
            det += -weight if (n - len(lengths)) % 2 else weight
        dets.append(det)
        perms.append(perm)
    return dets, perms


def check_expect(stdout: str, ell: int, probs: tuple[Fraction, ...], terms: int) -> list[str]:
    """Problems found in ``expect --kind both --output json`` stdout."""
    try:
        body = json.loads(stdout)
        det = [Fraction(row["exact"]) for row in body["values"]["det"]]
        perm = [Fraction(row["exact"]) for row in body["values"]["perm"]]
        ns = [row["n"] for kind in ("det", "perm") for row in body["values"][kind]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable expect output: {exc!r}"]
    problems = []
    if ns != list(range(terms + 1)) * 2:
        problems.append("terms are not n = 0..N for both kinds")
    dets, perms = exact_terms(ell, probs, CHECKED_TERMS)
    if det[: CHECKED_TERMS + 1] != dets or perm[: CHECKED_TERMS + 1] != perms:
        problems.append(f"a_n or p_n differ from the permutation sums for n <= {CHECKED_TERMS}")
    # A Gram matrix of t-dimensional columns has rank <= t.
    if any(det[len(probs) + 1 :]):
        problems.append("a_n is nonzero for some n above the dimension")
    if any(p <= 0 for p in perm):
        problems.append("p_n is not positive for some n")
    return problems


def check_simulate(stdout: str, argv: list[str], ell: int, probs: tuple[Fraction, ...]) -> list[str]:
    """Problems found in ``simulate --output json`` stdout for ``argv``."""
    flag = dict(zip(argv, argv[1:]))
    n, reps, max_index = int(flag["-n"]), int(flag["--reps"]), int(flag["--max-index"])
    kind, seed = flag["--kind"], int(flag["--seed"])
    try:
        body = json.loads(stdout)
        header = (body["n"], body["reps"], body["seed"], body["max_index"], body["kind"], body["mode"])
        stats = body["stats"][kind]
        exact = [Fraction(row["exact"]) for row in stats]
        z_scores = [row["z_score"] for row in stats]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable simulate output: {exc!r}"]
    problems = []
    if header != (n, reps, seed, max_index, kind, "exact"):
        problems.append(f"report header {header} does not echo the command")
    dets, perms = exact_terms(ell, probs, max_index)
    if exact != (dets if kind == "det" else perms)[1:]:
        problems.append("exact column differs from the permutation sums")
    # Loose enough never to fire on a correct run even at 5 replicates
    # (|t_4| > 30 has probability below 1e-5); a broken sampler or
    # aggregation lands far outside it.
    if any(z is None or not abs(z) < 30 for z in z_scores):
        problems.append(f"z-scores {z_scores} are not all finite and within 30")
    return problems
