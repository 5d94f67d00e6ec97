"""Acceptance gate: one test per shipped claim, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with -s, or in the
failure report) and enforces the claim's runtime budget. Statistical
criteria run on the fixed master seed below; criterion 8 is allowed one
retry on a derived seed, and a second miss fails the suite.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations
from math import factorial
from random import Random

from gramexpect import (
    SimulationConfig,
    det_sequence_from_char,
    egf_expand_det,
    egf_expand_perm,
    expected_det_recursion,
    expected_perm_from_char,
    expected_perm_recursion,
    char_coeffs,
    moment_matrix,
    paper_model,
    retry_seed,
    simulate,
    stddev_trend,
    traces_by_power,
    weighted_cycle_sum,
)
from gramexpect.matrices import ExactMatrix
from gramexpect.models import MomentMatrix, moment_matrix_from_atoms
from gramexpect.oracles import brute_force_expectation, perm_expansion, perm_ryser
from gramexpect.scalars import decimal_string

from conftest import random_atoms_distribution, random_matrix, random_psd, run_cli

F = Fraction
MASTER_SEED = 20240801


@contextmanager
def criterion(num: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL - {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {num:02d} PASS - {label} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.2f}s, budget {budget_s}s"


def paper_traces(count):
    return traces_by_power(moment_matrix(paper_model()), count)


def enumerate_cycle_sum(weights, n, signed):
    total = F(0)
    for perm in permutations(range(n)):
        seen = [False] * n
        term = F(1)
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            w = F(weights[length - 1])
            if signed and length % 2 == 0:
                w = -w
            term *= w
        total += term
    return total


class TestAcceptance:
    def test_01_trace_table_reproduction(self):
        with criterion(1, "trace table, seven exact rationals", 1.0):
            proc = run_cli("traces", "--paper", "-N", "7", "--output", "json")
            assert proc.returncode == 0
            expected = {
                "t": [
                    "565/16",
                    "210825/256",
                    "93917125/4096",
                    "42581180625/65536",
                    "19338382478125/1048576",
                    "8784040432265625/16777216",
                    "3990026079685703125/268435456",
                ]
            }
            assert proc.stdout == json.dumps(expected, separators=(",", ":")) + "\n"

    def test_02_expected_determinant_table(self):
        with criterion(2, "determinant table, exact plus 2-decimal rendering", 1.0):
            seq = expected_det_recursion(paper_traces(6), 6)
            assert seq[1] == F(565, 16)
            assert seq[2] == F(6775, 16)
            rendered = [decimal_string(seq[n], 2) for n in range(1, 5)]
            assert rendered == ["35.31", "423.44", "2648.44", "7031.25"]
            assert seq[5] == 0 and seq[6] == 0

    def test_03_expected_permanent_table(self):
        with criterion(3, "permanent table, 2-decimal rendering", 1.0):
            seq = expected_perm_recursion(paper_traces(6), 6)
            assert seq[2] == F(265025, 128)
            rendered = [decimal_string(seq[n], 2) for n in range(1, 7)]
            assert rendered == [
                "35.31",
                "2070.51",
                "177134.95",
                "20126988.14",
                "2857210195.90",
                "486697830067.95",
            ]

    def test_04_three_path_agreement(self):
        with criterion(4, "three-path agreement on 50 random PSD matrices", 30.0):
            rng = Random(MASTER_SEED)
            for _ in range(50):
                t = rng.randint(1, 5)
                moments = MomentMatrix(random_psd(rng, t).entries)
                traces = traces_by_power(moments, 12)
                coeffs = char_coeffs(moments)
                det_rec = expected_det_recursion(traces, 12).values
                assert det_sequence_from_char(coeffs, 12).values == det_rec
                assert egf_expand_det(traces, 12).values == det_rec
                perm_rec = expected_perm_recursion(traces, 12).values
                assert expected_perm_from_char(coeffs, 12).values == perm_rec
                assert egf_expand_perm(traces, 12).values == perm_rec

    def test_05_oracle_equivalence(self):
        with criterion(5, "brute-force enumeration equals recursion, both kinds", 60.0):
            rng = Random(MASTER_SEED)
            for case in range(24):
                dist = random_atoms_distribution(rng, rng.randint(1, 3), rng.randint(1, 3))
                n = rng.randint(0, 5)
                traces = traces_by_power(moment_matrix_from_atoms(dist), max(n, 1))
                det_seq = expected_det_recursion(traces, n)
                perm_seq = expected_perm_recursion(traces, n)
                assert brute_force_expectation(dist, n, "det") == det_seq[n]
                assert brute_force_expectation(dist, n, "perm") == perm_seq[n]

    def test_06_ryser_validation(self):
        with criterion(6, "Ryser equals Leibniz on 100 matrices, all-ones factorials", 30.0):
            rng = Random(MASTER_SEED)
            for _ in range(100):
                n = rng.randint(0, 8)
                m = random_matrix(rng, n, n, rational=bool(rng.getrandbits(1)))
                assert perm_ryser(m) == perm_expansion(m)
            for n in range(11):
                ones = ExactMatrix.from_rows([[1] * n for _ in range(n)])
                assert perm_ryser(ones) == factorial(n)

    def test_07_rank_annihilation(self):
        with criterion(7, "a_n = 0 past the rank, simulated b_i exactly zero", 60.0):
            seq = expected_det_recursion(paper_traces(12), 12)
            assert all(seq[n] == 0 for n in range(5, 13))
            config = SimulationConfig(
                model=paper_model(), n=30, reps=50, max_index=8, kind="det", seed=MASTER_SEED
            )
            report = simulate(config)
            for row in report.replicates_for("det"):
                assert all(row[i - 1] == 0 for i in range(5, 9))

    def test_08_monte_carlo_consistency(self):
        with criterion(8, "z-scores within 4 sigma (det n=200, perm n=12)", 300.0):
            def z_ok(kind, n, reps, seed):
                config = SimulationConfig(
                    model=paper_model(), n=n, reps=reps, max_index=4, kind=kind, seed=seed
                )
                report = simulate(config, threads=4)
                return all(
                    s.z_score is None or abs(s.z_score) <= 4.0
                    for s in report.stats_for(kind)
                )

            for kind, n, reps in (("det", 200, 200), ("perm", 12, 100)):
                if not z_ok(kind, n, reps, MASTER_SEED):
                    # One retry on an independent derived stream is allowed;
                    # a second miss is a real failure.
                    assert z_ok(kind, n, reps, retry_seed(MASTER_SEED)), (
                        f"{kind} z-scores out of range twice"
                    )

    def test_09_stddev_trend(self):
        with criterion(9, "normalized stddev nonincreasing in n (10% slack)", 300.0):
            for index in (1, 2):
                points = stddev_trend(
                    paper_model(),
                    [50, 100, 200, 400],
                    reps=200,
                    index=index,
                    kind="det",
                    seed=MASTER_SEED,
                    threads=4,
                )
                values = [s for _, s in points]
                assert all(v > 0 for v in values)
                for previous, current in zip(values, values[1:]):
                    assert current <= previous * 1.10, (index, values)

    def test_10_cycle_index_identity(self):
        with criterion(10, "cycle sums match recursions and S_n enumeration", 10.0):
            traces = paper_traces(8)
            weights = list(traces.values)
            det_seq = expected_det_recursion(traces, 8)
            perm_seq = expected_perm_recursion(traces, 8)
            for n in range(9):
                assert weighted_cycle_sum(weights, n, signed=True) == det_seq[n]
                assert weighted_cycle_sum(weights, n, signed=False) == perm_seq[n]
            for n in range(7):
                for signed in (False, True):
                    assert weighted_cycle_sum(weights, n, signed) == enumerate_cycle_sum(
                        weights, n, signed
                    )

    def test_11_determinism_across_threads(self):
        with criterion(11, "byte-identical simulate reports for threads 1 and 4", 120.0):
            base = (
                "simulate", "--paper", "-n", "12", "--reps", "30", "--max-index", "4",
                "--kind", "both", "--seed", str(MASTER_SEED),
            )
            for output in ("json", "csv"):
                single = run_cli(*base, "--output", output, "--threads", "1")
                pooled = run_cli(*base, "--output", output, "--threads", "4")
                assert single.returncode == 0 and pooled.returncode == 0
                assert single.stdout == pooled.stdout
