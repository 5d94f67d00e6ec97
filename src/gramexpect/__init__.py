"""Exact expected determinants and permanents of random Gram matrices.

Given a distribution of random columns w in Q^t with second-moment matrix
M[i][j] = E(w_i w_j), this package computes a_n = E(det(G_n)) and
p_n = E(perm(G_n)) for Gram matrices G_n built from n i.i.d. columns --
exactly, by three mutually checking routes -- and provides brute-force
oracles plus a seeded Monte Carlo harness that compares sampled coefficient
statistics against the exact values.
"""

__version__ = "0.1.0"

from .matrices import CharCoeffs, ExactMatrix, gram, identity, leverrier_char_coeffs
from .models import (
    CompoundCountModel,
    DiscreteVectorDistribution,
    InvalidModelError,
    MomentMatrix,
    MultinomialCountModel,
    CategoricalSampler,
    model_from_json_str,
    model_to_json_str,
    moment_matrix,
    moment_matrix_compound,
    moment_matrix_from_atoms,
    moment_matrix_multinomial,
    paper_model,
    sample_vector,
)
from .montecarlo import (
    CoefficientStats,
    SimulationConfig,
    SimulationReport,
    derive_seed,
    retry_seed,
    sample_gram,
    simulate,
    stddev_trend,
)
from .oracles import (
    GuardExceeded,
    brute_force_expectation,
    char_poly_coeffs_of_gram,
    det_bareiss,
    det_expansion,
    perm_expansion,
    perm_ryser,
    permanental_poly_coeffs,
)
from .sequences import (
    ExpectedSequence,
    char_coeffs,
    det_sequence_from_char,
    egf_expand_det,
    egf_expand_perm,
    expected_coefficient,
    expected_det_from_char,
    expected_det_recursion,
    expected_perm_from_char,
    expected_perm_recursion,
    weighted_cycle_sum,
)
from .series import TruncatedSeries
from .traces import TraceSequence, traces_by_power, traces_from_char_coeffs

__all__ = [
    "__version__",
    "CharCoeffs",
    "ExactMatrix",
    "identity",
    "leverrier_char_coeffs",
    "CompoundCountModel",
    "DiscreteVectorDistribution",
    "InvalidModelError",
    "MomentMatrix",
    "MultinomialCountModel",
    "CategoricalSampler",
    "model_from_json_str",
    "model_to_json_str",
    "moment_matrix",
    "moment_matrix_compound",
    "moment_matrix_from_atoms",
    "moment_matrix_multinomial",
    "paper_model",
    "sample_vector",
    "CoefficientStats",
    "SimulationConfig",
    "SimulationReport",
    "derive_seed",
    "retry_seed",
    "sample_gram",
    "simulate",
    "stddev_trend",
    "GuardExceeded",
    "brute_force_expectation",
    "char_poly_coeffs_of_gram",
    "det_bareiss",
    "det_expansion",
    "gram",
    "perm_expansion",
    "perm_ryser",
    "permanental_poly_coeffs",
    "ExpectedSequence",
    "char_coeffs",
    "det_sequence_from_char",
    "egf_expand_det",
    "egf_expand_perm",
    "expected_coefficient",
    "expected_det_from_char",
    "expected_det_recursion",
    "expected_perm_from_char",
    "expected_perm_recursion",
    "weighted_cycle_sum",
    "TruncatedSeries",
    "TraceSequence",
    "traces_by_power",
    "traces_from_char_coeffs",
]
