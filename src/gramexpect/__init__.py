"""Exact expected determinants and permanents of random Gram matrices.

Given a distribution of random columns w in Q^t with second-moment matrix
M[i][j] = E(w_i w_j), this package computes a_n = E(det(G_n)) and
p_n = E(perm(G_n)) for Gram matrices G_n built from n i.i.d. columns --
exactly, by three routes that must agree: the trace recursion and its EGF
(one recurrence in two implementations) and the algorithmically independent
characteristic closed form. A seeded Monte Carlo harness compares sampled
coefficient statistics against the exact values.

``__all__`` is the library API. The brute-force oracles live in
``gramexpect.oracles``; sampling and matrix helpers in ``gramexpect.models``,
``gramexpect.montecarlo`` and ``gramexpect.matrices``.
"""

__version__ = "0.1.0"

from .matrices import CharCoeffs, ExactMatrix
from .models import (
    CompoundCountModel,
    DiscreteVectorDistribution,
    InvalidModelError,
    MultinomialCountModel,
    moment_matrix,
    paper_model,
)
from .montecarlo import SimulationConfig, derive_seed, retry_seed, simulate, stddev_trend
from .oracles import GuardExceeded
from .sequences import (
    ExpectedSequence,
    char_coeffs,
    det_sequence_from_char,
    egf_expand_det,
    egf_expand_perm,
    expected_coefficient,
    expected_det_recursion,
    expected_perm_from_char,
    expected_perm_recursion,
    weighted_cycle_sum,
)
from .series import TruncatedSeries
from .traces import TraceSequence, traces_by_power, traces_from_char_coeffs

__all__ = [
    "__version__",
    # models
    "MultinomialCountModel", "DiscreteVectorDistribution", "CompoundCountModel",
    "paper_model", "moment_matrix", "InvalidModelError",
    # types
    "ExactMatrix", "CharCoeffs", "TraceSequence", "ExpectedSequence", "TruncatedSeries",
    # traces
    "traces_by_power", "traces_from_char_coeffs", "char_coeffs",
    # expectations: the three routes for det and for perm, then the helpers
    "expected_det_recursion", "expected_perm_recursion",
    "det_sequence_from_char", "expected_perm_from_char",
    "egf_expand_det", "egf_expand_perm",
    "expected_coefficient", "weighted_cycle_sum",
    # sampling
    "simulate", "SimulationConfig", "stddev_trend", "derive_seed", "retry_seed",
    "GuardExceeded",
]
