"""Exact and numeric toolkit for the asymptotic expansion of the heuristic
Number Field Sieve complexity: the Dickman-de Bruijn series (P in its closed
Stirling form, and the exponent series Q built from it by the Ei expansion
of de Bruijn's integral), an exact bivariate-series engine over
Q[log 2, log 3], the guess/prove pipeline for the minimizing parameters,
and floating-point evaluators for the resulting truncations.  The names
below are the public API.
"""

from .exact import (
    LogConstant, RadicalScale,
    log_of_rational, scale_log, scale_ratio_as_rational,
)
from .pseries import TruncatedBiSeries
from .dickman import (
    PSeries, QSeries, RhoValue,
    cep_series, integral_s_numeric, log_rho_debruijn, p_series, q_series,
    radius_constant, radius_threshold_check, rho_numeric, s_numeric,
)
from .asym import (
    ScaledAsymptotic,
    asym_add, asym_div, asym_mul, asym_neg, p_of,
)
from .nfsopt import (
    CandidateExpansion, ExistenceCertificate, ExpansionResult, ProofLog,
    build_constraint, classify_pattern, compute_proven_expansion,
    constraint_residual, guess_terms, prove_existence,
)
from .evalkit import (
    complexity_log, figure_data, g_demo, xi_eval, xi_eval_loglog,
)

__version__ = "0.1.0"
