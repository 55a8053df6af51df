"""Exact-arithmetic toolkit for matroid log-concavity phenomena.

Construct matroids (explicit, uniform, graphic, linear), build their
independence generating polynomials, certify complete log-concavity by
reduction to finitely many quadratic semidefiniteness checks, and test
the ultra-log-concavity of independent-set count sequences, all over
exact rationals.  Floating point appears only in clearly marked
spectral diagnostics.
"""

from .corpus import CorpusConfig, corpus_instances, run_sweep
from .errors import (
    AxiomViolation,
    ConsistencyError,
    DegreeTooLow,
    DimensionMismatch,
    ElementOutOfRange,
    EmptyFamily,
    EnumerationLimitExceeded,
    InvalidRank,
    InvalidVertexIndex,
    LengthMismatch,
    MatroidLCError,
    NegativeCoefficient,
    NegativeEntry,
    NonPrimeModulus,
    NotBivariate,
    NotHomogeneous,
    NotIndependent,
    ZeroAtPoint,
)
from .linalg import SymmetricMatrix, is_negative_semidefinite
from .logconcavity import (
    certify_clc_matroid,
    certify_clc_quadratic_criterion,
    log_concavity_condition_report,
    log_concavity_test_matrix,
    sample_functional_log_concavity,
    spectral_nd_report,
    verify_certificate_failure,
)
from .mason import check_ultra_log_concave, gurvits_minor_checks, mason_report
from .matroid import (
    Matroid,
    from_independence_family,
    graphic,
    linear,
    matroid_from_json,
    uniform,
)
from .polynomial import (
    SparsePolynomial,
    bases_polynomial,
    bivariate_restriction,
    format_polynomial,
    independence_polynomial,
    matroid_variable_names,
    polynomial_from_json,
)

__version__ = "0.1.0"

# What the README, the demos and the acceptance suite use, and every
# error the package raises; tests import the rest from its submodule.
__all__ = [
    "CorpusConfig",
    "corpus_instances",
    "run_sweep",
    "AxiomViolation",
    "ConsistencyError",
    "DegreeTooLow",
    "DimensionMismatch",
    "ElementOutOfRange",
    "EmptyFamily",
    "EnumerationLimitExceeded",
    "InvalidRank",
    "InvalidVertexIndex",
    "LengthMismatch",
    "MatroidLCError",
    "NegativeCoefficient",
    "NegativeEntry",
    "NonPrimeModulus",
    "NotBivariate",
    "NotHomogeneous",
    "NotIndependent",
    "ZeroAtPoint",
    "SymmetricMatrix",
    "is_negative_semidefinite",
    "certify_clc_matroid",
    "certify_clc_quadratic_criterion",
    "log_concavity_condition_report",
    "log_concavity_test_matrix",
    "sample_functional_log_concavity",
    "spectral_nd_report",
    "verify_certificate_failure",
    "check_ultra_log_concave",
    "gurvits_minor_checks",
    "mason_report",
    "Matroid",
    "from_independence_family",
    "graphic",
    "linear",
    "matroid_from_json",
    "uniform",
    "SparsePolynomial",
    "bases_polynomial",
    "bivariate_restriction",
    "format_polynomial",
    "independence_polynomial",
    "matroid_variable_names",
    "polynomial_from_json",
]
