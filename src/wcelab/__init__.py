"""Numerical laboratory for weighted conditional expectation operators
on discretized measure spaces."""

from .measure import (
    CountableSpaceSpec,
    FiniteMeasureSpace,
    MFunction,
    Partition,
    ess_range,
    support,
    truncate,
    weighted_inner_product,
)
from .condexp import cond_exp, is_A_measurable
from .operator import (
    WeightedCondExpOperator,
    apply,
    apply_adjoint,
    classify,
    densely_defined,
    domain_invariance_min_c,
    multiplication_domain_min_c,
    polar,
    spectrum_formula,
)
from .oracle import hermitian_eig, matrix_of, min_singular_value, psd_sqrt, residuals
from .suite import run_claim_suite

__all__ = [
    "CountableSpaceSpec",
    "FiniteMeasureSpace",
    "MFunction",
    "Partition",
    "ess_range",
    "support",
    "truncate",
    "weighted_inner_product",
    "cond_exp",
    "is_A_measurable",
    "WeightedCondExpOperator",
    "apply",
    "apply_adjoint",
    "classify",
    "densely_defined",
    "domain_invariance_min_c",
    "multiplication_domain_min_c",
    "polar",
    "spectrum_formula",
    "hermitian_eig",
    "matrix_of",
    "min_singular_value",
    "psd_sqrt",
    "residuals",
    "run_claim_suite",
]

__version__ = "0.1.0"
