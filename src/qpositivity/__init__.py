"""Exact verification toolkit for positivity of q-series quotients.

Everything is integer arithmetic: polynomials are dense coefficient
tuples, quotients stay in factored q-integer form until expanded, and
division either succeeds exactly or reports NotDivisible.
"""

from .analysis import (
    PropertyRecord,
    is_parity_unimodal,
    is_reciprocal,
    is_unimodal,
    nonnegativity,
    order_of,
    property_record,
)
from .criteria import (
    CASE_LABELS,
    Case4Pattern,
    Lemma6Variant,
    NotPolynomialPattern,
    case_classify,
    corollary10_expression,
    lemma5_applicable,
    lemma5_expression,
    lemma6_degree,
    lemma6_expression,
    lemma6_order_bound,
    rational_q_catalan,
    thm8_exponent,
    thm8_is_polynomial,
    thm9_exponent,
    thm9_is_polynomial,
)
from .harness import (
    STANTON_SEQUENCE,
    CheckpointMismatch,
    CheckResult,
    SweepReport,
    crosscheck_theorems,
    normalize_quotient_spec,
    reproduce_corollary10,
    reproduce_lemma6,
    reproduce_remark25,
    reproduce_stanton,
    sweep_conjecture1,
    sweep_fake_gaussian,
    verify_fake_gaussian,
    verify_quotient,
)
from .qexpr import (
    FactoredQExpression,
    FakeGaussianSpec,
    QuotientSpec,
    expand,
    expand_via_cyclotomics,
    from_factorials,
    from_fake_gaussian,
    from_quotient_spec,
    is_polynomial,
)
from .qpoly import (
    CyclotomicCache,
    IntPolynomial,
    NotDivisible,
    cyclotomic,
    poly_mul,
)

__version__ = "0.1.0"
