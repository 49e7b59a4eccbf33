"""Exact differential forms over prime fields.

The package implements the calculus of algebraic differential forms in
characteristic p: the p-closedness test for exactness, a constructive
integrator for p-closed forms, the rational/irrational and completely
integrable/restricted splits, and the Cartier operator with its canonical
inverse gamma0.
"""

from .audit import run_audit
from .cartier import (
    cartier,
    class_representative,
    gamma0,
    same_class,
)
from .errors import (
    ArityMismatch,
    DegreeMismatch,
    DegreeOverflow,
    DegreeZero,
    DivisionByZero,
    FpFormsError,
    IndexOutOfRange,
    InternalError,
    InternalResidual,
    MathDomainError,
    NonPolynomial,
    NotClosed,
    NotPClosed,
    NotPthPower,
    ObstructedAntiderivative,
    ParseError,
    PrimeMismatch,
    PrimeOutOfRange,
    SystemTooLarge,
    VariableOutOfRange,
    ZeroDenominator,
)
from .forms import (
    DiffForm,
    insert_index,
    is_closed,
    merge_indices,
    remove_index,
    sorted_index_sign,
    wedge,
)
from .operators import (
    corollary_condition,
    irrational_part,
    is_p_closed,
    o_operator,
    o_operator_expanded,
    p_closed_failure,
    p_operator,
    phi,
    split_complete_restricted,
    split_rational_irrational,
)
from .parser import parse_form
from .poincare import exactness_oracle, integrate
from .poly import (
    MAX_VARIABLES,
    MultiPoly,
    degree_limit,
    max_degree_limit,
    variables,
)
from .printer import doc_to_form, form_to_doc, form_to_text
from .ratfun import RatFun, clear_denominators
from .scalar import MAX_PRIME, Prime, is_prime

__version__ = "0.1.0"

__all__ = [
    "ArityMismatch",
    "DegreeMismatch",
    "DegreeOverflow",
    "DegreeZero",
    "DiffForm",
    "DivisionByZero",
    "FpFormsError",
    "IndexOutOfRange",
    "InternalError",
    "InternalResidual",
    "MAX_PRIME",
    "MAX_VARIABLES",
    "MathDomainError",
    "MultiPoly",
    "NonPolynomial",
    "NotClosed",
    "NotPClosed",
    "NotPthPower",
    "ObstructedAntiderivative",
    "ParseError",
    "Prime",
    "PrimeMismatch",
    "PrimeOutOfRange",
    "RatFun",
    "SystemTooLarge",
    "VariableOutOfRange",
    "ZeroDenominator",
    "cartier",
    "class_representative",
    "clear_denominators",
    "corollary_condition",
    "degree_limit",
    "doc_to_form",
    "exactness_oracle",
    "form_to_doc",
    "form_to_text",
    "gamma0",
    "insert_index",
    "integrate",
    "irrational_part",
    "is_closed",
    "is_p_closed",
    "is_prime",
    "max_degree_limit",
    "merge_indices",
    "o_operator",
    "o_operator_expanded",
    "p_closed_failure",
    "p_operator",
    "parse_form",
    "phi",
    "remove_index",
    "run_audit",
    "same_class",
    "sorted_index_sign",
    "split_complete_restricted",
    "split_rational_irrational",
    "variables",
    "wedge",
]
