"""Exact commutative-algebra toolkit over prime fields: tangent cones,
graded quotient rings, Koszul and stabilized local cohomology, and
mechanical descent checkers between a filtered ring and its graded cone.
"""

from .errors import (AmbientMismatchError, FormringError, NotHomogeneousError,
                     NotInIrrelevantError, ParseError, RangeLimitError,
                     SaturationLimitError, SizeLimitError, ZeroRingError)
from .poly import (DEGREVLEX, ELIM_LAST, LEX, MAX_CHARACTERISTIC, PolyRing,
                   Polynomial, TermOrder, is_prime)
from .groebner import (GroebnerBasis, Ideal, buchberger, initial_forms_ideal,
                       intersect, monomials_of_degree, normal_form,
                       s_polynomial, saturate_by_variable, standard_monomials)
from .graded import GradedQuotientRing
from .koszul import (CohomologyPiece, KoszulComplexSpec, cochain_dim,
                     chain_multiplication, comparison_rank, differential,
                     koszul_cohomology_piece, transition_cochain)
from .localcoh import (CohomologyTable, StabilizationConfig, StabilizedEntry,
                       annihilator_is_irrelevant, local_coh_piece,
                       local_coh_table)
from .descent import (AdmissibleSet, DescentReport, LocalH0Report, Verdict,
                      degree_gap_check, descent_verdict, length_comparison_check,
                      local_h0_report, quasi_buchsbaum_test, stuckrad_test,
                      two_diagonal_check)
from .dsl import Session, parse_session, pretty_print

__version__ = "0.1.0"

__all__ = [
    "AmbientMismatchError", "FormringError", "NotHomogeneousError",
    "NotInIrrelevantError", "ParseError", "RangeLimitError",
    "SaturationLimitError", "SizeLimitError",
    "ZeroRingError",
    "DEGREVLEX", "ELIM_LAST", "LEX", "MAX_CHARACTERISTIC",
    "PolyRing", "Polynomial", "TermOrder", "is_prime",
    "GroebnerBasis", "Ideal", "buchberger", "initial_forms_ideal",
    "intersect", "monomials_of_degree", "normal_form", "s_polynomial",
    "saturate_by_variable", "standard_monomials",
    "GradedQuotientRing",
    "CohomologyPiece", "KoszulComplexSpec", "cochain_dim",
    "chain_multiplication", "comparison_rank", "differential",
    "koszul_cohomology_piece", "transition_cochain",
    "CohomologyTable", "StabilizationConfig", "StabilizedEntry",
    "annihilator_is_irrelevant", "local_coh_piece", "local_coh_table",
    "AdmissibleSet", "DescentReport", "LocalH0Report", "Verdict",
    "degree_gap_check", "descent_verdict", "length_comparison_check",
    "local_h0_report", "quasi_buchsbaum_test", "stuckrad_test",
    "two_diagonal_check",
    "Session", "parse_session", "pretty_print",
    "__version__",
]
