"""weylpi: weak polynomial identities for the Weyl algebra A1 over
V = span{x, y}, with exact rewriting to completely reduced bracket-
monomials and multidegree-by-multidegree conjecture verification."""

from .bracket import BracketMonomial, Status, enumerate_completely_reduced
from .evaluation import generic_substitution, is_weak_identity, substitute_tuple
from .fields import Field
from .free_algebra import NCPoly, commutator, gamma, generator_at, st3, t4
from .identities import (
    ConjectureReport,
    identity_basis,
    ideal_span_dimension,
    two_variable_certificate,
    verify_conjecture,
)
from .parser import format_poly, parse_poly
from .rewriter import NormalForm, normal_form, semi_reduce
from .weyl import WeylElement, commutator_with_y

__all__ = [
    "BracketMonomial",
    "ConjectureReport",
    "Field",
    "NCPoly",
    "NormalForm",
    "Status",
    "WeylElement",
    "commutator",
    "commutator_with_y",
    "enumerate_completely_reduced",
    "format_poly",
    "gamma",
    "generator_at",
    "generic_substitution",
    "ideal_span_dimension",
    "identity_basis",
    "is_weak_identity",
    "normal_form",
    "parse_poly",
    "semi_reduce",
    "st3",
    "substitute_tuple",
    "t4",
    "two_variable_certificate",
    "verify_conjecture",
]
