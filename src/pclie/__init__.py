"""Lyndon-Shirshov word calculus, Groebner-Shirshov rewriting for free Lie
algebras, and normal forms and graded bases of free partially commutative
Lie algebras, over exact rational coefficients."""

from .words import (
    LESS,
    EQUAL,
    GREATER,
    Alphabet,
    Word,
    compare_deglex,
    compare_lex,
    deglex_key,
    enumerate_alsw,
    is_alsw,
    lyndon_factorize,
    standard_split,
)
from .lie import (
    AssocPoly,
    LiePoly,
    LieTree,
    NotLieElementError,
    bracket,
    commutator,
    expand,
    is_nlsw,
    leading_word,
    left_pair_expansion,
    lie_bracket,
    nlsw_decompose,
)
from .rules import (
    InvariantError,
    Occurrence,
    Rule,
    SpecialBracketing,
    normal_s_word,
    special_bracket,
)
from .gsb import (
    Ambiguity,
    GsbReport,
    ReductionStep,
    ReductionTrace,
    complete,
    composition,
    find_ambiguities,
    is_gsb,
    reduce,
)
from .quotient import (
    CommGraph,
    GradedBasis,
    assoc_hilbert_series,
    clique_polynomial,
    clique_series_dims,
    generate_relations,
    graded_dimensions,
    irr_basis,
    irr_words,
    pc_normal_form,
    rhd,
    verify_relations,
)
from .expr import ExprAst, ParseError, parse_expr

__version__ = "0.1.0"
