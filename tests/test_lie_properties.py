"""Property tests of the Lie-native arithmetic: the bracket of basis
coordinates is antisymmetric, satisfies the Jacobi identity and agrees
with the associative route, and so do the values of random trees in the
expression front end and in the normal form.  The normal form is
idempotent and supported on the basis words of its graph."""

import functools
import itertools
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from pclie import (
    Alphabet,
    ExprAst,
    LiePoly,
    LieTree,
    enumerate_alsw,
    irr_words,
    lie_bracket,
    pc_normal_form,
    tree_value,
)
from pclie.quotient import CommGraph

from oracles import lie_bracket_by_expansion, tree_value_by_expansion

A4 = Alphabet.from_decl("x > y > z > w")
PAIRS4 = list(itertools.combinations(A4.letters, 2))

PROPERTIES = settings(max_examples=150, deadline=None, derandomize=True)

coefficients = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
)


def lie_polys(max_deg):
    words = enumerate_alsw(A4, max_deg)
    return st.dictionaries(st.sampled_from(words), coefficients, max_size=3).map(
        lambda terms: LiePoly(A4, terms)
    )


trees = st.recursive(
    st.sampled_from(A4.letters).map(lambda s: LieTree.leaf(A4, s)),
    lambda kids: st.tuples(kids, kids).map(lambda lr: LieTree.pair(*lr)),
    max_leaves=8,
)


@st.composite
def nonzero_trees(draw, max_deg):
    """A tree of degree 2..max_deg, each degree alike, with a non-zero value."""

    def build(n):
        if n == 1:
            return LieTree.leaf(A4, draw(st.sampled_from(A4.letters)))
        k = draw(st.integers(1, n - 1))
        return LieTree.pair(build(k), build(n - k))

    tree = build(draw(st.integers(2, max_deg)))
    assume(not tree_value(tree).is_zero())
    return tree


@PROPERTIES
@given(lie_polys(4), lie_polys(4))
def test_bracket_is_antisymmetric_and_matches_the_expansion(p, q):
    pq = lie_bracket(p, q)
    assert pq == -lie_bracket(q, p)
    assert pq == lie_bracket_by_expansion(p, q)


@PROPERTIES
@given(lie_polys(3), lie_polys(3), lie_polys(3))
def test_bracket_satisfies_the_jacobi_identity(p, q, r):
    jac = (
        lie_bracket(lie_bracket(p, q), r)
        + lie_bracket(lie_bracket(q, r), p)
        + lie_bracket(lie_bracket(r, p), q)
    )
    assert jac.is_zero()


@PROPERTIES
@given(st.lists(st.tuples(coefficients, trees), min_size=1, max_size=3))
def test_expression_value_matches_the_expansion(parts):
    expected = LiePoly.zero(A4)
    for c, tree in parts:
        expected = expected + tree_value_by_expansion(tree).scale(c)
    assert ExprAst(A4, tuple(parts)).to_lie_poly() == expected


@PROPERTIES
@given(trees, st.sets(st.sampled_from(PAIRS4)))
def test_normal_form_of_a_tree_matches_the_expansion(tree, edges):
    graph = CommGraph(A4, edges)
    expected = pc_normal_form(tree_value_by_expansion(tree), graph)
    assert pc_normal_form(tree, graph) == expected


@functools.lru_cache(maxsize=None)
def basis_words(edges):
    return frozenset(irr_words(CommGraph(A4, edges), 7))


@settings(PROPERTIES, max_examples=300)
@given(nonzero_trees(7), st.frozensets(st.sampled_from(PAIRS4)))
def test_normal_form_is_idempotent_and_supported_on_the_basis(tree, edges):
    graph = CommGraph(A4, edges)
    nf = pc_normal_form(tree, graph)
    assert pc_normal_form(nf, graph) == nf
    assert set(nf.terms) <= basis_words(edges)
