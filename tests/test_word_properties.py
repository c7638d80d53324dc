"""Property tests of the Lyndon-Shirshov factorization on random words
over x > y > z > w: the factors are Lyndon-Shirshov words, concatenate to
the word, and do not decrease."""

from hypothesis import given, settings, strategies as st

from pclie import GREATER, Alphabet, compare_lex, lyndon_factorize

from oracles import is_alsw_by_rotations

A4 = Alphabet.from_decl("x > y > z > w")

PROPERTIES = settings(max_examples=300, deadline=None, derandomize=True)

words = st.lists(st.sampled_from(A4.letters), min_size=1, max_size=14).map(A4.word_of)


@PROPERTIES
@given(words)
def test_factors_are_lyndon_shirshov_concatenate_and_do_not_decrease(u):
    factors = lyndon_factorize(u)
    assert all(is_alsw_by_rotations(f) for f in factors)
    assert sum((f.ranks for f in factors), ()) == u.ranks
    assert all(compare_lex(a, b) != GREATER for a, b in zip(factors, factors[1:]))
