import random
from fractions import Fraction

import pytest

from pclie import (
    Alphabet,
    AssocPoly,
    LiePoly,
    LieTree,
    NotLieElementError,
    bracket,
    enumerate_alsw,
    expand,
    is_nlsw,
    leading_word,
    left_pair_expansion,
    lie_bracket,
    nlsw_decompose,
)

from oracles import SpanReducer

A2 = Alphabet.from_decl("x > y")
A3 = Alphabet.from_decl("x > y > z")
A4 = Alphabet.from_decl("x > y > z > w")


def leaf(al, s):
    return LieTree.leaf(al, s)


def pair(a, b):
    return LieTree.pair(a, b)


def random_lie_poly(rng, alphabet, max_deg, max_terms=3, integer=True):
    words = enumerate_alsw(alphabet, max_deg)
    terms = {}
    for w in rng.sample(words, rng.randint(1, max_terms)):
        c = rng.randint(-5, 5) if integer else Fraction(
            rng.randint(-5, 5), rng.randint(1, 5)
        )
        if c:
            terms[w] = c
    return LiePoly(alphabet, terms)


def test_bracket_examples():
    assert bracket(A2.word("x")) == leaf(A2, "x")
    assert bracket(A2.word("xyy")) == pair(pair(leaf(A2, "x"), leaf(A2, "y")), leaf(A2, "y"))
    assert bracket(A2.word("xxy")) == pair(leaf(A2, "x"), pair(leaf(A2, "x"), leaf(A2, "y")))
    with pytest.raises(ValueError):
        bracket(A2.word("yx"))


def test_is_nlsw_examples():
    assert is_nlsw(leaf(A2, "y"))
    assert not is_nlsw(pair(leaf(A2, "y"), leaf(A2, "x")))
    assert is_nlsw(pair(pair(leaf(A2, "x"), leaf(A2, "y")), leaf(A2, "y")))
    # right-child condition: ((x y) y) is canonical, (x (x y)) too, but
    # gluing them the wrong way around fails the middle comparison
    bad = pair(pair(leaf(A2, "x"), pair(leaf(A2, "x"), leaf(A2, "y"))), leaf(A2, "y"))
    assert str(bad.word) == "xxyy"
    assert not is_nlsw(bad)


def test_bracket_is_nlsw_everywhere():
    # if this fails, the prefix-greater lexicographic convention is wrong
    for u in enumerate_alsw(A3, 8):
        assert is_nlsw(bracket(u))


def test_expand_examples():
    assert expand(leaf(A2, "x")) == AssocPoly.monomial(A2.word("x"))
    t = pair(leaf(A2, "x"), leaf(A2, "y"))
    assert expand(t) == AssocPoly(A2, {A2.word("xy"): 1, A2.word("yx"): -1})
    t2 = pair(t, leaf(A2, "y"))
    assert expand(t2) == AssocPoly(
        A2, {A2.word("xyy"): 1, A2.word("yxy"): -2, A2.word("yyx"): 1}
    )
    assert str(expand(t2)) == "xyy - 2 yxy + yyx"


def test_expand_degree_and_integrality():
    for u in enumerate_alsw(A3, 6):
        p = expand(bracket(u))
        for w, c in p.terms.items():
            assert len(w) == len(u)
            assert isinstance(c, int)


def test_leading_word_examples():
    p = AssocPoly(A2, {A2.word("xy"): 1, A2.word("yx"): -1})
    assert leading_word(p) == (A2.word("xy"), 1)
    with pytest.raises(ValueError):
        leading_word(AssocPoly.zero(A2))


def test_leading_word_of_bracket_expansion():
    # the expansion of [u] leads with u itself, coefficient 1
    for u in enumerate_alsw(A3, 8):
        assert leading_word(expand(bracket(u))) == (u, 1)


def test_nlsw_decompose_examples():
    yx = pair(leaf(A3, "y"), leaf(A3, "x"))
    assert nlsw_decompose(expand(yx)) == LiePoly(A3, {A3.word("xy"): -1})

    xy_z = pair(pair(leaf(A3, "x"), leaf(A3, "y")), leaf(A3, "z"))
    assert nlsw_decompose(expand(xy_z)) == LiePoly(
        A3, {A3.word("xyz"): 1, A3.word("xzy"): 1}
    )

    x_yz = pair(leaf(A3, "x"), pair(leaf(A3, "y"), leaf(A3, "z")))
    assert nlsw_decompose(expand(x_yz)) == LiePoly.basis(A3.word("xyz"))


def test_nlsw_decompose_rejects_non_lie_input():
    with pytest.raises(NotLieElementError):
        nlsw_decompose(AssocPoly.monomial(A2.word("xx")))
    with pytest.raises(NotLieElementError):
        # a bare word is not a Lie element even when it is Lyndon-Shirshov
        nlsw_decompose(AssocPoly.monomial(A2.word("xy")))


def test_decompose_inverts_coordinates():
    rng = random.Random(31)
    for _ in range(100):
        p = random_lie_poly(rng, A3, 4, integer=False)
        assert nlsw_decompose(p.to_assoc()) == p


def test_expanded_basis_is_linearly_independent():
    for deg in range(1, 6):
        red = SpanReducer()
        count = 0
        for u in enumerate_alsw(A3, deg):
            if len(u) != deg:
                continue
            assert red.add(expand(bracket(u)).terms)
            count += 1
        assert red.rank == count


def test_lie_bracket_examples():
    x, y = LiePoly.letter(A2, "x"), LiePoly.letter(A2, "y")
    assert lie_bracket(x, y) == LiePoly.basis(A2.word("xy"))
    assert lie_bracket(x, LiePoly.basis(A2.word("xy"))) == LiePoly.basis(A2.word("xxy"))
    rng = random.Random(5)
    for _ in range(20):
        p = random_lie_poly(rng, A3, 3)
        assert lie_bracket(p, p).is_zero()


def test_lie_bracket_antisymmetry_and_jacobi():
    rng = random.Random(17)
    for _ in range(60):
        p = random_lie_poly(rng, A3, 2)
        q = random_lie_poly(rng, A3, 2)
        r = random_lie_poly(rng, A3, 2)
        assert lie_bracket(p, q) == -lie_bracket(q, p)
        jac = (
            lie_bracket(lie_bracket(p, q), r)
            + lie_bracket(lie_bracket(q, r), p)
            + lie_bracket(lie_bracket(r, p), q)
        )
        assert jac.is_zero()


def test_integrality_closure():
    rng = random.Random(23)
    for _ in range(50):
        p = random_lie_poly(rng, A3, 3)
        q = random_lie_poly(rng, A3, 2)
        for c in lie_bracket(p, q).terms.values():
            assert isinstance(c, int)
        for c in p.to_assoc().terms.values():
            assert isinstance(c, int)


def test_left_pair_expansion_base_case():
    terms = left_pair_expansion("x", A3.word("y"))
    assert terms == [(1, pair(leaf(A3, "x"), leaf(A3, "y")))]


def test_left_pair_expansion_two_letters():
    terms = left_pair_expansion("x", A3.word("yz"))
    expected = [
        (1, pair(pair(leaf(A3, "x"), leaf(A3, "y")), leaf(A3, "z"))),
        (-1, pair(pair(leaf(A3, "x"), leaf(A3, "z")), leaf(A3, "y"))),
    ]
    assert terms == expected


def test_left_pair_expansion_exhaustive():
    for u in enumerate_alsw(A3, 5):
        top = max(A3.rank(s) for s in u.supp())
        for x in A3.letters:
            if A3.rank(x) <= top:
                continue
            xu = A3.word_of([x]) + u
            terms = left_pair_expansion(x, u)
            total = AssocPoly.zero(A3)
            for c, t in terms:
                total = total + expand(t).scale(c)
                assert t.word.multidegree() == xu.multidegree()
                assert t.word.supp() == xu.supp()
                assert leading_word(expand(t)) == (t.word, 1)
            assert total == expand(pair(leaf(A3, x), bracket(u)))


def test_left_pair_expansion_preconditions():
    with pytest.raises(ValueError):
        left_pair_expansion("y", A3.word("yz"))  # x must dominate strictly
    with pytest.raises(ValueError):
        left_pair_expansion("x", A3.word("zy"))  # not Lyndon-Shirshov


def test_rendering():
    p = LiePoly(A3, {A3.word("xyz"): 1, A3.word("xzy"): Fraction(-3, 2)})
    assert str(p) == "[xyz] - 3/2 [xzy]"
    assert str(LiePoly.zero(A3)) == "0"
    t = bracket(A3.word("xyz"))
    assert str(t) == "(x (y z))"


def test_cached_rendering_equals_the_recursive_rendering():
    def render(t):
        if t.left is None:
            return t.word[0]
        return f"({render(t.left)} {render(t.right)})"

    for u in enumerate_alsw(A3, 8) + enumerate_alsw(A4, 8):
        t = bracket(u)
        assert str(t) == render(t)
        assert str(t) == render(t)  # the second call reads the cache
