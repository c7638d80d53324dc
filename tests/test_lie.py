import random
from fractions import Fraction

import pytest

from pclie import (
    Alphabet,
    AssocPoly,
    LiePoly,
    LieTree,
    NotLieElementError,
    Rule,
    Word,
    bracket,
    clear_caches,
    enumerate_alsw,
    expand,
    is_alsw,
    is_nlsw,
    leading_word,
    left_pair_expansion,
    lie_bracket,
    nlsw_decompose,
    normal_s_word,
    tree_value,
)

from oracles import (
    SpanReducer,
    all_words,
    bracket_by_standard_splits,
    is_nlsw_by_hall_condition,
    lie_bracket_by_expansion,
    normal_s_word_by_expansion,
    tree_value_by_expansion,
)

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
    with pytest.raises(ValueError):
        bracket(A2.empty_word())


def test_bracket_matches_the_standard_split_oracle():
    for alphabet, max_deg in ((A2, 14), (A3, 9), (A4, 7)):
        for u in enumerate_alsw(alphabet, max_deg):
            assert bracket(u) == bracket_by_standard_splits(u), u


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


def all_trees(alphabet, max_deg):
    """Every binary tree with leaves from the alphabet, up to max_deg leaves."""
    by_deg = {1: [LieTree.leaf(alphabet, s) for s in alphabet.letters]}
    for n in range(2, max_deg + 1):
        by_deg[n] = [
            pair(l, r) for i in range(1, n) for l in by_deg[i] for r in by_deg[n - i]
        ]
    return [t for n in range(1, max_deg + 1) for t in by_deg[n]]


def test_is_nlsw_matches_the_hall_condition():
    trees = all_trees(A2, 7) + all_trees(A3, 5)
    canonical = 0
    for t in trees:
        got = is_nlsw(t)
        assert got == is_nlsw_by_hall_condition(t), str(t)
        canonical += got
    # the canonical trees are the brackets of the Lyndon-Shirshov words
    assert canonical == len(enumerate_alsw(A2, 7)) + len(enumerate_alsw(A3, 5))


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


def test_basis_bracket_matches_the_expansion_exhaustively():
    # every ordered pair of Lyndon-Shirshov words on x > y > z of total
    # length <= 8 (the recursion on standard splits goes four levels deep
    # there), against the decomposed commutator of the expansions
    words = enumerate_alsw(A3, 7)
    checked = 0
    for u in words:
        for v in words:
            if len(u) + len(v) > 8:
                continue
            p, q = LiePoly.basis(u), LiePoly.basis(v)
            assert lie_bracket(p, q) == lie_bracket_by_expansion(p, q), (u, v)
            checked += 1
    assert checked == 5632


def test_alphabets_of_one_size_keep_their_own_words():
    # x > y > z and a > b > c have the same rank tuples.  The basis bracket
    # table is keyed by rank tuples and serves both; the polynomials carry
    # their alphabet, so interleaved calls on the two return words of their
    # own alphabet
    B3 = Alphabet.from_decl("a > b > c")
    rng = random.Random(31)

    def shape(leaves):
        if leaves == 1:
            return rng.randrange(3)
        k = rng.randint(1, leaves - 1)
        return shape(k), shape(leaves - k)

    def tree(al, s):
        if isinstance(s, int):
            return LieTree(Word(al, (s,)), None, None)
        return LieTree.pair(tree(al, s[0]), tree(al, s[1]))

    def rule(al, body):
        return Rule(LiePoly(al, {Word(al, r): c for r, c in body.items()}))

    words = [w.ranks for w in enumerate_alsw(A3, 4)]
    pairs = [(u, v) for u in words for v in words if u != v and len(u) + len(v) <= 6]
    shapes = [shape(rng.randint(2, 7)) for _ in range(60)]
    # [xy], and the rule leading with xyz of test_rules
    bodies = [{(2, 1): 1}, {(2, 1, 0): 1, (2, 0, 1): 2, (2, 0): Fraction(-1, 2)}]
    s_words = []
    for body in bodies:
        lead = rule(A3, body).leading.ranks
        for a in (w.ranks for n in range(3) for w in all_words(A3, n)):
            for b in (w.ranks for n in range(1, 3) for w in all_words(A3, n)):
                if is_alsw(Word(A3, a + lead + b)):
                    s_words.append((a, body, b))
    assert len(pairs) > 300 and len(s_words) > 20

    results = []

    def check(al, got, expected):
        assert got == expected
        assert all(w.alphabet == al for w in got.terms)
        results.append(got)

    clear_caches()
    for i in range(max(len(pairs), len(shapes), len(s_words))):
        for al in (A3, B3):
            if i < len(pairs):
                p, q = (LiePoly.basis(Word(al, r)) for r in pairs[i])
                check(al, lie_bracket(p, q), lie_bracket_by_expansion(p, q))
            if i < len(shapes):
                t = tree(al, shapes[i])
                check(al, tree_value(t), tree_value_by_expansion(t))
            if i < len(s_words):
                a, body, b = s_words[i]
                s = rule(al, body)
                args = Word(al, a + s.leading.ranks + b), s, len(a)
                check(al, normal_s_word(*args), normal_s_word_by_expansion(*args))
    assert sum(1 for r in results if r) > 800


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


def test_a_repeated_word_in_a_term_list_is_refused():
    # a pair list that repeats a word gives it no one coefficient (the sum?
    # the last one?), so it is refused whatever the coefficients; a dict
    # cannot repeat a word
    xz = A3.word("xz")
    for cls, w in ((LiePoly, A3.word("xy")), (AssocPoly, A3.word("yx"))):
        for a, b in ((1, -1), (1, 2), (5, 0), (0, 5)):
            with pytest.raises(ValueError, match=f"repeated word {w} "):
                cls(A3, [(w, a), (xz, 1), (w, b)])
        assert cls(A3, [(w, 2), (xz, 0)]).terms == cls(A3, {w: 2, xz: 0}).terms == {w: 2}


def test_lie_poly_refuses_outside_input():
    # a word that is not Lyndon-Shirshov, or one of another alphabet, is
    # refused in a dict and in a pair list alike (a repeated pair: above)
    other = Alphabet.from_decl("a > b > c")
    xy = A3.word("xy")
    cases = (
        (A3.word("yx"), "not a Lyndon-Shirshov word"),
        (other.word("ab"), "mixed alphabets"),
    )
    for w, message in cases:
        for terms in ({xy: 1, w: 2}, [(xy, 1), (w, 2)], {w: 0}):
            with pytest.raises(ValueError, match=message):
                LiePoly(A3, terms)
    with pytest.raises(ValueError, match="not a Lyndon-Shirshov word"):
        LiePoly.basis(A3.word("xyx"))
    # a tree's leaves are its input: a leaf is one letter, so a longer
    # leaf word is refused, a basis word too
    for w in (A3.word("yx"), xy, A3.empty_word()):
        with pytest.raises(ValueError, match="a leaf is one letter"):
            LieTree(w, None, None)


def test_trees_with_one_word_and_one_text_cannot_be_told_apart():
    # with longer leaf words, s = (x [xyxyy]) and t = ([xxy] [xyy]) on
    # x > y would both print (x x), compare equal and share expand's
    # cache, while tree_value read a leaf as a basis element and expand
    # as a monomial; those leaves are refused, and the trees s and t stand
    # for keep their own texts, values and expansions
    for w in ("xyxyy", "xxy", "xyy"):
        with pytest.raises(ValueError, match="a leaf is one letter"):
            LieTree(A2.word(w), None, None)
    s = LieTree.pair(LieTree.leaf(A2, "x"), bracket(A2.word("xyxyy")))
    t = LieTree.pair(bracket(A2.word("xxy")), bracket(A2.word("xyy")))
    assert s.word == t.word
    assert str(s) != str(t) and s != t
    clear_caches()
    assert expand(s) is not expand(t)
    for tree in (s, t):
        assert expand(tree) == tree_value(tree).to_assoc()
    assert tree_value(s) != tree_value(t)


def test_a_bool_coefficient_is_refused():
    # bool is a subclass of int, but True is no coefficient: it would be
    # stored and printed as True
    xy = A3.word("xy")
    message = "coefficients must be int or Fraction, got bool"
    for terms in ({xy: True}, [(xy, False)]):
        with pytest.raises(TypeError, match=message):
            LiePoly(A3, terms)
    with pytest.raises(TypeError, match=message):
        LiePoly.basis(xy).scale(True)
    assert LiePoly(A3, {xy: Fraction(4, 2)}).terms == {xy: 2}


def test_terms_is_a_fresh_word_keyed_dict():
    # terms is built from the stored format at each read: a new dict from
    # word to exact coefficient, which the caller may change freely
    xy, xz, yx = A3.word("xy"), A3.word("xz"), A3.word("yx")
    for p in (
        LiePoly(A3, {xy: Fraction(3, 7), xz: -2}),
        AssocPoly(A3, {yx: Fraction(1, 2), xz: Fraction(4, 6)}),
        LiePoly.zero(A3),
    ):
        before = (str(p), p.items_deglex(), p.scale(2))
        terms = p.terms
        assert terms == p.terms and terms is not p.terms
        assert all(type(w) is Word and w.alphabet == A3 for w in terms)
        assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in terms.values())
        terms[xy] = 5
        terms.pop(xz, None)
        assert (str(p), p.items_deglex(), p.scale(2)) == before
        assert p == type(p)(A3, p.terms)


def test_a_zero_scalar_adds_nothing():
    from pclie.lie import _axpy

    dst = {(2, 1): 3}
    _axpy(dst, 0, {(2, 0): 5, (2, 1): 1})
    assert dst == {(2, 1): 3}
    _axpy(dst, -3, {(2, 0): 5, (2, 1): 1})
    assert dst == {(2, 0): -15}


def test_stored_text_equals_the_recursive_rendering():
    def render(t):
        if t.left is None:
            return t.word[0]
        return f"({render(t.left)} {render(t.right)})"

    for u in enumerate_alsw(A3, 8) + enumerate_alsw(A4, 8):
        t = bracket(u)
        assert str(t) == render(t)
        assert str(t) == render(t)


def test_deep_trees_print_and_compare():
    # a tree's text is made with the tree, and comparing two trees compares
    # their texts, so neither printing nor equality recurses
    x, y = LieTree.leaf(A2, "x"), LieTree.leaf(A2, "y")

    def comb(t, depth):
        for _ in range(depth):
            t = LieTree.pair(t, y)
        return t

    t = comb(x, 1500)
    assert str(t).count("(") == 1500
    assert str(t).startswith("(" * 1500 + "x y) y)")
    assert t == comb(x, 1500)
    regrouped = comb(LieTree.pair(x, LieTree.pair(y, y)), 1498)
    assert regrouped.word == t.word
    assert regrouped != t


def test_tree_value_of_a_deep_tree():
    # bracket(x y^3000) is a comb 3000 levels deep, far past the recursion
    # limit; its value is the one basis element
    w = A2.word("x" + "y" * 3000)
    assert tree_value(bracket(w)) == LiePoly.basis(w)
    # a subtree shared by two parents is evaluated at each place
    x, y = leaf(A2, "x"), leaf(A2, "y")
    xy = pair(x, y)
    shared = pair(pair(xy, y), pair(x, xy))
    assert shared.right.right is shared.left.left
    assert tree_value(shared) == tree_value_by_expansion(shared)
    clear_caches()
