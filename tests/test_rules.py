from fractions import Fraction

import pytest

from pclie import (
    Alphabet,
    AssocPoly,
    InvariantError,
    LiePoly,
    LieTree,
    Occurrence,
    Rule,
    bracket,
    enumerate_alsw,
    expand,
    is_alsw,
    leading_word,
    lie_bracket,
    normal_s_word,
    special_bracket,
)
from pclie.quotient import CommGraph, generate_relations

from oracles import expand_substituted_by_recursion, expand_with, in_span

A2 = Alphabet.from_decl("x > y")
A3 = Alphabet.from_decl("x > y > z")


def test_rule_validation():
    r = Rule(LiePoly.basis(A2.word("xy")))
    assert r.leading == A2.word("xy")
    with pytest.raises(ValueError):
        Rule(LiePoly(A2, {A2.word("xy"): 2}))
    with pytest.raises(ValueError):
        Rule(LiePoly.zero(A2))
    m = Rule.monic(LiePoly(A2, {A2.word("xy"): Fraction(-2, 3), A2.word("x"): 1}))
    assert m.body.terms[A2.word("xy")] == 1
    assert m.body.terms[A2.word("x")] == Fraction(-3, 2)


def test_occurrence_validation():
    Occurrence(A3.word("xyz"), A3.word("yz"), 1)
    with pytest.raises(ValueError):
        Occurrence(A3.word("xyz"), A3.word("yz"), 0)  # wrong position
    with pytest.raises(ValueError):
        Occurrence(A3.word("zyx"), A3.word("yx"), 1)  # host not Lyndon-Shirshov
    with pytest.raises(ValueError):
        Occurrence(A3.word("xzy"), A3.word("zy"), 1)  # subword not Lyndon-Shirshov


def test_special_bracket_trivial_occurrence():
    u = A3.word("xyz")
    sb = special_bracket(Occurrence(u, u, 0))
    assert sb.tree == bracket(u)
    assert sb.slot_path == ()


def test_special_bracket_examples():
    u = A3.word("xyz")
    sb = special_bracket(Occurrence(u, A3.word("yz"), 1))
    assert sb.tree == bracket(u)  # c and d empty: nothing moves
    assert sb.slot() == bracket(A3.word("yz"))

    sb2 = special_bracket(Occurrence(u, A3.word("xy"), 0))
    # the subtree spanning from 0 is the whole tree; overhang z refactors
    assert str(sb2.tree) == "((x y) z)"
    assert sb2.tree != bracket(u)
    assert leading_word(sb2.expand()) == (u, 1)


def test_special_bracket_containment_failure_is_an_invariant_error(monkeypatch):
    # [x [x y]] is the bracket of xxy; ((x x) y) has no subtree starting at
    # the occurrence of xy at position 1
    import pclie.rules

    u = A2.word("xxy")
    x, y = (LieTree.leaf(A2, s) for s in "xy")
    wrong = LieTree.pair(LieTree.pair(x, x), y)
    monkeypatch.setattr(pclie.rules, "bracket", lambda w: wrong if w == u else bracket(w))
    with pytest.raises(InvariantError, match="containment"):
        special_bracket(Occurrence(u, A2.word("xy"), 1))


def test_special_bracket_exhaustive_leading_word():
    rebracketed = 0
    for u in enumerate_alsw(A3, 6):
        for i in range(len(u)):
            for j in range(i + 1, len(u) + 1):
                v = u[i:j]
                if not is_alsw(v):
                    continue
                sb = special_bracket(Occurrence(u, v, i))
                assert leading_word(sb.expand()) == (u, 1)
                assert sb.slot() == bracket(v)
                assert expand_with(sb, expand(sb.slot())) == sb.expand()
                repl = AssocPoly.monomial(v)
                assert expand_with(sb, repl) == expand_substituted_by_recursion(
                    sb.tree, sb.slot_path, repl
                )
                if sb.tree != bracket(u):
                    rebracketed += 1
    # plenty of occurrences genuinely change the tree shape
    assert rebracketed > 0


def test_normal_s_word_identity_case():
    s = Rule(LiePoly.basis(A2.word("xy")))
    empty = A2.empty_word()
    assert normal_s_word(empty, s, empty) == s.body


def test_normal_s_word_examples():
    s = Rule(LiePoly.basis(A2.word("xy")))
    left = normal_s_word(A2.word("x"), s, A2.empty_word())
    assert left == lie_bracket(LiePoly.letter(A2, "x"), s.body)
    assert left.leading() == (A2.word("xxy"), 1)

    right = normal_s_word(A2.empty_word(), s, A2.word("y"))
    assert right.leading() == (A2.word("xyy"), 1)


def test_normal_s_word_requires_lyndon_shirshov_host():
    s = Rule(LiePoly.basis(A2.word("xy")))
    with pytest.raises(ValueError, match="host .* is not a Lyndon-Shirshov word"):
        normal_s_word(A2.word("y"), s, A2.empty_word())  # yxy is not one


def test_normal_s_word_leading_for_commutation_rules():
    graphs = [
        CommGraph(A3, [("x", "y")]),
        CommGraph(A3, [("x", "y"), ("y", "z")]),
        CommGraph(A3, [("x", "y"), ("x", "z"), ("y", "z")]),
    ]
    from oracles import all_words

    for g in graphs:
        for s in generate_relations(g, 4):
            k = len(s.leading)
            for total in range(k, 7):
                for la in range(0, total - k + 1):
                    lb = total - k - la
                    for a in all_words(A3, la):
                        for b in all_words(A3, lb):
                            w = a + s.leading + b
                            if not is_alsw(w):
                                continue
                            nsw = normal_s_word(a, s, b)
                            assert nsw.leading() == (w, 1)


def test_normal_s_word_lies_in_the_ideal():
    # brute-force membership: the degree-n slice of the ideal of s is
    # spanned by iterated letter brackets of the body
    s = Rule(LiePoly.basis(A3.word("xy")))
    letters = [LiePoly.letter(A3, sym) for sym in A3.letters]
    layer = [s.body]
    spans = {2: [s.body]}
    for deg in range(3, 6):
        layer = [lie_bracket(l, v) for v in layer for l in letters]
        spans[deg] = layer
    from oracles import all_words

    for total in range(2, 6):
        for la in range(0, total - 1):
            lb = total - 2 - la
            if lb < 0:
                continue
            for a in all_words(A3, la):
                for b in all_words(A3, lb):
                    w = a + s.leading + b
                    if not is_alsw(w):
                        continue
                    nsw = normal_s_word(a, s, b)
                    vectors = [v.terms for v in spans[total]]
                    assert in_span(vectors, nsw.terms), str(w)
