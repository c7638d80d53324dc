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
    clear_caches,
    complete,
    enumerate_alsw,
    expand,
    is_alsw,
    is_gsb,
    leading_word,
    lie_bracket,
    normal_s_word,
    pc_normal_form,
    reduce,
    special_bracket,
)
from pclie.quotient import CommGraph, generate_relations

from oracles import (
    expand_substituted_by_recursion,
    expand_with,
    in_span,
    normal_s_word_by_expansion,
    special_bracket_by_replacement,
    subtree_at,
)

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
    other = Alphabet.from_decl("a > b > c")
    with pytest.raises(ValueError, match="different alphabets"):
        Occurrence(A3.word("xyz"), other.word("bc"), 1)  # same ranks, other letters


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
    # [x [x y]] is the bracket of xxy; cutting it as ((x x) y) leaves no
    # subtree starting at the occurrence of xy at position 1
    import pclie.rules

    u = A2.word("xxy")
    cut = pclie.rules._standard_cut
    monkeypatch.setattr(pclie.rules, "_standard_cut", lambda r: 2 if r == u.ranks else cut(r))
    with pytest.raises(InvariantError, match="containment"):
        special_bracket(Occurrence(u, A2.word("xy"), 1))


def test_special_bracket_exhaustive_leading_word():
    rebracketed = 0
    for alphabet, max_deg in ((A3, 6), (A2, 9)):
        for u in enumerate_alsw(alphabet, max_deg):
            for i in range(len(u)):
                for j in range(i + 1, len(u) + 1):
                    v = u[i:j]
                    if not is_alsw(v):
                        continue
                    occ = Occurrence(u, v, i)
                    sb = special_bracket(occ)
                    assert sb.tree == special_bracket_by_replacement(occ)
                    assert subtree_at(sb.tree, sb.slot_path) == bracket(v)
                    assert leading_word(sb.expand()) == (u, 1)
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
    # at its own leading word the normal s-word is the body, in a dict of
    # its own: a caller changing one must not change the rule
    body = {A3.word("xyz"): 1, A3.word("xz"): Fraction(-1, 2)}
    for s in (Rule(LiePoly.basis(A2.word("xy"))), Rule(LiePoly(A3, body))):
        nsw = normal_s_word.__wrapped__(s.leading, s, 0)
        assert nsw == s.body
        assert nsw.terms is not s.body.terms


def test_normal_s_word_examples():
    s = Rule(LiePoly.basis(A2.word("xy")))
    left = normal_s_word(A2.word("xxy"), s, 1)
    assert left == lie_bracket(LiePoly.letter(A2, "x"), s.body)
    assert left.leading() == (A2.word("xxy"), 1)

    right = normal_s_word(A2.word("xyy"), s, 0)
    assert right.leading() == (A2.word("xyy"), 1)


def test_normal_s_word_builds_no_tree(monkeypatch):
    # rebracketing occurrences: the overhang of the slot's subtree is
    # refactored, so the special bracketing's tree differs from [host]
    rules = [
        Rule(LiePoly.basis(A3.word("xy"))),
        Rule(
            LiePoly(
                A3,
                {A3.word("xyz"): 1, A3.word("xzy"): 2, A3.word("xz"): Fraction(-1, 2)},
            )
        ),
    ]
    from oracles import all_words

    cases = []
    for s in rules:
        for la in range(3):
            for lb in range(1, 4):
                for a in all_words(A3, la):
                    for b in all_words(A3, lb):
                        w = a + s.leading + b
                        if not is_alsw(w):
                            continue
                        sb = special_bracket(Occurrence(w, s.leading, la))
                        if sb.tree != bracket(w):
                            cases.append((w, s, la, normal_s_word_by_expansion(w, s, la)))
    assert len(cases) > 10

    def no_tree(*args):
        raise AssertionError("normal_s_word built a tree")

    # every node, leaf or pair, is filled by LieTree._fill
    monkeypatch.setattr(LieTree, "_fill", no_tree)
    for w, s, position, expected in cases:
        assert normal_s_word.__wrapped__(w, s, position) == expected


def test_the_engine_fills_no_bracket_cache():
    # completion, the closure check and normal forms rewrite through the
    # engine's normal s-words, keyed by rank tuple and built from sibling
    # rank tuples, never from trees; the public, Word-keyed cache stays empty
    from pclie.rules import _normal_s_word

    clear_caches()
    rules = [Rule(LiePoly.basis(A3.word(w))) for w in ("xy", "yz")]
    assert len(complete(rules, 5)) > len(rules)
    g = CommGraph(A3, [("x", "y"), ("y", "z")])
    assert is_gsb(generate_relations(g, 6), 6).ok
    x, y, z = (LieTree.leaf(A3, s) for s in "xyz")
    tree = LieTree.pair(LieTree.pair(x, z), LieTree.pair(y, LieTree.pair(x, y)))
    pc_normal_form(tree, g)
    assert _normal_s_word.cache_info().currsize > 0
    assert normal_s_word.cache_info().currsize == 0
    assert bracket.cache_info().currsize == 0


def test_the_engine_builds_its_results_unchecked(monkeypatch):
    # the words of a normal s-word, a remainder, a composition or a bracket
    # are made from checked words, so the engine never checks them again
    rules = [
        Rule(LiePoly.basis(A3.word("xy"))),
        Rule(
            LiePoly(
                A3,
                {A3.word("xyz"): 1, A3.word("xzy"): 2, A3.word("xz"): Fraction(-1, 2)},
            )
        ),
    ]
    h = LiePoly(
        A3, {A3.word("xxyz"): 3, A3.word("xyzz"): Fraction(1, 2), A3.word("y"): 1}
    )
    relations = generate_relations(CommGraph(A3, [("x", "y"), ("y", "z")]), 6)
    sites = [(A3.word("xxy"), rules[0], 1), (A3.word("xyzyz"), rules[1], 0)]

    def run():
        clear_caches()
        return (
            [normal_s_word.__wrapped__(*site) for site in sites],
            reduce(h, rules),
            is_gsb(rules, 5),
            is_gsb(relations, 6),
            complete(rules, 5),
            lie_bracket(h, rules[1].body),
        )

    expected = run()
    assert not expected[2].ok and expected[3].ok and len(expected[4]) > len(rules)

    def refuse(w):
        raise AssertionError(f"the engine checked {w} again")

    monkeypatch.setattr(LiePoly, "_check_word", staticmethod(refuse))
    assert run() == expected


def test_normal_s_word_requires_lyndon_shirshov_host():
    s = Rule(LiePoly.basis(A2.word("xy")))
    with pytest.raises(ValueError, match="host .* is not a Lyndon-Shirshov word"):
        normal_s_word(A2.word("yxy"), s, 1)  # yxy is not one


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
                            nsw = normal_s_word(w, s, la)
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
                    nsw = normal_s_word(w, s, la)
                    vectors = [v.terms for v in spans[total]]
                    assert in_span(vectors, nsw.terms), str(w)
