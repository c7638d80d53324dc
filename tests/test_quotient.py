import functools
import itertools
import random
from fractions import Fraction

import pytest

from pclie import (
    Alphabet,
    LiePoly,
    LieTree,
    Word,
    bracket,
    clear_caches,
    compare_lex,
    enumerate_alsw,
    expand,
    is_nlsw,
    nlsw_decompose,
)
from pclie.gsb import ReductionStep, ReductionTrace, _rewrite, reduce
from pclie import quotient
from pclie.lie import _Poly
from pclie.quotient import (
    CommGraph,
    _least_pattern,
    _pattern_spans,
    assoc_hilbert_series,
    clique_polynomial,
    clique_series_dims,
    contains_pattern,
    generate_relations,
    graded_dimensions,
    irr_basis,
    irr_words,
    pc_normal_form,
    rhd,
    verify_relations,
)

from oracles import (
    all_words,
    irr_words_by_screening,
    is_alsw_by_splits,
    multidegree_series_dims,
    pattern_spans_by_definition,
    product_formula_series,
    witt_count,
)

A2 = Alphabet.from_decl("x > y")
A3 = Alphabet.from_decl("x > y > z")
A4 = Alphabet.from_decl("x > y > z > w")

PAIRS3 = [("x", "y"), ("x", "z"), ("y", "z")]
PAIRS4 = list(itertools.combinations(A4.letters, 2))


def all_graphs(alphabet, pairs):
    for k in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, k):
            yield CommGraph(alphabet, edges)


def leaf(s, al=A3):
    return LieTree.leaf(al, s)


def pair(a, b):
    return LieTree.pair(a, b)


def test_graph_construction_and_parsing():
    g = CommGraph.parse("# comment\nx > y > z\n\nx y  # inline\ny z\n")
    assert g.alphabet == A3
    assert g.has_edge("x", "y") and g.has_edge("y", "x")
    assert not g.has_edge("x", "z")
    with pytest.raises(ValueError):
        CommGraph(A3, [("x", "x")])
    with pytest.raises(ValueError):
        CommGraph(A3, [("x", "q")])
    with pytest.raises(ValueError):
        CommGraph.parse("x > y\nx y z\n")
    with pytest.raises(ValueError):
        CommGraph.parse("   \n# nothing\n")


def test_a_graph_file_builds_one_graph(monkeypatch):
    # each edge line is checked on its own, so that an error names its
    # line, and the graph is built once, from the whole file
    built = []
    init = CommGraph.__init__
    monkeypatch.setattr(CommGraph, "__init__", lambda self, *args: built.append(init(self, *args)))
    g = CommGraph.parse("x > y > z > w\nx y\nz x\ny z\nz w\n")
    assert len(built) == 1 and g.edges == {(2, 3), (1, 3), (1, 2), (0, 1)}
    for text, message in (
        ("x > y\nx x\n", r"line 2: .* irreflexive: \(x,x\)"),
        ("x > y\n\nx q\n", "line 3: unknown letter 'q'"),
    ):
        with pytest.raises(ValueError, match=message):
            CommGraph.parse(text)


def test_rhd_examples():
    g = CommGraph(A2, [("x", "y")])
    assert rhd("x", "y", g)
    assert not rhd("y", "x", g)
    assert not rhd("x", "y", CommGraph(A2, []))
    with pytest.raises(ValueError):
        rhd("x", "q", g)


def test_generate_relations_examples():
    g = CommGraph(A2, [("x", "y")])
    assert [str(r.leading) for r in generate_relations(g, 5)] == ["xy"]

    complete3 = CommGraph(A3, PAIRS3)
    leads = {str(r.leading) for r in generate_relations(complete3, 3)}
    assert leads == {"xy", "xz", "yz", "xzy"}

    assert generate_relations(CommGraph(A3, []), 6) == []
    with pytest.raises(ValueError):
        generate_relations(g, 1)


def test_generate_relations_bodies_are_basis_words():
    g = CommGraph(A3, [("x", "y"), ("y", "z")])
    for r in generate_relations(g, 6):
        assert r.body == LiePoly.basis(r.leading)
        assert nlsw_decompose(expand(bracket(r.leading))) == r.body


def test_irr_basis_fixtures():
    # the trees are built within the call: no canonical bracket is cached
    clear_caches()
    assert irr_basis(CommGraph(A3, []), 6).dimensions() == [3, 3, 8, 18, 48, 116]
    assert bracket.cache_info().currsize == 0

    g = CommGraph(A2, [("x", "y")])
    basis = irr_basis(g, 5)
    assert basis.dimensions() == [2, 0, 0, 0, 0]
    assert {str(t.word) for t in basis.trees(1)} == {"x", "y"}

    star = CommGraph(A3, [("x", "y"), ("x", "z")])
    assert irr_basis(star, 3).dimensions() == [3, 1, 2]

    free2 = CommGraph(A2, [])
    assert irr_basis(free2, 5).dimensions() == [2, 1, 2, 3, 6]


def test_graded_basis_refuses_a_degree_outside_its_range():
    basis = irr_basis(CommGraph(A3, [("x", "y")]), 3)
    assert [len(basis.trees(d)) for d in (1, 2, 3)] == basis.dimensions()
    for degree in (0, -1, 4):
        with pytest.raises(ValueError, match=f"degree {degree} is outside 1..3"):
            basis.trees(degree)


def basis_structure_cases():
    yield CommGraph(A3, [("x", "y"), ("y", "z")]), 5
    for g in all_graphs(A4, PAIRS4):
        yield g, 7
    for g in all_graphs(A3, PAIRS3):
        yield g, 9


def test_irr_basis_structure():
    # each tree, built from earlier basis trees, against the canonical
    # bracketing by standard splits, rendering included
    for g, max_deg in basis_structure_cases():
        basis = irr_basis(g, max_deg)
        for degree in range(1, max_deg + 1):
            for t in basis.trees(degree):
                assert is_nlsw(t)
                assert t == bracket(t.word) and str(t) == str(bracket(t.word)), g
                assert not contains_pattern(g, t.word)
        md = basis.multidegree_dimensions()
        assert sum(md.values()) == sum(basis.dimensions())
        assert all(sum(k) <= max_deg for k in md)


def test_irr_words_equal_the_screened_enumeration():
    # the pruned generator against enumerate-then-screen, order included
    for g in all_graphs(A4, PAIRS4):
        assert irr_words(g, 7) == irr_words_by_screening(g, 7), g
    for g in all_graphs(A3, PAIRS3):
        assert irr_words(g, 9) == irr_words_by_screening(g, 9), g


def test_irr_words_equal_the_definition_on_all_words():
    # shares no generator with irr_words or irr_words_by_screening (both
    # run Duval's loop): every word, kept when Lyndon-Shirshov by its
    # definition and free of patterns by theirs.  all_words runs through
    # each length in ascending rank order, so the list is deg-lex
    # ascending, and irr_words must match it in order too
    def expected(graph, lsw):
        return [
            u for u in lsw if next(pattern_spans_by_definition(graph, u.ranks), None) is None
        ]

    lsw4 = [u for n in range(1, 6) for u in all_words(A4, n) if is_alsw_by_splits(u)]
    for g in all_graphs(A4, PAIRS4):
        assert irr_words(g, 5) == expected(g, lsw4), g
    a5 = Alphabet.from_decl("a > b > c > d > e")
    lsw5 = [u for n in range(1, 6) for u in all_words(a5, n) if is_alsw_by_splits(u)]
    pairs5 = list(itertools.combinations(a5.letters, 2))
    rng = random.Random(11)
    for _ in range(40):
        g = CommGraph(a5, [e for e in pairs5 if rng.random() < 0.5])
        assert irr_words(g, 5) == expected(g, lsw5), g


def test_multidegree_dimensions_match_the_clique_polynomial():
    for g in all_graphs(A4, PAIRS4):
        assert irr_basis(g, 6).multidegree_dimensions() == multidegree_series_dims(g, 6), g


def test_graded_dimensions_fixtures():
    for n, al in ((2, A2), (3, A3)):
        pairs = list(itertools.combinations(al.letters, 2))
        complete = CommGraph(al, pairs)
        dims = graded_dimensions(complete, 5)
        assert dims == [n] + [0] * 4

    empty3 = CommGraph(A3, [])
    assert graded_dimensions(empty3, 6) == [witt_count(3, n) for n in range(1, 7)]

    star = CommGraph(A3, [("x", "y"), ("x", "z")])
    assert graded_dimensions(star, 5) == [3, 1, 2, 3, 6]


def test_clique_series_fixtures():
    star = CommGraph(A3, [("x", "y"), ("x", "z")])
    # cliques: empty, three vertices, two edges -> 1 - 3t + 2t^2
    assert clique_polynomial(star) == [1, -3, 2]
    assert assoc_hilbert_series(star, 3) == [1, 3, 7, 15]
    assert clique_series_dims(star, 3) == [3, 1, 2]

    complete2 = CommGraph(A2, [("x", "y")])
    assert clique_series_dims(complete2, 4) == [2, 0, 0, 0]

    empty2 = CommGraph(A2, [])
    assert clique_series_dims(empty2, 5) == [2, 1, 2, 3, 6]


def test_product_formula_reproduces_the_series():
    # hand-checkable direction: (1-t)^-3 (1-t^2)^-1 (1-t^3)^-2 ... rebuilt
    # from the extracted dimensions must match the associative series
    star = CommGraph(A3, [("x", "y"), ("x", "z")])
    dims = clique_series_dims(star, 6)
    assert product_formula_series(dims, 6) == assoc_hilbert_series(star, 6)
    for g in all_graphs(A3, PAIRS3):
        dims = clique_series_dims(g, 6)
        assert product_formula_series(dims, 6) == assoc_hilbert_series(g, 6)


def test_dimension_oracles_agree():
    for g in all_graphs(A3, PAIRS3):
        assert graded_dimensions(g, 8) == clique_series_dims(g, 8)


def test_verify_relations_small_graphs():
    for g in all_graphs(A2, [("x", "y")]):
        assert verify_relations(g, 6).ok
    for g in all_graphs(A3, PAIRS3):
        assert verify_relations(g, 6).ok


@pytest.mark.slow
def test_every_five_letter_graph_at_degree_7():
    # the theorem at scale: on all 1 024 graphs on five ordered letters the
    # relations are closed under composition and the pattern-free words
    # have the clique-series dimensions (about a minute)
    a5 = Alphabet.from_decl("v > w > x > y > z")
    graphs = list(all_graphs(a5, list(itertools.combinations(a5.letters, 2))))
    assert len(graphs) == 1024
    for g in graphs:
        assert verify_relations(g, 7).ok, g
        assert graded_dimensions(g, 7) == clique_series_dims(g, 7), g


def test_pc_normal_form_examples():
    g = CommGraph(A2, [("x", "y")])
    assert pc_normal_form(pair(leaf("x", A2), leaf("y", A2)), g).is_zero()

    gxz = CommGraph(A3, [("x", "z")])
    t = pair(pair(leaf("x"), leaf("y")), leaf("z"))
    assert pc_normal_form(t, gxz) == LiePoly.basis(A3.word("xyz"))

    gxy_yz = CommGraph(A3, [("x", "y"), ("y", "z")])
    t2 = pair(pair(leaf("x"), leaf("z")), leaf("y"))
    assert pc_normal_form(t2, gxy_yz).is_zero()


def test_pc_normal_form_lands_on_basis_words():
    rng = random.Random(71)
    g = CommGraph(A3, [("x", "y"), ("y", "z")])
    words = enumerate_alsw(A3, 5)
    for _ in range(50):
        p = LiePoly(A3, {w: rng.randint(-4, 4) for w in rng.sample(words, 3)})
        nf = pc_normal_form(p, g)
        for w in nf.terms:
            assert not contains_pattern(g, w)


def test_pc_normal_form_idempotent_and_linear():
    rng = random.Random(73)
    g = CommGraph(A3, [("x", "z")])
    words = enumerate_alsw(A3, 5)
    for _ in range(50):
        p = LiePoly(A3, {w: rng.randint(-4, 4) for w in rng.sample(words, 3)})
        q = LiePoly(A3, {w: rng.randint(-4, 4) for w in rng.sample(words, 3)})
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        nf = pc_normal_form
        assert nf(nf(p, g), g) == nf(p, g)
        assert nf(p.scale(a) + q.scale(b), g) == nf(p, g).scale(a) + nf(q, g).scale(b)


def test_pc_normal_form_integrality():
    rng = random.Random(79)
    for g in all_graphs(A3, PAIRS3):
        for _ in range(10):
            words = enumerate_alsw(A3, 5)
            p = LiePoly(A3, {w: rng.randint(-5, 5) for w in rng.sample(words, 4)})
            for c in pc_normal_form(p, g).terms.values():
                assert isinstance(c, int)


def test_pattern_scan_matches_the_relation_leading_words():
    # the spans are exactly the occurrences of generate_relations' leading
    # words, in scan order, and the patterns read off the edges by
    # definition; each rule is the old bracket-expand-decompose of its word
    for g in all_graphs(A4, PAIRS4):
        relations = generate_relations(g, 5)
        for rule in relations:
            w = rule.leading
            assert rule.body == nlsw_decompose(expand(bracket(w)))
        leads = {r.leading.ranks for r in relations}
        for u in enumerate_alsw(A4, 5):
            r = u.ranks
            spans = list(_pattern_spans(g, r))
            assert spans == [
                (i, j)
                for i in range(len(r))
                for j in range(i + 2, len(r) + 1)
                if r[i:j] in leads
            ]
            assert spans == list(pattern_spans_by_definition(g, r))
            assert contains_pattern(g, u) == bool(spans)


def test_pc_normal_form_is_reduce_modulo_the_relations():
    # the least pattern factor is the lowest-index rule of generate_relations
    # (deg-lex order), so both finders pick the same step at every word
    rng = random.Random(89)
    words = enumerate_alsw(A4, 6)
    cases = steps = 0
    for g in all_graphs(A4, PAIRS4):
        if not g.edges:
            continue
        for _ in range(6):
            p = LiePoly(A4, {w: rng.randint(-4, 4) for w in rng.sample(words, 3)})
            if p.is_zero():
                continue
            raw, remainder = _rewrite(p, functools.partial(_least_pattern, g, {}))
            tr = ReductionTrace(
                p,
                [
                    ReductionStep(ri, r, Word(A4, ranks), pos, Fraction(n, d))
                    for ri, r, ranks, pos, n, d in raw
                ],
                remainder,
            )
            assert tr.check_identity()
            assert all(st.rule_index is None for st in tr.steps)
            expected = reduce(p, generate_relations(g, max(p.degree(), 2)))
            assert tr.remainder == pc_normal_form(p, g) == expected.remainder
            assert [st.word for st in tr.steps] == [st.word for st in expected.steps]
            cases += 1
            steps += len(tr.steps)
    assert cases >= 350 and steps >= 800


def test_a_normal_form_builds_one_rule_per_pattern(monkeypatch):
    # a pattern rewritten at several steps of one normal form is one Rule
    rng = random.Random(89)
    words = enumerate_alsw(A4, 6)
    real, built = quotient._pattern_rule, []
    monkeypatch.setattr(
        quotient, "_pattern_rule", lambda a, ranks: built.append(ranks) or real(a, ranks)
    )
    repeats = 0
    for g in all_graphs(A4, PAIRS4):
        p = LiePoly(A4, {w: rng.randint(1, 4) for w in rng.sample(words, 3)})
        steps = reduce(p, generate_relations(g, 6)).steps if g.edges else []
        built.clear()
        pc_normal_form(p, g)
        assert sorted(built) == sorted({st.rule.leading.ranks for st in steps})
        repeats += len(steps) - len(built)
    assert repeats >= 40


def test_relations_and_normal_forms_check_no_word_again(monkeypatch):
    # the rules [x u y] and the rewrite sites of the normal form are built
    # from rank tuples that the graph and the input polynomial checked
    # when they entered: no word is checked again, and no polynomial goes
    # through the constructor for outside input; the results are those of
    # the checked path
    graph = CommGraph(A4, [("x", "y"), ("x", "z"), ("y", "z"), ("z", "w")])
    rng = random.Random(7)
    p = LiePoly(A4, {w: rng.randint(-3, 3) for w in enumerate_alsw(A4, 6) if len(w) >= 5})

    def run():
        clear_caches()
        return generate_relations(graph, 6), pc_normal_form(p, graph)

    rules, normal_form = expected = run()
    assert [r.body for r in rules] == [LiePoly.basis(r.leading) for r in rules]
    trace = reduce(p, rules)
    assert len(rules) == 16 and len(trace.steps) > 100
    assert normal_form == trace.remainder

    def refuse(*args, **kwargs):
        raise AssertionError("a word was checked again")

    monkeypatch.setattr(LiePoly, "_check_word", refuse)
    monkeypatch.setattr(_Poly, "__init__", refuse)
    assert run() == expected


def test_equal_elements_share_a_normal_form():
    # rewriting is confluent on the verified rule sets: adding any multiple
    # of a defining relation leaves the normal form unchanged
    rng = random.Random(83)
    from pclie import lie_bracket

    g = CommGraph(A3, [("x", "y"), ("y", "z")])
    rels = [r.body for r in generate_relations(g, 4)]
    words = enumerate_alsw(A3, 4)
    for _ in range(40):
        p = LiePoly(A3, {w: rng.randint(-3, 3) for w in rng.sample(words, 2)})
        s = rng.choice(rels)
        m = LiePoly.basis(rng.choice(enumerate_alsw(A3, 2)))
        noise = lie_bracket(m, s).scale(rng.randint(-2, 2))
        if rng.random() < 0.4:
            noise = noise + s.scale(rng.randint(-2, 2))
        assert pc_normal_form(p + noise, g) == pc_normal_form(p, g)


def _ychain(al, y, vs, m):
    t = LieTree.leaf(al, y)
    for i in range(m):
        t = pair(t, bracket(vs[i]))
    return t


def _xuchain(al, bxu, y, vs, m):
    t = pair(bxu, LieTree.leaf(al, y))
    for i in range(m):
        t = pair(t, bracket(vs[i]))
    return t


def check_bracket_identity_i(al, x, y, z, u, v):
    """(([xuy][v])z) - ([xu]((y[v])z))
    == (([xu][v])(yz)) + ((([xu]z)y)[v]) - (([xu](z[v]))y)"""
    bxu = bracket(al.word_of([x]) + u)
    bxuy = bracket(al.word_of([x]) + u + al.word_of([y]))
    bv = bracket(v)
    ly, lz = LieTree.leaf(al, y), LieTree.leaf(al, z)
    lhs = expand(pair(pair(bxuy, bv), lz)) - expand(pair(bxu, pair(pair(ly, bv), lz)))
    rhs = (
        expand(pair(pair(bxu, bv), pair(ly, lz)))
        + expand(pair(pair(pair(bxu, lz), ly), bv))
        - expand(pair(pair(bxu, pair(lz, bv)), ly))
    )
    return lhs == rhs


def check_bracket_identity_ii(al, x, y, z, u, vs):
    n = len(vs)
    bxu = bracket(al.word_of([x]) + u)
    lz = LieTree.leaf(al, z)
    bvn = bracket(vs[-1])
    lhs = expand(pair(_xuchain(al, bxu, y, vs, n), lz)) - expand(
        pair(bxu, pair(_ychain(al, y, vs, n), lz))
    )
    rhs = (
        expand(pair(pair(_xuchain(al, bxu, y, vs, n - 1), lz), bvn))
        - expand(pair(pair(bxu, pair(_ychain(al, y, vs, n - 1), lz)), bvn))
        + expand(pair(pair(bxu, bvn), pair(_ychain(al, y, vs, n - 1), lz)))
        - expand(pair(pair(bxu, pair(lz, bvn)), _ychain(al, y, vs, n - 1)))
    )
    for i in range(1, n):
        t = pair(pair(bxu, bracket(vs[i - 1])), _ychain(al, y, vs, i - 1))
        for j in range(i, n - 1):
            t = pair(t, bracket(vs[j]))
        rhs = rhs - expand(pair(t, pair(lz, bvn)))
    return lhs == rhs


def sample_identity_instance(rng, want_n=None):
    al = Alphabet.from_decl("e > d > c > b > a")
    x, y, z = "e", "d", "c"
    u = al.word_of([rng.choice("abc") for _ in range(rng.randint(0, 2))])
    small = Alphabet.from_decl("b > a")
    pool = [al.word(str(w)) for w in enumerate_alsw(small, 3)]
    v = rng.choice(pool)
    n = want_n or rng.choice([2, 3])
    vs = sorted(
        [rng.choice(pool) for _ in range(n)], key=functools.cmp_to_key(compare_lex)
    )
    return al, x, y, z, u, v, vs


def test_rewriting_identities_hold_exactly():
    rng = random.Random(89)
    for _ in range(40):
        al, x, y, z, u, v, vs = sample_identity_instance(rng)
        assert check_bracket_identity_i(al, x, y, z, u, v)
        assert check_bracket_identity_ii(al, x, y, z, u, vs)
