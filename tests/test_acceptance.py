"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
Everything is exact (integer or rational equality); there are no
tolerances anywhere.
"""

import itertools
import random
from fractions import Fraction

from pclie import (
    Alphabet,
    AssocPoly,
    LiePoly,
    LieTree,
    Rule,
    bracket,
    complete,
    enumerate_alsw,
    expand,
    is_alsw,
    is_gsb,
    is_nlsw,
    leading_word,
    left_pair_expansion,
    lie_bracket,
    lyndon_factorize,
    normal_s_word,
    pc_normal_form,
)
from pclie.quotient import (
    CommGraph,
    assoc_hilbert_series,
    clique_series_dims,
    generate_relations,
    graded_dimensions,
    verify_relations,
)

from oracles import (
    SpanReducer,
    all_words,
    nondecreasing_alsw_factorizations,
    witt_count,
)
from test_quotient import (
    check_bracket_identity_i,
    check_bracket_identity_ii,
    sample_identity_instance,
)

A2 = Alphabet.from_decl("x > y")
A3 = Alphabet.from_decl("x > y > z")
A4 = Alphabet.from_decl("w > x > y > z")


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def graphs_on(alphabet):
    """Every commutation graph on the alphabet (all edge subsets)."""
    pairs = list(itertools.combinations(alphabet.letters, 2))
    for k in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, k):
            yield CommGraph(alphabet, edges)


def test_criterion_1_composition_closure():
    checked = 0
    ambiguities = 0
    for alphabet in (A2, A3, A4):
        for g in graphs_on(alphabet):
            rep = verify_relations(g, 6)
            assert rep.ok, (g, [(str(a.w), str(r)) for a, r in rep.failures])
            checked += 1
            ambiguities += rep.ambiguities_checked
    # 2 + 8 graphs exhaust 2 and 3 letters; all 64 on 4 letters cover the
    # required sample of at least 50
    report(
        1,
        checked == 2 + 8 + 64,
        f"rule sets of {checked} commutation graphs closed under composition "
        f"at degree 6 ({ambiguities} compositions, zero irreducible)",
    )


def test_criterion_2_basis_cross_validation():
    compared = 0
    for alphabet, deg in ((A2, 8), (A3, 8), (A4, 6)):
        for g in graphs_on(alphabet):
            assert graded_dimensions(g, deg) == clique_series_dims(g, deg), g
            compared += 1
    report(
        2,
        compared == 2 + 8 + 64,
        "graded dimensions match the clique-series oracle exactly "
        "(degree 8 on 2 and 3 letters, degree 6 on 4 letters)",
    )


def test_criterion_3_brute_force_quotient_oracle():
    cases = 0
    for alphabet in (A2, A3):
        k = len(alphabet.letters)
        for g in graphs_on(alphabet):
            rules = generate_relations(g, 5)
            dims = graded_dimensions(g, 5)
            for deg in range(1, 6):
                red = SpanReducer()
                for s in rules:
                    ls = len(s.leading)
                    if ls > deg:
                        continue
                    for la in range(0, deg - ls + 1):
                        for a in all_words(alphabet, la):
                            for b in all_words(alphabet, deg - ls - la):
                                w = a + s.leading + b
                                if not is_alsw(w):
                                    continue
                                red.add(normal_s_word(w, s, la).terms)
                assert witt_count(k, deg) - red.rank == dims[deg - 1], (g, deg)
                cases += 1
    report(
        3,
        cases == (2 + 8) * 5,
        "free-algebra dimension minus normal-s-word rank equals the basis "
        "count in every degree <= 5 on 2 and 3 letters",
    )


def test_criterion_4_fixed_fixtures():
    ok = True
    complete2 = CommGraph(A2, [("x", "y")])
    ok &= graded_dimensions(complete2, 5) == [2, 0, 0, 0, 0]
    free2 = CommGraph(A2, [])
    ok &= graded_dimensions(free2, 5) == [2, 1, 2, 3, 6]
    star = CommGraph(A3, [("x", "y"), ("x", "z")])
    ok &= graded_dimensions(star, 5) == [3, 1, 2, 3, 6]
    ok &= assoc_hilbert_series(star, 3) == [1, 3, 7, 15]
    report(
        4,
        ok,
        "fixture dimensions [2,0,0,0,0], [2,1,2,3,6], [3,1,2,3,6] and "
        "associative series 1,3,7,15 all exact",
    )


def test_criterion_5_negative_control():
    rules = [Rule(LiePoly.basis(A3.word("xy"))), Rule(LiePoly.basis(A3.word("yz")))]
    rep = is_gsb(rules, 6)
    ok = not rep.ok and len(rep.failures) == 1
    amb, rem = rep.failures[0]
    ok &= amb.w == A3.word("xyz")
    ok &= rem == LiePoly.basis(A3.word("xzy")) or rem == LiePoly(
        A3, {A3.word("xzy"): -1}
    )
    repaired = complete(rules, 4)
    ok &= A3.word("xzy") in {r.leading for r in repaired}
    ok &= is_gsb(repaired, 4).ok
    report(
        5,
        ok,
        "pair {[xy],[yz]} flagged at witness xyz with remainder [xzy]; "
        "completion at degree 4 repairs it",
    )


def test_criterion_6_word_calculus_suite():
    failures = 0
    for n in range(1, 7):
        for u in all_words(A3, n):
            facts = nondecreasing_alsw_factorizations(u)
            if len(facts) != 1 or facts[0] != lyndon_factorize(u):
                failures += 1
    words = 0
    for u in enumerate_alsw(A3, 8):
        words += 1
        if leading_word(expand(bracket(u))) != (u, 1):
            failures += 1
        if not is_nlsw(bracket(u)):
            failures += 1
    report(
        6,
        failures == 0,
        f"factorization unique on all 1092 words of length <= 6; leading-word "
        f"and canonical-bracketing checks clean on {words} basis words to "
        f"length 8",
    )


def test_criterion_7_identity_suite():
    failures = 0
    cases = 0
    for u in enumerate_alsw(A3, 5):
        top = max(A3.rank(s) for s in u.supp())
        for x in A3.letters:
            if A3.rank(x) <= top:
                continue
            xu = A3.word_of([x]) + u
            total = AssocPoly.zero(A3)
            for c, t in left_pair_expansion(x, u):
                total = total + expand(t).scale(c)
                if t.word.multidegree() != xu.multidegree():
                    failures += 1
                if leading_word(expand(t)) != (t.word, 1):
                    failures += 1
            target = expand(LieTree.pair(LieTree.leaf(A3, x), bracket(u)))
            if total != target:
                failures += 1
            cases += 1

    rng = random.Random(20240917)
    sampled = 0
    for _ in range(60):
        for n in (2, 3):
            al, x, y, z, u, v, vs = sample_identity_instance(rng, want_n=n)
            if not check_bracket_identity_i(al, x, y, z, u, v):
                failures += 1
            if not check_bracket_identity_ii(al, x, y, z, u, vs):
                failures += 1
            sampled += 2
    report(
        7,
        failures == 0 and sampled >= 100,
        f"left-pair decomposition exact on {cases} exhaustive cases; "
        f"both rewriting identities exact on {sampled} sampled instances "
        f"(factor counts 2 and 3)",
    )


def test_criterion_8_algebraic_laws():
    rng = random.Random(8128)
    failures = 0
    cases = 0
    words_by_deg = {
        d: [w for w in enumerate_alsw(A3, d) if len(w) == d] for d in range(1, 5)
    }

    def rand_poly(deg, integer=True):
        pool = words_by_deg[deg]
        terms = {}
        for w in rng.sample(pool, min(len(pool), rng.randint(1, 2))):
            c = rng.randint(-5, 5) if integer else Fraction(
                rng.randint(-5, 5), rng.randint(1, 4)
            )
            if c:
                terms[w] = c
        return LiePoly(A3, terms)

    graphs = list(graphs_on(A3))

    for _ in range(250):  # antisymmetry and Jacobi, total degree <= 5
        d1, d2, d3 = rng.choice([(1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 1, 3)])
        p, q, r = rand_poly(d1), rand_poly(d2), rand_poly(d3)
        if lie_bracket(p, q) != -lie_bracket(q, p):
            failures += 1
        jac = (
            lie_bracket(lie_bracket(p, q), r)
            + lie_bracket(lie_bracket(q, r), p)
            + lie_bracket(lie_bracket(r, p), q)
        )
        if not jac.is_zero():
            failures += 1
        cases += 1

    def rand_mixed(max_deg=5):
        terms = {}
        for d in rng.sample(range(1, max_deg + 1), rng.randint(1, 3)):
            pool = words_by_deg.get(d) or [
                w for w in enumerate_alsw(A3, 5) if len(w) == d
            ]
            w = rng.choice(pool)
            c = rng.randint(-5, 5)
            if c:
                terms[w] = c
        return LiePoly(A3, terms)

    for _ in range(250):  # idempotence
        g = rng.choice(graphs)
        p = rand_mixed()
        nf = pc_normal_form(p, g)
        if pc_normal_form(nf, g) != nf:
            failures += 1
        cases += 1

    for _ in range(250):  # linearity with rational weights
        g = rng.choice(graphs)
        p, q = rand_mixed(), rand_mixed()
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        lhs = pc_normal_form(p.scale(a) + q.scale(b), g)
        rhs = pc_normal_form(p, g).scale(a) + pc_normal_form(q, g).scale(b)
        if lhs != rhs:
            failures += 1
        cases += 1

    for _ in range(250):  # integrality of normal forms on integer input
        g = rng.choice(graphs)
        p = rand_mixed()
        if not all(isinstance(c, int) for c in pc_normal_form(p, g).terms.values()):
            failures += 1
        cases += 1

    report(
        8,
        failures == 0 and cases >= 1000,
        f"antisymmetry, Jacobi, normal-form idempotence, linearity and "
        f"integrality clean on {cases} randomized cases at degree <= 5",
    )
