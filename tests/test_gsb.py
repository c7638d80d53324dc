import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pclie import (
    Alphabet,
    Ambiguity,
    InvariantError,
    LiePoly,
    Occurrence,
    ReductionStep,
    Rule,
    SpecialBracketing,
    Word,
    clear_caches,
    complete,
    composition,
    deglex_key,
    enumerate_alsw,
    find_ambiguities,
    is_gsb,
    lie_bracket,
    normal_s_word,
    reduce,
)
from pclie.gsb import _RuleIndex
from pclie.quotient import CommGraph, generate_relations, graded_dimensions, pc_normal_form

from oracles import (
    SpanReducer,
    ambiguities_by_definition,
    complete_by_restart,
    first_site_by_scan,
    is_alsw_by_rotations,
    normal_s_word_by_expansion,
    reduce_by_fractions,
    witt_count,
)

A2 = Alphabet.from_decl("x > y")
A3 = Alphabet.from_decl("x > y > z")
A4 = Alphabet.from_decl("x > y > z > w")


def single(alphabet, text):
    return Rule(LiePoly.basis(alphabet.word(text)))


def test_find_ambiguities_examples():
    assert find_ambiguities([single(A2, "xy")], 6) == []

    ambs = find_ambiguities([single(A3, "xy"), single(A3, "yz")], 6)
    assert len(ambs) == 1
    amb = ambs[0]
    assert amb.kind == "intersection"
    assert amb.w == A3.word("xyz")
    assert (amb.f_index, amb.g_index) == (0, 1)

    ambs2 = find_ambiguities([single(A3, "xzy"), single(A3, "xz")], 6)
    assert len(ambs2) == 1
    assert ambs2[0].kind == "inclusion"
    assert ambs2[0].w == A3.word("xzy")
    assert ambs2[0].position == 0


def test_find_ambiguities_respects_bound_and_order():
    rules = [single(A3, "xy"), single(A3, "yz"), single(A3, "xzy")]
    ambs = find_ambiguities(rules, 6)
    ws = [str(a.w) for a in ambs]
    assert ws == sorted(ws, key=lambda t: (len(t), [A3.rank(c) for c in t]))
    assert all(len(a.w) <= 4 for a in find_ambiguities(rules, 4))


def star_completion():
    """The completion at degree 9 of (x y), (z y) and (w y) over
    x > y > z > w, which grows to 257 rules."""
    letter = {c: LiePoly.letter(A4, c) for c in "xyzw"}
    rules = [Rule.monic(lie_bracket(letter[a], letter[b])) for a, b in ("xy", "zy", "wy")]
    return complete(rules, 9)


def ambiguity_cases():
    """(rules, max_deg) inputs of the ambiguity checks: the relations of
    all 8 graphs on x > y > z and of the complete graph on x > y > z > w,
    whose leading words share their first ranks most, the star completion,
    and seeded random rule sets over x > y > z in which two rules share a
    leading word."""
    cases = [
        (generate_relations(CommGraph(A3, edges), 6), 6)
        for k in range(4)
        for edges in itertools.combinations([("x", "y"), ("x", "z"), ("y", "z")], k)
    ]
    cases.append((generate_relations(CommGraph(A4, itertools.combinations("xyzw", 2)), 7), 7))
    cases.append((star_completion(), 9))
    rng = random.Random(67)
    alsw = enumerate_alsw(A3, 4)
    words = [w for w in alsw if len(w) >= 2]
    for _ in range(40):
        rules = [Rule(LiePoly.basis(w)) for w in rng.sample(words, rng.randint(3, 6))]
        # a second rule leading with the same word, and a lower word beside it
        lead = rules[rng.randrange(len(rules))].leading
        lower = [w for w in alsw if deglex_key(w) < deglex_key(lead)]
        twin = Rule(LiePoly(A3, {lead: 1, rng.choice(lower): 3}))
        rules.insert(rng.randint(0, len(rules)), twin)
        cases.append((rules, rng.randint(5, 6)))
    return cases


def test_find_ambiguities_matches_the_definition():
    # the list is compared whole: order, kinds, indices, rules, witnesses
    # and positions
    seen = {"inclusion": 0, "intersection": 0, "shared leading word": 0}
    for rules, d in ambiguity_cases():
        ambs = find_ambiguities(rules, d)
        assert ambs == ambiguities_by_definition(rules, d)
        for m in ambs:
            seen[m.kind] += 1
            seen["shared leading word"] += m.f_index != m.g_index and m.f.leading == m.g.leading
    assert min(seen.values()) >= 40 and seen["intersection"] > 100, seen


def test_an_empty_rule_list_has_no_ambiguity_and_stays_complete():
    assert find_ambiguities([], 5) == []
    assert complete([], 5) == []
    assert is_gsb([], 5).ok
    h = LiePoly.basis(A3.word("xy"))
    assert reduce(h, []) == (h, [], h)


@st.composite
def rule_lists_and_words(draw):
    """A rule list over x > y > z in random order, with xy, xz, xzy and
    xxy planted: rules sharing their first rank, and xy inside xxy; and a
    word glued from leading words and letters, so that a rule often occurs
    at several positions."""
    planted = [A3.word(t) for t in ("xy", "xz", "xzy", "xxy")]
    extra = draw(st.lists(st.sampled_from(enumerate_alsw(A3, 4)), max_size=5))
    leads = draw(st.permutations(planted + extra))
    pieces = draw(st.lists(st.sampled_from(leads + [A3.word(c) for c in "xyz"]), max_size=8))
    return [Rule(LiePoly.basis(w)) for w in leads], sum((w.ranks for w in pieces), ())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rule_lists_and_words())
def test_the_rule_index_finds_the_site_of_the_scan(case):
    # the lowest-index rule, then its leftmost occurrence, also when the
    # rules are appended one by one, as completion does
    rules, ranks = case
    grown = _RuleIndex(rules[:1])
    for r in rules[1:]:
        grown.add(r)
    expected = first_site_by_scan(rules, ranks)
    assert _RuleIndex(rules).find(ranks) == grown.find(ranks) == expected


def test_overlapping_lyndon_shirshov_words_glue_into_one():
    # u = ac and v = cb Lyndon-Shirshov words, with a, b and c non-empty:
    # acb is Lyndon-Shirshov, so an intersection witness needs no test.
    # Every such overlap of two words up to the degree is checked
    overlaps = 0
    for alphabet, d in ((A3, 6), (A4, 5), (A2, 9)):
        words = [w.ranks for w in enumerate_alsw(alphabet, d)]
        for u in words:
            for v in words:
                # v starts at i in u and ends past it
                for i in range(max(1, len(u) - len(v) + 1), len(u)):
                    if u[i:] == v[: len(u) - i]:
                        overlaps += 1
                        glued = Word(alphabet, u + v[len(u) - i :])
                        assert is_alsw_by_rotations(glued), (u, v, i)
    assert overlaps == 18767


def test_composition_refuses_a_witness_that_is_not_lyndon_shirshov():
    # the witness is checked where its composition is formed, not dropped
    f = single(A2, "xy")
    amb = Ambiguity("intersection", 0, 0, f, f, A2.word("xyxy"), 2)
    with pytest.raises(ValueError, match="not a Lyndon-Shirshov word"):
        composition(amb)


def test_composition_refuses_a_site_where_the_rules_do_not_occur():
    # a hand-made ambiguity is checked once, where its composition is formed
    f, g = single(A3, "xy"), single(A3, "yz")
    w = A3.word("xyz")
    for amb in (
        Ambiguity("intersection", 0, 1, f, g, w, 2),
        Ambiguity("intersection", 0, 1, g, g, w, 1),
        Ambiguity("intersection", 0, 1, f, g, w, -2),
    ):
        with pytest.raises(ValueError, match="with f at 0, g at"):
            composition(amb)
    other = Alphabet.from_decl("a > b > c")
    amb = Ambiguity("intersection", 0, 1, f, single(other, "bc"), w, 1)
    with pytest.raises(ValueError, match="different alphabets"):
        composition(amb)


def test_rule_lists_of_mixed_alphabets_are_refused():
    # the engine matches rank tuples, so bc over a > b > c would match the
    # yz of x > y > z; every entry refuses the list before it starts
    abc = Alphabet.from_decl("a > b > c")
    mixed = [single(A3, "xy"), single(abc, "bc")]
    for call in (find_ambiguities, is_gsb, complete):
        with pytest.raises(ValueError, match="different alphabets"):
            call(mixed, 5)
    h = LiePoly.basis(A3.word("xyz"))
    for rules, bound in (
        ([single(abc, "bc")], None),
        (mixed, None),
        ([single(A3, "yz")], abc.word("abc")),
    ):
        with pytest.raises(ValueError, match="different alphabets"):
            reduce(h, rules, bound)


def test_the_engine_builds_no_step_or_site_record(monkeypatch):
    # complete, is_gsb and pc_normal_form rewrite on rank tuples: no
    # reduction step, occurrence or special bracketing is built, and the
    # results are those of the records' path; reduce still traces its
    # steps, those of the fraction oracle
    rules = [Rule.monic(LiePoly(A4, {A4.word("xy"): 2, A4.word("xz"): 3})), single(A4, "yz")]
    graph = CommGraph(A4, [("x", "y"), ("y", "z"), ("z", "w")])
    p = LiePoly(A4, {w: 1 for w in enumerate_alsw(A4, 5) if len(w) == 5})

    def run():
        clear_caches()
        closed = complete(rules, 6)
        report = is_gsb(generate_relations(graph, 6), 6)
        return closed, report, pc_normal_form(p, graph)

    expected = run()
    assert len(expected[0]) > len(rules) and expected[1].ambiguities_checked > 10
    amb = find_ambiguities(expected[0], 6)[-1]
    trace = reduce(composition(amb), expected[0], bound=amb.w)
    assert trace.steps and all(type(st) is ReductionStep for st in trace.steps)
    steps, _ = reduce_by_fractions(composition(amb), expected[0])
    assert [(st.rule_index, st.word, st.position, st.coefficient) for st in trace.steps] == steps

    def refuse(*args, **kwargs):
        raise AssertionError("the engine built a step or site record")

    for cls in (ReductionStep, Occurrence, SpecialBracketing):
        monkeypatch.setattr(cls, "__new__", refuse)
    assert run() == expected
    monkeypatch.undo()
    clear_caches()
    assert reduce(composition(amb), expected[0], bound=amb.w) == trace


def test_reduce_rewrites_the_lowest_index_rule_at_its_leftmost_occurrence():
    # xz occurs first in xzyzyz, but yz is rule 0, and it occurs at 2 and 4
    w = A3.word("xzyzyz")
    tr = reduce(LiePoly.basis(w), [single(A3, "yz"), single(A3, "xz")])
    st = tr.steps[0]
    assert (st.rule_index, st.rule, st.word, st.position) == (0, single(A3, "yz"), w, 2)


def test_composition_inclusion_of_own_normal_word_is_zero():
    g = single(A2, "xy")
    f = Rule(normal_s_word(A2.word("xxy"), g, 1))  # leading xxy
    ambs = [a for a in find_ambiguities([f, g], 6) if a.kind == "inclusion"]
    assert any(composition(a).is_zero() for a in ambs)


def test_composition_intersection_example():
    f, g = single(A3, "xy"), single(A3, "yz")
    amb = find_ambiguities([f, g], 6)[0]
    assert composition(amb) == LiePoly.basis(A3.word("xzy"))


def test_composition_drops_below_witness_on_random_rule_sets():
    rng = random.Random(41)
    words = [w for w in enumerate_alsw(A3, 4) if len(w) >= 2]
    for _ in range(40):
        rules = [Rule(LiePoly.basis(w)) for w in rng.sample(words, rng.randint(2, 4))]
        for amb in find_ambiguities(rules, 5):
            c = composition(amb)  # internal assertion: zero or lead < w
            if not c.is_zero():
                from pclie import compare_deglex, LESS

                assert compare_deglex(c.leading()[0], amb.w) == LESS


def test_reduce_examples():
    tr = reduce(LiePoly.letter(A3, "x"), [single(A3, "xy")])
    assert tr.remainder == LiePoly.letter(A3, "x")
    assert tr.steps == []

    tr2 = reduce(LiePoly.basis(A2.word("xyy")), [single(A2, "xy")])
    assert tr2.remainder.is_zero()

    h = LiePoly(A3, {A3.word("xyz"): 1, A3.word("xzy"): 1})
    tr3 = reduce(h, [single(A3, "xz")])
    assert tr3.remainder == LiePoly.basis(A3.word("xyz"))


def test_reduce_traces_are_sound_and_decreasing():
    rng = random.Random(53)
    words = enumerate_alsw(A3, 5)
    rules = [single(A3, "xy"), single(A3, "yz")]
    from pclie import compare_deglex, LESS

    for _ in range(60):
        terms = {w: rng.randint(-4, 4) for w in rng.sample(words, 3)}
        h = LiePoly(A3, terms)
        tr = reduce(h, rules)
        assert tr.check_identity()
        step_words = [s.word for s in tr.steps]
        for a, b in zip(step_words, step_words[1:]):
            assert compare_deglex(b, a) == LESS
        for w in tr.remainder.terms:
            text = str(w)
            assert "xy" not in text and "yz" not in text


def test_reduce_bound_violation_raises():
    with pytest.raises(ValueError, match="reduction step at xyy is not below the bound xy"):
        reduce(LiePoly.basis(A2.word("xyy")), [single(A2, "xy")], bound=A2.word("xy"))


def test_reduce_holds_its_steps_below_the_bound():
    # the first step is the greatest, so a bound equal to its word is
    # refused and the deg-lex next word up lets the whole trace through;
    # only steps are bounded, so an irreducible word at or above the bound
    # is accepted
    rules = [Rule.monic(LiePoly(A3, {A3.word("xy"): 2, A3.word("xz"): 3})), single(A3, "yz")]
    h = LiePoly.basis(A3.word("xyzyz"))
    trace = reduce(h, rules)
    assert [str(st.word) for st in trace.steps] == ["xyzyz", "xzyyz", "xzyzy", "xzzyz"]
    with pytest.raises(ValueError, match="reduction step at xyzyz is not below the bound xyzyz"):
        reduce(h, rules, bound=A3.word("xyzyz"))
    assert reduce(h, rules, bound=A3.word("xyzyy")) == trace
    # xxzzz holds neither xy nor yz, and it is greater than every step
    g = h + LiePoly.basis(A3.word("xxzzz"))
    unbounded = reduce(g, rules)
    assert unbounded.steps == trace.steps
    for bound in ("xxzzz", "xyzyy"):
        assert reduce(g, rules, bound=A3.word(bound)) == unbounded


def test_is_gsb_examples():
    assert is_gsb([single(A2, "xy")], 6).ok

    rep = is_gsb([single(A3, "xy"), single(A3, "yz")], 6)
    assert not rep.ok
    (amb, rem), = rep.failures
    assert amb.w == A3.word("xyz")
    assert rem == LiePoly.basis(A3.word("xzy"))

    g = CommGraph(A3, [("x", "y"), ("y", "z")])
    assert is_gsb(generate_relations(g, 6), 6).ok


def test_complete_examples():
    closed = complete([single(A2, "xy")], 6)
    assert [r.leading for r in closed] == [A2.word("xy")]

    repaired = complete([single(A3, "xy"), single(A3, "yz")], 4)
    leads = {str(r.leading) for r in repaired}
    assert "xzy" in leads
    assert is_gsb(repaired, 4).ok

    for edges in itertools.chain.from_iterable(
        itertools.combinations([("x", "y"), ("x", "z"), ("y", "z")], k)
        for k in range(4)
    ):
        g = CommGraph(A3, edges)
        rules = generate_relations(g, 6)
        assert complete(rules, 6) == rules


@pytest.mark.parametrize("check", [find_ambiguities, is_gsb, complete])
@pytest.mark.parametrize("max_deg", [0, -3])
def test_degree_bounds_that_check_nothing_are_refused(check, max_deg):
    # with no witness length allowed, no ambiguity would be checked and the
    # rule set would pass as closed
    rules = [single(A3, "xy"), single(A3, "yz")]
    with pytest.raises(ValueError, match="max_deg must be at least 1"):
        check(rules, max_deg)


def test_reduce_kills_ideal_members_of_a_verified_basis():
    g = CommGraph(A3, [("x", "y"), ("x", "z")])
    rules = generate_relations(g, 5)
    assert is_gsb(rules, 5).ok
    rng = random.Random(67)
    gens = [r.body for r in rules]
    words = enumerate_alsw(A3, 2)
    for _ in range(40):
        h = LiePoly.zero(A3)
        for _ in range(rng.randint(1, 3)):
            s = rng.choice(gens)
            m = LiePoly.basis(rng.choice(words))
            piece = lie_bracket(m, s) if rng.random() < 0.5 else lie_bracket(s, m)
            if rng.random() < 0.3:
                piece = s
            h = h + piece.scale(rng.randint(-3, 3))
        if h.is_zero() or h.degree() > 5:
            continue
        assert reduce(h, rules).remainder.is_zero()


def test_irr_count_plus_ideal_rank_fills_each_degree():
    # the basis words of the quotient and the normal s-words of the ideal
    # together account for the whole degree slice of the free algebra
    from oracles import all_words

    g = CommGraph(A3, [("x", "y"), ("y", "z")])
    rules = generate_relations(g, 5)
    dims = graded_dimensions(g, 5)
    for deg in range(1, 6):
        red = SpanReducer()
        for s in rules:
            k = len(s.leading)
            if k > deg:
                continue
            for la in range(0, deg - k + 1):
                for a in all_words(A3, la):
                    for b in all_words(A3, deg - k - la):
                        w = a + s.leading + b
                        from pclie import is_alsw

                        if not is_alsw(w):
                            continue
                        red.add(normal_s_word(w, s, la).terms)
        assert witt_count(3, deg) - red.rank == dims[deg - 1]


def edge_rule_sets(alphabet):
    """The rule sets {(a b) : ab an edge} of every non-empty graph on the
    alphabet."""
    pairs = list(itertools.combinations(alphabet.letters, 2))
    for k in range(1, len(pairs) + 1):
        for edges in itertools.combinations(pairs, k):
            yield [
                Rule.monic(
                    lie_bracket(LiePoly.letter(alphabet, a), LiePoly.letter(alphabet, b))
                )
                for a, b in edges
            ]


def rational_rule_sets(count, seed):
    """Rules over x > y > z with two or three Lyndon-Shirshov words of
    degree 2 or 3 and rational coefficients."""
    rng = random.Random(seed)
    words = [w for w in enumerate_alsw(A3, 3) if len(w) >= 2]
    for _ in range(count):
        rules = []
        for _ in range(rng.randint(2, 3)):
            terms = {
                w: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
                for w in rng.sample(words, rng.randint(2, 3))
            }
            rules.append(Rule.monic(LiePoly(A3, terms)))
        yield rules


def completion_cases():
    """(rules, max_deg) inputs of the completion checks: small examples,
    the graphs on x > y > z, the edge-relation sets on x > y > z > w and
    rational rule sets on x > y > z."""
    cases = [
        ([single(A2, "xy")], 6),
        ([single(A3, "xy"), single(A3, "yz")], 4),
        ([single(A3, "xy"), single(A3, "yz")], 6),
    ]
    for edges in itertools.chain.from_iterable(
        itertools.combinations([("x", "y"), ("x", "z"), ("y", "z")], k)
        for k in range(4)
    ):
        cases.append((generate_relations(CommGraph(A3, edges), 6), 6))
    cases += [(rules, 6) for rules in edge_rule_sets(A4)]
    cases += [(rules, 5) for rules in rational_rule_sets(12, 71)]
    return cases


def test_complete_matches_restart_oracle():
    cases = completion_cases()
    assert len(cases) == 3 + 8 + 63 + 12
    added = 0
    for rules, d in cases:
        closed = complete(rules, d)
        assert closed == complete_by_restart(rules, d)
        assert closed[: len(rules)] == rules
        added += len(closed) - len(rules)
    assert added >= 200


def engine_normal_s_words(monkeypatch):
    """Every normal s-word the engine builds in the closure sweep and in
    the completions, by site (host word, rule, position), with the number
    from the closure sweep and from rational rule sets; the engine's
    kernel is keyed by rank tuple, its host word is rebuilt here."""
    import pclie.gsb as gsb

    calls = {}
    real = gsb._normal_s_word

    def recording(ranks, s, position):
        w = Word(s.leading.alphabet, ranks)
        calls[w, s, position] = result = real(ranks, s, position)
        return result

    monkeypatch.setattr(gsb, "_normal_s_word", recording)
    pairs = list(itertools.combinations(A4.letters, 2))
    for k in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, k):
            is_gsb(generate_relations(CommGraph(A4, edges), 6), 6)
    reference = CommGraph(A4, [("x", "y"), ("x", "z"), ("y", "z"), ("z", "w")])
    is_gsb(generate_relations(reference, 9), 9)
    closure_calls = len(calls)
    rational = 0
    for rules, d in completion_cases():
        before = len(calls)
        complete(rules, d)
        if any(isinstance(c, Fraction) for r in rules for c in r.body.terms.values()):
            rational += len(calls) - before
    monkeypatch.undo()
    return calls, closure_calls, rational


def test_normal_s_word_matches_the_expansion_oracle(monkeypatch):
    # against the substituted associative expansion
    calls, closure_calls, rational = engine_normal_s_words(monkeypatch)
    for (w, s, position), result in calls.items():
        assert result == normal_s_word_by_expansion(w, s, position), (w, s, position)
    assert closure_calls >= 700
    assert len(calls) - closure_calls >= 120 and rational >= 100


def test_the_public_normal_s_word_is_the_kernels(monkeypatch):
    # one function computes every normal s-word: once the site is checked,
    # the public normal_s_word returns the engine's cached object
    import pclie.rules as rules

    sites = list(engine_normal_s_words(monkeypatch)[0])
    clear_caches()
    for w, s, position in sites:
        assert normal_s_word(w, s, position) is rules._normal_s_word(w.ranks, s, position)


def is_exact(c):
    """An int when integral, else a Fraction in lowest terms."""
    if c.denominator == 1:
        return type(c) is int
    return type(c) is Fraction and math.gcd(c.numerator, c.denominator) == 1


def test_reduce_matches_the_fraction_oracle_on_coprime_denominators(monkeypatch):
    # coefficients over the coprime denominators 7, 11, 13 and 17, so the
    # rewrite loop's common denominator changes at most steps: every step
    # (rule, word, position, coefficient) and the remainder equal those of
    # plain Fraction arithmetic on the expansion oracle's normal s-words,
    # and so does every normal s-word the loop asks for (of the engine's
    # kernel, keyed by rank tuple; its host word is rebuilt here)
    import pclie.gsb as gsb

    calls = {}
    real = gsb._normal_s_word

    def recording(ranks, s, position):
        w = Word(s.leading.alphabet, ranks)
        calls[w, s, position] = result = real(ranks, s, position)
        return result

    monkeypatch.setattr(gsb, "_normal_s_word", recording)
    rng = random.Random(2)

    def coeff():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.choice((7, 11, 13, 17)))

    shapes = [("xz", "yz", "y"), ("xy", "z")]
    sextics = [w for w in enumerate_alsw(A3, 6) if len(w) == 6]
    denominators = set()
    for _ in range(12):
        rules = [Rule.monic(LiePoly(A3, {A3.word(t): coeff() for t in sh})) for sh in shapes]
        h = LiePoly(A3, {w: coeff() for w in rng.sample(sextics, 5)})
        tr = reduce(h, rules)
        steps, remainder = reduce_by_fractions(h, rules)
        assert len(steps) >= 10
        assert [(s.rule_index, s.word, s.position, s.coefficient) for s in tr.steps] == steps
        assert tr.remainder.terms == remainder
        coefficients = [s.coefficient for s in tr.steps] + list(tr.remainder.terms.values())
        assert all(is_exact(c) for c in coefficients)
        denominators.update(c.denominator for c in coefficients)
    assert max(denominators) > 10**9 and 1 in denominators
    for (w, s, position), result in calls.items():
        assert result == normal_s_word_by_expansion(w, s, position), (w, s, position)
        assert all(is_exact(c) for c in result.terms.values())
    assert len(calls) >= 100


def test_zero_reduction_is_unchanged_by_an_appended_rule():
    # the lemma behind the queue in complete: a composition that reduces to
    # zero modulo S has the same trace modulo S + [r]; checked along the
    # completions of the larger inputs, with r the rule completion adds next
    checked = 0
    sets = [(rules, 6) for rules in edge_rule_sets(A4) if len(rules) >= 4]
    sets += [(rules, 5) for rules in rational_rule_sets(12, 71)]
    for rules, d in sets:
        closed = complete(rules, d)
        for k in range(len(rules), len(closed)):
            prefix, r = closed[:k], closed[k]
            for amb in find_ambiguities(prefix, d):
                comp = composition(amb)
                tr = reduce(comp, prefix, bound=amb.w)
                if tr.remainder.is_zero() and tr.steps:
                    assert reduce(comp, prefix + [r], bound=amb.w).steps == tr.steps
                    checked += 1
    assert checked >= 500


def test_ambiguity_that_adds_a_rule_then_reduces_to_zero():
    # complete does not re-check the ambiguity whose remainder became the
    # new rule r: modulo the rules before it plus r, it reduces to zero
    checked = 0
    sets = [(rules, 6) for rules in edge_rule_sets(A4)]
    sets += [(rules, 5) for rules in rational_rule_sets(12, 71)]
    for rules, d in sets:
        closed = complete(rules, d)
        for k in range(len(rules), len(closed)):
            amb, rem = is_gsb(closed[:k], d).failures[0]
            assert Rule.monic(rem) == closed[k]
            comp = composition(amb)
            assert reduce(comp, closed[: k + 1], bound=amb.w).remainder.is_zero()
            checked += 1
    assert checked >= 200


def test_invariant_error_is_not_a_usage_error():
    assert issubclass(InvariantError, ArithmeticError)
    assert not issubclass(InvariantError, ValueError)


def test_invariant_checks_fire_under_optimize():
    # both invariants used to be asserts, which python -O strips
    script = textwrap.dedent(
        """
        import pclie.gsb as gsb
        from pclie import (
            Alphabet, InvariantError, LiePoly, Rule, composition,
            find_ambiguities, normal_s_word,
        )

        A3 = Alphabet.from_decl("x > y > z")
        xy = Rule(LiePoly.basis(A3.word("xy")))
        yz = Rule(LiePoly.basis(A3.word("yz")))
        fired = []

        corrupt = Rule(LiePoly.basis(A3.word("xy")))
        corrupt.leading = A3.word("xyy")  # no longer the body's leading word
        try:
            normal_s_word(A3.word("xyy"), corrupt, 0)
        except InvariantError:
            fired.append("normal_s_word")

        # a doubled normal s-word of f (the engine's kernel, keyed by rank
        # tuple): the witness no longer cancels
        real = gsb._normal_s_word

        def doubled(ranks, s, position):
            nsw = real(ranks, s, position)
            return nsw.scale(2) if s == xy else nsw

        gsb._normal_s_word = doubled
        amb = find_ambiguities([xy, yz], 6)[0]
        try:
            composition(amb)
        except InvariantError:
            fired.append("composition")
        print(" ".join(fired))
        """
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["normal_s_word", "composition"]
