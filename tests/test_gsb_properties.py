"""Property tests of the rewrite sites on random rule sets over x > y > z:
every ambiguity and every reduction step names its site as host word,
rule and position, and the rule's leading word sits there."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from pclie import (
    LESS,
    Alphabet,
    LiePoly,
    Rule,
    compare_deglex,
    composition,
    enumerate_alsw,
    find_ambiguities,
    reduce,
)

A3 = Alphabet.from_decl("x > y > z")
WORDS = [w for w in enumerate_alsw(A3, 4) if len(w) >= 2]
MAX_DEG = 6

PROPERTIES = settings(max_examples=60, deadline=None, derandomize=True)

coefficients = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.builds(Fraction, st.integers(1, 3), st.integers(2, 3)),
)

rule_sets = st.lists(
    st.dictionaries(st.sampled_from(WORDS), coefficients, min_size=1, max_size=3).map(
        lambda terms: Rule.monic(LiePoly(A3, terms))
    ),
    min_size=2,
    max_size=5,
)


def occurs_at(host, sub, position):
    return host.ranks[position : position + len(sub)] == sub.ranks


def check_trace(tr):
    assert tr.check_identity()
    for step in tr.steps:
        assert occurs_at(step.word, step.rule.leading, step.position)
    for earlier, later in zip(tr.steps, tr.steps[1:]):
        assert compare_deglex(later.word, earlier.word) == LESS


@PROPERTIES
@given(rule_sets)
def test_every_ambiguity_names_its_site(rules):
    for amb in find_ambiguities(rules, MAX_DEG):
        f, g = amb.f.leading, amb.g.leading
        assert occurs_at(amb.w, f, 0)
        assert occurs_at(amb.w, g, amb.position)
        inside = amb.position + len(g) <= len(f)
        assert (amb.kind == "inclusion") == inside
        assert amb.w == f if inside else len(amb.w) == amb.position + len(g)


@PROPERTIES
@given(rule_sets)
def test_reduction_steps_of_compositions_name_their_sites(rules):
    for amb in find_ambiguities(rules, MAX_DEG):
        check_trace(reduce(composition(amb), rules, bound=amb.w))


@PROPERTIES
@given(
    rule_sets,
    st.dictionaries(
        st.sampled_from(enumerate_alsw(A3, 5)), coefficients, min_size=1, max_size=4
    ),
)
def test_reduction_steps_of_random_elements_name_their_sites(rules, terms):
    check_trace(reduce(LiePoly(A3, terms), rules))
