import random

import pytest

from pclie import (
    EQUAL,
    GREATER,
    LESS,
    Alphabet,
    Word,
    compare_deglex,
    compare_lex,
    deglex_key,
    enumerate_alsw,
    is_alsw,
    lyndon_factorize,
    standard_split,
)
from pclie.words import _alsw_ranks

from oracles import (
    all_words,
    is_alsw_by_rotations,
    is_alsw_by_splits,
    nondecreasing_alsw_factorizations,
    witt_count,
)

A2 = Alphabet.from_decl("x > y")
A3 = Alphabet.from_decl("x > y > z")
A4 = Alphabet.from_decl("x > y > z > w")


def test_alphabet_declaration():
    assert A3.letters == ("z", "y", "x")  # stored ascending
    assert A3.decl() == "x > y > z"
    assert A3.rank("x") > A3.rank("y") > A3.rank("z")
    with pytest.raises(ValueError):
        Alphabet.from_decl("x > > y")
    with pytest.raises(ValueError):
        Alphabet(("x", "x"))
    with pytest.raises(ValueError):
        Alphabet(())
    # letter names have the shape of a symbol of the expression grammar
    for name in ("1", "2x", "\u00e9", "x-y", ""):
        with pytest.raises(ValueError, match="bad letter name"):
            Alphabet(("x", name))
    assert Alphabet.from_decl("_a > B9 > x_1").letters == ("x_1", "B9", "_a")


def test_word_parsing_and_rendering():
    w = A3.word("x y z")
    assert str(w) == "xyz"
    assert w == A3.word("xyz")
    assert w.letters == ("x", "y", "z")
    with pytest.raises(ValueError):
        A3.word("xq")
    long_names = Alphabet.from_decl("x2 > x1")
    assert str(long_names.word("x2x1")) == "x2 x1"


def test_word_refuses_a_rank_outside_the_alphabet():
    # the one check on a raw rank tuple from outside
    for ranks in ((2,), (-1,), (0, 5)):
        with pytest.raises(ValueError, match="out of range"):
            Word(A2, ranks)
    assert str(Word(A2, (1, 0))) == "xy"


def test_word_degrees():
    w = A3.word("xyxz")
    assert w.supp() == {"x", "y", "z"}
    assert w.partial_degree("x") == 2
    assert w.multidegree() == (1, 1, 2)  # ascending: z, y, x


def test_compare_lex_examples():
    assert compare_lex(A2.word("xy"), A2.word("yx")) == GREATER
    assert compare_lex(A2.word("x"), A2.word("x")) == EQUAL
    # an extension sits below its proper prefix
    assert compare_lex(A2.word("xy"), A2.word("x")) == LESS
    assert compare_lex(A2.word("x"), A2.word("xy")) == GREATER


def test_compare_lex_prefix_convention_forced_by_factorization():
    # "xyx" admits exactly one non-decreasing cut, and it needs xy <= x
    facts = nondecreasing_alsw_factorizations(A2.word("xyx"))
    assert facts == [[A2.word("xy"), A2.word("x")]]


def test_compare_mixed_alphabets():
    with pytest.raises(ValueError):
        compare_lex(A2.word("x"), A3.word("x"))
    with pytest.raises(ValueError):
        compare_deglex(A2.word("x"), A3.word("x"))


def test_compare_deglex_examples():
    assert compare_deglex(A2.word("y"), A2.word("xy")) == LESS
    assert compare_deglex(A2.word("xxy"), A2.word("xyx")) == GREATER
    assert compare_deglex(A2.word("xy"), A2.word("yx")) == GREATER


def test_deglex_concatenation_compatibility():
    words = [w for n in (1, 2, 3) for w in all_words(A3, n)]
    import random

    rng = random.Random(2024)
    for _ in range(300):
        u, v = rng.choice(words), rng.choice(words)
        if len(u) != len(v):
            continue
        c = compare_deglex(u, v)
        w = rng.choice(words)
        assert compare_deglex(w + u, w + v) == c
        assert compare_deglex(u + w, v + w) == c


def test_is_alsw_examples():
    assert is_alsw(A2.word("x"))
    assert not is_alsw(A2.word("yx"))
    expected = {"x", "y", "xy", "xxy", "xyy"}
    got = {str(w) for n in (1, 2, 3) for w in all_words(A2, n) if is_alsw(w)}
    assert got == expected
    with pytest.raises(ValueError):
        is_alsw(A2.empty_word())


def test_is_alsw_matches_both_oracles():
    # definition via splits and the rotation characterization, lengths <= 8
    for n in range(1, 9):
        for w in all_words(A3, n):
            expected = is_alsw_by_splits(w)
            assert is_alsw(w) == expected
            assert is_alsw_by_rotations(w) == expected


def test_factorize_examples():
    assert lyndon_factorize(A2.word("x")) == [A2.word("x")]
    assert lyndon_factorize(A2.word("yxxy")) == [A2.word("y"), A2.word("xxy")]
    assert lyndon_factorize(A2.word("xyx")) == [A2.word("xy"), A2.word("x")]
    with pytest.raises(ValueError):
        lyndon_factorize(A2.empty_word())


def test_factorize_roundtrip_all_words():
    for n in range(1, 9):
        for u in all_words(A3, n):
            factors = lyndon_factorize(u)
            glued = factors[0]
            for f in factors[1:]:
                glued = glued + f
            assert glued == u
            assert all(is_alsw(f) for f in factors)
            for a, b in zip(factors, factors[1:]):
                assert compare_lex(a, b) != GREATER


def test_factorize_uniqueness_exhaustive():
    for n in range(1, 7):
        for u in all_words(A3, n):
            facts = nondecreasing_alsw_factorizations(u)
            assert len(facts) == 1, str(u)
            assert facts[0] == lyndon_factorize(u)


def test_standard_split_examples():
    assert standard_split(A2.word("xyy")) == (A2.word("xy"), A2.word("y"))
    assert standard_split(A2.word("xxy")) == (A2.word("x"), A2.word("xy"))
    with pytest.raises(ValueError):
        standard_split(A2.word("x"))
    with pytest.raises(ValueError):
        standard_split(A2.word("yx"))


def test_standard_split_properties():
    words = enumerate_alsw(A3, 8) + enumerate_alsw(A4, 8)
    for u in words:
        if len(u) < 2:
            continue
        v, w = standard_split(u)
        assert v + w == u
        assert is_alsw(v) and is_alsw(w)
        # w is the longest proper suffix that is Lyndon-Shirshov
        for i in range(1, len(u) - len(w)):
            assert not is_alsw_by_splits(u[i:])


def test_enumerate_alsw_examples():
    words = enumerate_alsw(A2, 3)
    assert {str(w) for w in words} == {"y", "x", "xy", "xxy", "xyy"}
    counts = [sum(1 for w in words if len(w) == n) for n in (1, 2, 3)]
    assert counts == [2, 1, 2]
    # deg-lex ascending throughout
    keys = [deglex_key(w) for w in words]
    assert keys == sorted(keys)

    single = Alphabet.from_decl("x")
    assert enumerate_alsw(single, 5) == [single.word("x")]

    assert sum(1 for w in enumerate_alsw(A3, 3) if len(w) == 3) == 8

    with pytest.raises(ValueError):
        enumerate_alsw(A2, 0)


def test_enumerate_alsw_deep_degree():
    # the generator does not recurse, so a degree far past the recursion
    # limit costs no more than the walk to it
    single = Alphabet.from_decl("x")
    assert enumerate_alsw(single, 5000) == [single.word("x")]


def test_alsw_ranks_prunes_exactly_the_words_with_a_forbidden_factor():
    # a test for "the word now ends with a forbidden factor" keeps the
    # Lyndon-Shirshov words free of those factors, a deg-lex list per
    # length, when each factor's first letter has a higher rank than its
    # other letters, as the x u y patterns of a commutation graph do
    lsw = [
        [u.ranks for u in all_words(A3, n) if is_alsw_by_splits(u)] for n in range(1, 8)
    ]
    rng = random.Random(5)

    def factor():
        x = rng.randint(1, 2)
        return (x,) + tuple(rng.randrange(x) for _ in range(rng.randint(1, 3)))

    for forbidden in [{(2, 1)}, {(1, 0, 0)}, {(2, 0, 1), (1, 0)}, {(2, 1, 1, 0)}] + [
        {factor() for _ in range(2)} for _ in range(12)
    ]:

        def ends_ok(w, n):
            return not any(tuple(w[n - len(f) : n]) == f for f in forbidden)

        def free(r):
            return all(r[i : i + len(f)] != f for f in forbidden for i in range(len(r)))

        expected = [[r for r in level if free(r)] for level in lsw]
        assert _alsw_ranks(3, 7, ends_ok) == expected, forbidden


def test_enumerate_alsw_matches_brute_force():
    # generator agreement with the definition filter, lengths <= 8
    got = {w for w in enumerate_alsw(A3, 8)}
    expected = {
        w for n in range(1, 9) for w in all_words(A3, n) if is_alsw_by_splits(w)
    }
    assert got == expected
    for n in range(1, 9):
        assert sum(1 for w in got if len(w) == n) == witt_count(3, n)
