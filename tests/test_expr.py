import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pclie import (
    Alphabet,
    LiePoly,
    ParseError,
    enumerate_alsw,
    parse_expr,
)
from pclie.expr import _parse_value, _tokenize

from oracles import tokenize_by_characters

A2 = Alphabet.from_decl("x > y")
A3 = Alphabet.from_decl("x > y > z")
AB = Alphabet.from_decl("ab > c > d")


def test_single_monomial():
    ast = parse_expr("((x y) z)", A3)
    assert len(ast.parts) == 1
    c, tree = ast.parts[0]
    assert c == 1
    assert str(tree) == "((x y) z)"


def test_coefficient_collection():
    p = parse_expr("3/2*(x y) - (y x)", A2).to_lie_poly()
    assert p == LiePoly(A2, {A2.word("xy"): Fraction(5, 2)})


def test_whitespace_insensitive():
    a = parse_expr("3/2*(x y)-(y x)", A2).to_lie_poly()
    b = parse_expr("  3 / 2 * ( x y )  -  ( y x ) ", A2).to_lie_poly()
    assert a == b


def test_negative_and_integer_coefficients():
    p = parse_expr("-2*(x y) + x", A2).to_lie_poly()
    assert p == LiePoly(A2, {A2.word("xy"): -2, A2.word("x"): 1})
    z = parse_expr("0*x", A2).to_lie_poly()
    assert z.is_zero()
    # a zero multiple adds no term, not even one with coefficient 0
    one = parse_expr("0*(x y) + (x z)", A3).to_lie_poly()
    assert one.terms == {A3.word("xz"): 1} and str(one) == "[xz]"


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse_expr("((x y)", A2)
    assert e.value.position == len("((x y)")

    with pytest.raises(ParseError) as e:
        parse_expr("(x w)", A2)
    assert e.value.position == 3

    # int() refuses more digits than sys.get_int_max_str_digits()
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    for text, position in ((digits + "*x", 0), ("-1/" + digits + "*x", 3)):
        with pytest.raises(ParseError, match="integer too long") as e:
            parse_expr(text, A2)
        assert e.value.position == position

    with pytest.raises(ParseError):
        parse_expr("3/0*(x y)", A2)
    with pytest.raises(ParseError):
        parse_expr("(x y) (y x)", A2)  # missing operator
    with pytest.raises(ParseError):
        parse_expr("(x y z)", A3)  # applications are binary
    with pytest.raises(ParseError):
        parse_expr("3*(x y", A2)
    with pytest.raises(ParseError):
        parse_expr("", A2)
    with pytest.raises(ParseError):
        parse_expr("x ?", A2)


def test_render_parse_round_trip():
    rng = random.Random(97)
    words = enumerate_alsw(A3, 5)
    for _ in range(200):
        terms = {}
        for w in rng.sample(words, rng.randint(0, 4)):
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if c:
                terms[w] = c
        p = LiePoly(A3, terms)
        assert parse_expr(p.to_expr_text(), A3).to_lie_poly() == p


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(st.text(st.sampled_from("xyz_Q09()+-*/ ?.\t\n\x0b\x1c\xa0\u0663\xe9"), max_size=24))
def test_tokens_match_a_character_by_character_reading(text):
    # one regular-expression pass gives the tokens, or the error and its
    # position, of a reading one character at a time (the Arabic-Indic
    # digit and the accented letter are neither digits nor letters here)
    try:
        expected = tokenize_by_characters(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as e:
            _tokenize(text)
        assert (str(e.value), e.value.position) == (str(exc), exc.position)
    else:
        assert _tokenize(text) == expected


@st.composite
def factor_tokens(draw, alphabet, depth=3):
    """The tokens of a random bracketing, canonical or not, of up to 2**depth
    letters."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return [draw(st.sampled_from(alphabet.letters))]
    left = draw(factor_tokens(alphabet, depth - 1))
    return ["(", *left, *draw(factor_tokens(alphabet, depth - 1)), ")"]


@st.composite
def coefficient_tokens(draw):
    """No coefficient, or a signed integer or rational written with '*':
    zero, negative, and over a denominator it shares a factor with."""
    if draw(st.booleans()):
        return []
    sign = ["-"] if draw(st.booleans()) else []
    n = str(draw(st.integers(0, 12)))
    d = draw(st.sampled_from([None, 1, 2, 4, 6, 9]))
    return [*sign, n, *(["/", str(d)] if d else []), "*"]


@st.composite
def expressions(draw):
    """An alphabet and the tokens of a valid expression of 1-4 signed terms."""
    alphabet = draw(st.sampled_from([A3, AB]))
    tokens = []
    for k in range(draw(st.integers(1, 4))):
        if k:
            tokens.append(draw(st.sampled_from("+-")))
        tokens += draw(coefficient_tokens()) + draw(factor_tokens(alphabet))
    return alphabet, tokens


@st.composite
def spaced(draw, tokens):
    """The tokens joined by drawn whitespace, at least one space between two
    tokens that would otherwise read as one."""
    out = tokens[0]
    for prev, tok in zip(tokens, tokens[1:]):
        gap = draw(st.sampled_from(["", "", " ", "  ", "\t", "\n "]))
        if not gap and prev[-1].isalnum() and tok[0].isalnum():
            gap = " "
        out += gap + tok
    return draw(st.sampled_from(["", " ", "\t"])) + out + draw(st.sampled_from(["", " "]))


def outcome(read, text, alphabet):
    try:
        return read(text, alphabet)
    except ParseError as exc:
        return str(exc), exc.position


def tree_fold(text, alphabet):
    return parse_expr(text, alphabet).to_lie_poly()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_the_value_fold_equals_the_tree_fold(data):
    alphabet, tokens = data.draw(expressions())
    text = data.draw(spaced(tokens))
    assert _parse_value(text, alphabet) == tree_fold(text, alphabet)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_both_folds_refuse_a_token_dropped_or_inserted_alike(data):
    # most edits break the grammar, and then both raise the same error at
    # the same position; an edit that leaves a valid expression (a sign
    # dropped, a digit inserted in a coefficient) gives equal values
    alphabet, tokens = data.draw(expressions())
    i = data.draw(st.integers(0, len(tokens)))
    if i < len(tokens) and data.draw(st.booleans()):
        del tokens[i]
    else:
        extra = [*alphabet.letters, "q", "a", "0", "7", "(", ")", "+", "-", "*", "/", "?"]
        tokens.insert(i, data.draw(st.sampled_from(extra)))
    text = data.draw(spaced(tokens)) if tokens else ""
    assert outcome(_parse_value, text, alphabet) == outcome(tree_fold, text, alphabet)
