"""Expression front end for Lie elements.

Grammar (whitespace insensitive):

    expr     := term (('+'|'-') term)*
    term     := [rational '*']? factor
    factor   := symbol | '(' factor factor ')'
    rational := integer ['/' positive-integer]

Applications are explicitly binary; there is no compact bracket input
form.  The zero element is written as a zero coefficient, e.g. "0*x".

One parser reads the grammar, folded by a ``leaf`` and a ``pair``
callback.  ``parse_expr`` folds into ``LieTree``s and returns them in an
``ExprAst``; ``_parse_value``, which the CLI reads its expressions and
rules with, folds into integer term dicts, bracketing in the
Lyndon-Shirshov basis as it reads, and builds one ``LiePoly`` with no
tree, word or Fraction on the way.  The parser reads the token texts of
one regular-expression pass; a token's position is looked up only for an
error message.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from math import lcm

from .lie import LiePoly, LieTree, _axpy, _bracket_terms, tree_value
from .words import LETTER_NAME, Word
# expand and nlsw_decompose are not called here (to_lie_poly brackets in the
# Lyndon-Shirshov basis), but perfbench/layers.py wraps these bindings
from .lie import expand, nlsw_decompose  # noqa: F401

# group 1 is a token's text; a character that starts no token, whitespace
# aside, matches outside it
_TOKEN = re.compile(rf"([0-9]+|{LETTER_NAME}|[()+\-*/])|\S")
_OPERATORS = frozenset("()+-*/")


class ParseError(ValueError):
    """Syntax or binding error, with the offending position."""

    def __init__(self, message, position):
        super().__init__(f"position {position}: {message}")
        self.position = position


def _tokenize(text):
    """The (kind, text, position) of each token, kind "int", "sym" or the
    operator itself, then ("end", "", len(text))."""
    tokens = []
    for m in _TOKEN.finditer(text):
        tok = m[1]
        if tok is None:
            raise ParseError(f"unexpected character {m[0]!r}", m.start())
        kind = tok if tok in _OPERATORS else "int" if tok.isdigit() else "sym"
        tokens.append((kind, tok, m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class ExprAst(namedtuple("ExprAst", "alphabet parts")):
    """A parsed expression: signed rational multiples of bracketed trees.
    ``parts`` holds the (coefficient, LieTree) pairs in source order."""

    __slots__ = ()

    def to_lie_poly(self):
        out = LiePoly.zero(self.alphabet)
        for c, tree in self.parts:
            out += tree_value(tree).scale(c)
        return out


class _Parser:
    """Recursive descent over the token texts, "" marking the end, folded
    by two callbacks: ``leaf(rank)`` is the value of a letter and
    ``pair(left, right)`` the value of a bracket of two values."""

    def __init__(self, text, alphabet, leaf, pair):
        tokens = _TOKEN.findall(text)
        if "" in tokens:
            _tokenize(text)  # raises at the first character that starts no token
        tokens.append("")
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self.rank = alphabet._rank
        self.leaf = leaf
        self.pair = pair

    def error(self, message, index):
        """The ParseError at token ``index``, placed by ``_tokenize``."""
        return ParseError(message, _tokenize(self.text)[index][2])

    def take(self, ok, what):
        """The next token, which ``ok`` must accept, else an error naming
        ``what`` was expected."""
        i = self.pos
        tok = self.tokens[i]
        self.pos = i + 1
        if not ok(tok):
            place = repr(tok) if tok else "end of input"
            raise self.error(f"expected {what}, found {place}", i)
        return tok

    def parse(self):
        """The (numerator, denominator, value) of each signed term, in
        source order; the denominator is None where none is written."""
        tokens = self.tokens
        parts = [self.term()]
        while (op := tokens[self.pos]) in ("+", "-"):
            self.pos += 1
            n, d, value = self.term()
            parts.append((n if op == "+" else -n, d, value))
        if tokens[self.pos]:
            raise self.error(f"unexpected {tokens[self.pos]!r}", self.pos)
        return parts

    def term(self):
        n, d = 1, None
        tok = self.tokens[self.pos]
        if tok == "-" or tok.isdigit():
            n, d = self.rational()
            self.take("*".__eq__, "'*' between coefficient and factor")
        return n, d, self.factor()

    def rational(self):
        sign = 1
        if self.tokens[self.pos] == "-":
            self.pos += 1
            sign = -1
        value, _ = self.integer("an integer")
        if self.tokens[self.pos] == "/":
            self.pos += 1
            den, index = self.integer("a positive denominator")
            if den == 0:
                raise self.error("malformed rational: zero denominator", index)
            return sign * value, den
        return sign * value, None

    def integer(self, what):
        index = self.pos
        digits = self.take(str.isdigit, what)
        try:
            return int(digits), index
        except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
            raise self.error(f"integer too long: {exc}", index) from None

    def factor(self):
        i = self.pos
        tok = self.tokens[i]
        self.pos = i + 1
        rank = self.rank.get(tok)
        if rank is not None:
            return self.leaf(rank)
        if tok == "(":
            left = self.factor()
            right = self.factor()
            self.take(")".__eq__, "')'")
            return self.pair(left, right)
        if tok and tok not in _OPERATORS and not tok.isdigit():
            raise self.error(f"unknown symbol {tok!r}", i)
        place = repr(tok) if tok else "end of input"
        raise self.error(f"expected a symbol or '(', found {place}", i)


def parse_expr(text, alphabet):
    """Parse an expression over the given alphabet."""
    parts = _Parser(
        text, alphabet, lambda r: LieTree(Word(alphabet, (r,))), LieTree.pair
    ).parse()
    return ExprAst(
        alphabet, tuple((n if d is None else Fraction(n, d), t) for n, d, t in parts)
    )


def _parse_value(text, alphabet):
    """The Lie element an expression denotes, read without a tree: each
    term folds into its integer term dict, and the signed terms are summed
    as numerators over the lcm of their denominators.  It equals
    ``parse_expr(text, alphabet).to_lie_poly()`` and raises the same
    errors."""
    parts = _Parser(text, alphabet, lambda r: {(r,): 1}, _bracket_terms).parse()
    den = lcm(*[d for _, d, _ in parts if d])
    num = {}
    for n, d, terms in parts:
        _axpy(num, n * (den // d) if d else n * den, terms)
    return LiePoly._make(alphabet, num, den)
