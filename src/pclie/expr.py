"""Expression front end for Lie elements.

Grammar (whitespace insensitive):

    expr     := term (('+'|'-') term)*
    term     := [rational '*']? factor
    factor   := symbol | '(' factor factor ')'
    rational := integer ['/' positive-integer]

Applications are explicitly binary; there is no compact bracket input
form.  The zero element is written as a zero coefficient, e.g. "0*x".
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .lie import LiePoly, LieTree, tree_value
from .words import LETTER_NAME
# expand and nlsw_decompose are not called here (to_lie_poly brackets in the
# Lyndon-Shirshov basis), but perfbench/layers.py wraps these bindings
from .lie import expand, nlsw_decompose  # noqa: F401

_TOKEN = re.compile(rf"\s*(?:([0-9]+)|({LETTER_NAME})|([()+\-*/]))")


class ParseError(ValueError):
    """Syntax or binding error, with the offending position."""

    def __init__(self, message, position):
        super().__init__(f"position {position}: {message}")
        self.position = position


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if m is None:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.group(1) is not None:
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("sym", m.group(2), m.start(2)))
        else:
            tokens.append((m.group(3), m.group(3), m.start(3)))
        i = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class ExprAst(namedtuple("ExprAst", "alphabet parts")):
    """A parsed expression: signed rational multiples of bracketed trees.
    ``parts`` holds the (coefficient, LieTree) pairs in source order."""

    __slots__ = ()

    def to_lie_poly(self):
        out = LiePoly.zero(self.alphabet)
        for c, tree in self.parts:
            out = out + tree_value(tree).scale(c)
        return out


class _Parser:
    def __init__(self, text, alphabet):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.alphabet = alphabet

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.take()
        if tok[0] != kind:
            place = "end of input" if tok[0] == "end" else repr(tok[1])
            raise ParseError(f"expected {what}, found {place}", tok[2])
        return tok

    def parse(self):
        parts = [self.term()]
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            c, tree = self.term()
            parts.append((c if op == "+" else -c, tree))
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return ExprAst(self.alphabet, tuple(parts))

    def term(self):
        coeff = 1
        kind = self.peek()[0]
        if kind == "int" or kind == "-":
            coeff = self.rational()
            self.expect("*", "'*' between coefficient and factor")
        return coeff, self.factor()

    def rational(self):
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        num = self.expect("int", "an integer")
        value = int(num[1])
        if self.peek()[0] == "/":
            self.take()
            den = self.expect("int", "a positive denominator")
            if int(den[1]) == 0:
                raise ParseError("malformed rational: zero denominator", den[2])
            return Fraction(sign * value, int(den[1]))
        return sign * value

    def factor(self):
        tok = self.take()
        if tok[0] == "sym":
            if tok[1] not in self.alphabet:
                raise ParseError(f"unknown symbol {tok[1]!r}", tok[2])
            return LieTree.leaf(self.alphabet, tok[1])
        if tok[0] == "(":
            left = self.factor()
            right = self.factor()
            self.expect(")", "')'")
            return LieTree.pair(left, right)
        place = "end of input" if tok[0] == "end" else repr(tok[1])
        raise ParseError(f"expected a symbol or '(', found {place}", tok[2])


def parse_expr(text, alphabet):
    """Parse an expression over the given alphabet."""
    return _Parser(text, alphabet).parse()
