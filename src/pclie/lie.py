"""Bracketed words and exact Lie polynomial arithmetic.

Elements of the free Lie algebra are kept in coordinates over the
canonical basis of bracketed Lyndon-Shirshov words, with exact rational
coefficients (plain ints whenever possible).  Two basis elements are
bracketed in those coordinates directly, by the classic recursion on
standard splits (``_basis_bracket``), and every Lie product in the
engine is that bracket extended bilinearly, on the one term format of
``LiePoly.terms``: a dict from Lyndon-Shirshov word to coefficient.

Expansion into the free associative algebra realizes the bracket as
(ab) = ab - ba; the leading associative word of a bracketed
Lyndon-Shirshov word is the word itself with coefficient 1, so
``nlsw_decompose`` can read coordinates back off an associative
polynomial by greedy triangular decomposition.  The engine does not use
that path; it stays as the independent check of the bracket.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .words import (
    GREATER,
    LESS,
    Word,
    _compare_ranks,
    _standard_cut,
    deglex_key,
    is_alsw,
    standard_split,
)


class NotLieElementError(ValueError):
    """Raised when an associative polynomial has no bracketed-word coordinates."""


def _coeff(c):
    """Normalize an exact coefficient; integral rationals become int."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__}")


def coeff_str(c):
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(c)


class LieTree:
    """A fully bracketed word: a leaf letter or an ordered pair of trees."""

    __slots__ = ("word", "left", "right", "_text")

    def __init__(self, word, left, right):
        self.word = word
        self.left = left
        self.right = right
        # children exist before their parent, so each node is rendered once
        self._text = word[0] if left is None else f"({left._text} {right._text})"

    @classmethod
    def leaf(cls, alphabet, symbol):
        return cls(alphabet.word_of([symbol]), None, None)

    @classmethod
    def pair(cls, left, right):
        return cls(left.word + right.word, left, right)

    @property
    def letter(self):
        if self.left is not None:
            raise ValueError("not a leaf")
        return self.word[0]

    def degree(self):
        return len(self.word)

    def __eq__(self, other):
        # the text spells out the bracketing; equal words share an alphabet
        return (
            isinstance(other, LieTree)
            and self._text == other._text
            and self.word == other.word
        )

    def __hash__(self):
        # equal trees have equal words
        return hash(self.word)

    def __str__(self):
        return self._text

    def __repr__(self):
        return f"LieTree({str(self)!r})"


@lru_cache(maxsize=None)
def bracket(u):
    """The canonical bracketing [u] of a Lyndon-Shirshov word in one
    right-to-left pass (Reutenauer, Free Lie Algebras, 1993, section 5):
    the stack holds the bracketed factorization of the suffix read, first
    factor on top, and a letter's tree takes the top tree while it is
    greater, each pair a standard split.  u is Lyndon-Shirshov exactly
    when one tree is left."""
    stack = []
    for i in range(len(u) - 1, -1, -1):
        t = LieTree(u[i : i + 1], None, None)
        while stack and _compare_ranks(t.word.ranks, stack[-1].word.ranks) == GREATER:
            t = LieTree.pair(t, stack.pop())
        stack.append(t)
    if len(stack) != 1:
        raise ValueError(f"{u!r} is not a Lyndon-Shirshov word")
    return stack[0]


def is_nlsw(t):
    """Whether a tree is the canonical bracketing of a Lyndon-Shirshov word.

    The canonical bracketings are Hall trees, and a Lyndon-Shirshov word
    has exactly one Hall tree over its letters, so a tree is canonical
    exactly when it equals ``bracket`` of its word."""
    return t.left is None or (is_alsw(t.word) and t == bracket(t.word))


def _axpy(dst, c, src):
    """dst += c * src on term dicts, in place; zero coefficients dropped."""
    for w, v in src.items():
        s = dst.get(w, 0) + c * v
        if s:
            dst[w] = _coeff(s)
        else:
            dst.pop(w, None)


class _Poly:
    """Sparse exact arithmetic shared by the polynomial classes: a finite
    mapping from words to exact rational coefficients, zero coefficients
    absent.  Subclasses choose which words are allowed (``_check_word``)
    and how a term's word is rendered (``_term``)."""

    __slots__ = ("alphabet", "terms")
    _term = "{}"

    def __init__(self, alphabet, terms=()):
        data = {}
        pairs = not isinstance(terms, dict)
        for w, c in terms if pairs else terms.items():
            if w.alphabet != alphabet:
                raise ValueError("mixed alphabets in polynomial")
            self._check_word(w)
            # a pair list may repeat a word, which then has no one coefficient
            if pairs and w in data:
                raise ValueError(f"repeated word {w} in polynomial terms")
            c = _coeff(c)
            if c or pairs:
                data[w] = c
        self.alphabet = alphabet
        self.terms = {w: c for w, c in data.items() if c} if pairs else data

    @staticmethod
    def _check_word(w):
        pass

    def _make(self, terms):
        p = object.__new__(type(self))
        p.alphabet = self.alphabet
        p.terms = terms
        return p

    @classmethod
    def zero(cls, alphabet):
        return cls(alphabet)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def items_deglex(self):
        """Terms sorted by deg-lex, leading term first."""
        return sorted(self.terms.items(), key=lambda kv: deglex_key(kv[0]), reverse=True)

    def leading(self):
        """The deg-lex maximal word and its coefficient."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading word")
        w = max(self.terms, key=deglex_key)
        return w, self.terms[w]

    def degree(self):
        if not self.terms:
            raise ValueError("the zero polynomial has no degree")
        return max(len(w) for w in self.terms)

    def _combine(self, c, other):
        if self.alphabet != other.alphabet:
            raise ValueError("mixed alphabets")
        out = dict(self.terms)
        _axpy(out, c, other.terms)
        return self._make(out)

    def __add__(self, other):
        return self._combine(1, other)

    def __sub__(self, other):
        return self._combine(-1, other)

    def __neg__(self):
        return self._make({w: -c for w, c in self.terms.items()})

    def scale(self, c):
        c = _coeff(c)
        if not c:
            return self._make({})
        return self._make({w: _coeff(c * v) for w, v in self.terms.items()})

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.items_deglex():
            mag = abs(c)
            term = self._term.format(w)
            body = term if mag == 1 else f"{coeff_str(mag)} {term}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" {'+' if c > 0 else '-'} {body}")
        return "".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class AssocPoly(_Poly):
    """A polynomial in the free associative algebra: a finite mapping from
    words to exact rational coefficients, zero coefficients absent."""

    __slots__ = ()

    @classmethod
    def monomial(cls, word, c=1):
        return cls(word.alphabet, [(word, c)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if self.alphabet != other.alphabet:
            raise ValueError("mixed alphabets")
        out = {}
        for w1, c1 in self.terms.items():
            r1 = w1.ranks
            for w2, c2 in other.terms.items():
                w = Word(self.alphabet, r1 + w2.ranks)
                s = out.get(w, 0) + c1 * c2
                if s:
                    out[w] = s
                else:
                    del out[w]
            # zero entries can only appear through cancellation above
        return self._make({w: _coeff(c) for w, c in out.items()})

    def __rmul__(self, c):
        return self.scale(c)


def commutator(p, q):
    """pq - qp in the free associative algebra."""
    return p * q - q * p


@lru_cache(maxsize=None)
def expand(t):
    """Expansion of a tree into the free associative algebra via
    (ab) = ab - ba.  Coefficients of a tree expansion are integers."""
    if t.left is None:
        return AssocPoly.monomial(t.word)
    return commutator(expand(t.left), expand(t.right))


def leading_word(p):
    """Deg-lex maximal monomial of an associative polynomial."""
    return p.leading()


class LiePoly(_Poly):
    """A Lie element in coordinates over the bracketed Lyndon-Shirshov
    basis: a finite mapping from Lyndon-Shirshov words to coefficients."""

    __slots__ = ()
    _term = "[{}]"

    @staticmethod
    def _check_word(w):
        if not is_alsw(w):
            raise ValueError(f"{w!r} is not a Lyndon-Shirshov word")

    @classmethod
    def basis(cls, word):
        """The basis element [word]."""
        return cls(word.alphabet, [(word, 1)])

    @classmethod
    def letter(cls, alphabet, symbol):
        return cls.basis(alphabet.word_of([symbol]))

    def __mul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    __rmul__ = __mul__

    def to_assoc(self):
        """Expand into the free associative algebra."""
        out = AssocPoly.zero(self.alphabet)
        for w, c in self.terms.items():
            _axpy(out.terms, c, expand(bracket(w)).terms)
        return out

    def to_expr_text(self):
        """Render in the expression grammar (parseable round trip).

        The zero element has no bare literal in the grammar, so it is
        rendered as 0 times the smallest letter.
        """
        if not self.terms:
            return f"0*{self.alphabet.letters[0]}"
        parts = []
        for w, c in self.items_deglex():
            tree = str(bracket(w))
            mag = abs(c)
            body = tree if mag == 1 else f"{coeff_str(mag)}*{tree}"
            if not parts:
                parts.append(body if c > 0 else f"-1*{tree}" if mag == 1 else f"-{body}")
            else:
                parts.append(f" {'+' if c > 0 else '-'} {body}")
        return "".join(parts)


def nlsw_decompose(p):
    """Coordinates of an associative polynomial over the bracketed
    Lyndon-Shirshov basis, by greedy triangular extraction.

    Repeatedly strips the leading word u (which must be a Lyndon-Shirshov
    word), subtracting coefficient times the expansion of [u].  The
    remainder reaching zero is exactly membership in the Lie subalgebra;
    otherwise NotLieElementError is raised.
    """
    rem = dict(p.terms)
    out = {}
    while rem:
        w = max(rem, key=deglex_key)
        c = rem[w]
        if not is_alsw(w):
            raise NotLieElementError(
                f"leading word {w} is not a Lyndon-Shirshov word; "
                "input is not a Lie element"
            )
        out[w] = c
        _axpy(rem, -c, expand(bracket(w)).terms)
    return LiePoly(p.alphabet, out)


@lru_cache(maxsize=None)
def _basis_bracket(u, v):
    """The bracket of the basis elements [u] and [v], for Lyndon-Shirshov
    words u and v, as a dict from word to integer coefficient.  The dict
    is shared through the cache and must not be changed.

    For u > v with standard split u = u1 u2, [u][v] is the basis element
    [uv] when u is a letter or u2 <= v: then uv is Lyndon-Shirshov and its
    standard split is (u, v).  Otherwise the Jacobi identity gives
    [u][v] = [u1][[u2][v]] + [[u1][v]][u2], and the recursion goes on
    (Reutenauer, Free Lie Algebras, 1993, sections 4-5)."""
    if u == v:
        return {}
    if _compare_ranks(u.ranks, v.ranks) == LESS:
        return {w: -c for w, c in _basis_bracket(v, u).items()}
    if len(u) == 1:
        return {u + v: 1}
    cut = _standard_cut(u.ranks)
    u1, u2 = u[:cut], u[cut:]
    if _compare_ranks(u2.ranks, v.ranks) != GREATER:
        return {u + v: 1}
    out = {}
    for w, c in _basis_bracket(u2, v).items():
        _axpy(out, c, _basis_bracket(u1, w))
    for w, c in _basis_bracket(u1, v).items():
        _axpy(out, c, _basis_bracket(w, u2))
    return out


def _bracket_terms(p, q):
    """The bracket of two elements given as term dicts, extended
    bilinearly from ``_basis_bracket``."""
    out = {}
    for u, a in p.items():
        for v, b in q.items():
            _axpy(out, a * b, _basis_bracket(u, v))
    return out


def _tree_terms(t):
    # post-order over an explicit stack, so any depth works: None marks
    # the point where a pair's two children have their values on the
    # value stack; a subtree met twice is simply evaluated twice
    values, todo = [], [t]
    while todo:
        node = todo.pop()
        if node is None:
            right = values.pop()
            values[-1] = _bracket_terms(values[-1], right)
        elif node.left is None:
            values.append({node.word: 1})
        else:
            todo += (None, node.right, node.left)
    return values[0]


def tree_value(t):
    """The Lie element a bracketed word denotes, in basis coordinates: a
    leaf is its letter, and a pair is the bracket of its children's
    values."""
    return LiePoly(t.word.alphabet, _tree_terms(t))


def lie_bracket(p, q):
    """Lie bracket of two elements in basis coordinates."""
    if p.alphabet != q.alphabet:
        raise ValueError("mixed alphabets")
    return LiePoly(p.alphabet, _bracket_terms(p.terms, q.terms))


def left_pair_expansion(x, u):
    """Rewrite (x [u]), for a letter x dominating every letter of the
    Lyndon-Shirshov word u, as a signed sum of trees of the shape
    ((x y) ...): pairs of x with a single letter, multiplied on the right
    by canonical brackets.  Follows the standard-split recursion; every
    emitted tree has the same letter multiset as xu, and its expansion
    leads with its own leaf word."""
    alphabet = u.alphabet
    xr = alphabet.rank(x)
    if any(r >= xr for r in u.ranks):
        raise ValueError(f"{x!r} must dominate every letter of {u!r}")
    if len(u) == 1:
        leaf_x = LieTree.leaf(alphabet, x)
        return [(1, LieTree.pair(leaf_x, LieTree(u, None, None)))]
    v, w = standard_split(u)  # raises for a word that is not Lyndon-Shirshov
    left = left_pair_expansion(x, v)
    right = left_pair_expansion(x, w)
    bw, bv = bracket(w), bracket(v)
    return [(c, LieTree.pair(t, bw)) for c, t in left] + [
        (-c, LieTree.pair(t, bv)) for c, t in right
    ]
