"""Bracketed words and exact Lie polynomial arithmetic.

Elements of the free Lie algebra are kept in coordinates over the
canonical basis of bracketed Lyndon-Shirshov words, with exact rational
coefficients.  Inside the package a polynomial has one format: integer
numerators keyed by the words' rank tuples, over one positive
denominator, in lowest terms (``_Poly``).  Words and exact int/Fraction
coefficients are built only at the API: ``terms``, ``leading``,
``items_deglex`` and the printed forms.  Two basis elements are bracketed
in those coordinates directly, by the classic recursion on standard
splits (``_basis_bracket``, on rank tuples and integers, so one table
serves every alphabet), and every Lie product in the engine is that
bracket extended bilinearly.

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
from math import gcd, lcm

from .words import (
    GREATER,
    LESS,
    Word,
    _compare_ranks,
    _deglex_max,
    _standard_cut,
    is_alsw,
    standard_split,
)


class NotLieElementError(ValueError):
    """Raised when an associative polynomial has no bracketed-word coordinates."""


def _coeff(c):
    """Normalize an exact coefficient; integral rationals become int."""
    if c.__class__ is int:  # exact types, so a bool is refused
        return c
    if c.__class__ is Fraction:
        return int(c) if c.denominator == 1 else c
    raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__}")


def _exact(n, d):
    """The exact coefficient n/d for d > 0: an int when d divides n, else
    a reduced Fraction."""
    if d == 1:
        return n
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


class LieTree:
    """A fully bracketed word: a one-letter leaf, built by ``LieTree(word)``
    (or ``LieTree.leaf`` from a symbol), or an ordered pair of trees, built
    by ``LieTree.pair``, whose word is its children's words joined."""

    __slots__ = ("word", "left", "right", "_text")

    def __init__(self, word):
        if len(word) != 1:
            raise ValueError(f"a leaf is one letter, not {word!r}")
        self.word = word
        self.left = self.right = None
        self._text = word[0]

    @classmethod
    def leaf(cls, alphabet, symbol):
        return cls(alphabet.word_of([symbol]))

    @classmethod
    def pair(cls, left, right):
        t = cls.__new__(cls)
        t.word = left.word + right.word
        t.left = left
        t.right = right
        # children exist before their parent, so each node is rendered once
        t._text = f"({left._text} {right._text})"
        return t

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
        t = LieTree(u[i : i + 1])
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
    """dst += c * src on integer term dicts, in place; zero sums dropped,
    and a zero scalar adds nothing."""
    if not c:
        return
    for r, v in src.items():
        if r in dst:
            s = dst[r] + c * v
            if s:
                dst[r] = s
            else:
                del dst[r]
        else:
            dst[r] = c * v


class _Poly:
    """Sparse exact arithmetic shared by the polynomial classes.

    The one stored format: ``_num`` maps the rank tuple of each word to a
    non-zero integer numerator, over one positive denominator ``_den``,
    and the gcd of the denominator and every numerator is 1, so equal
    polynomials store equal data.  ``_num`` is never changed once built.
    The constructor checks outside input, each word with ``_check_word``;
    a result computed from checked words skips it (``_make``).  Words and
    exact coefficients are built only at the API (``terms``, ``leading``,
    ``items_deglex``); the printed forms read the integers directly
    (``_deglex_texts``).  ``_term`` renders a word."""

    __slots__ = ("alphabet", "_num", "_den")
    _term = "{}"

    def __init__(self, alphabet, terms=()):
        data = {}
        for w, c in terms.items() if isinstance(terms, dict) else terms:
            if w.alphabet != alphabet:
                raise ValueError("mixed alphabets in polynomial")
            self._check_word(w)
            if w.ranks in data:
                raise ValueError(f"repeated word {w} in polynomial terms")
            data[w.ranks] = _coeff(c)
        # the least common denominator of reduced coefficients leaves the
        # numerators and it coprime
        den = lcm(*(c.denominator for c in data.values()))
        self.alphabet = alphabet
        self._num = {r: c.numerator * (den // c.denominator) for r, c in data.items() if c}
        self._den = den

    @staticmethod
    def _check_word(w):
        pass

    @classmethod
    def _make(cls, alphabet, num, den=1):
        """The polynomial num / den, for integer numerators num and den > 0
        computed from checked words, brought to lowest terms; nothing is
        checked, and num is kept, not copied."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {r: v // g for r, v in num.items()}
                den //= g
        p = object.__new__(cls)
        p.alphabet = alphabet
        p._num = num
        p._den = den
        return p

    @classmethod
    def zero(cls, alphabet):
        return cls(alphabet)

    def is_zero(self):
        return not self._num

    def __bool__(self):
        return bool(self._num)

    @property
    def terms(self):
        """A fresh dict from word to exact coefficient (an int when
        integral, else a reduced Fraction); changing it leaves the
        polynomial unchanged."""
        alphabet, den = self.alphabet, self._den
        return {Word(alphabet, r): _exact(n, den) for r, n in self._num.items()}

    def items_deglex(self):
        """Terms sorted by deg-lex, leading term first."""
        alphabet, num, den = self.alphabet, self._num, self._den
        return [
            (Word(alphabet, r), _exact(num[r], den))
            for _, r in sorted(zip(map(len, num), num), reverse=True)
        ]

    def _lead(self):
        """The rank tuple of the deg-lex maximal word."""
        if not self._num:
            raise ValueError("the zero polynomial has no leading word")
        return _deglex_max(self._num)

    def leading(self):
        """The deg-lex maximal word and its coefficient."""
        r = self._lead()
        return Word(self.alphabet, r), _exact(self._num[r], self._den)

    def degree(self):
        if not self._num:
            raise ValueError("the zero polynomial has no degree")
        return max(len(r) for r in self._num)

    def _combine(self, c, other):
        if self.alphabet != other.alphabet:
            raise ValueError("mixed alphabets")
        d1, d2 = self._den, other._den
        den = d1 if d1 == d2 else lcm(d1, d2)
        m = den // d1
        out = dict(self._num) if m == 1 else {r: m * v for r, v in self._num.items()}
        _axpy(out, c * (den // d2), other._num)
        return self._make(self.alphabet, out, den)

    def __add__(self, other):
        return self._combine(1, other)

    def __sub__(self, other):
        return self._combine(-1, other)

    def __neg__(self):
        return self._make(self.alphabet, {r: -v for r, v in self._num.items()}, self._den)

    def scale(self, c):
        c = _coeff(c)
        a = c.numerator
        num = {r: a * v for r, v in self._num.items()} if a else {}
        return self._make(self.alphabet, num, self._den * c.denominator)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.alphabet == other.alphabet
            and self._den == other._den
            and self._num == other._num
        )

    def _deglex_texts(self):
        """The terms as (word text, coefficient text) pairs, leading term
        first, read off the rank tuples and integers: each coefficient in
        its own lowest terms, as 'n/d' or 'n'."""
        spell, num, den = self.alphabet._spell, self._num, self._den
        out = []
        for _, r in sorted(zip(map(len, num), num), reverse=True):
            n = num[r]
            g = gcd(n, den)
            out.append((spell(r), str(n // g) if g == den else f"{n // g}/{den // g}"))
        return out

    def _text(self, terms):
        """The printed sum of the ``_deglex_texts`` pairs: a sign between
        terms, a magnitude 1 left out, and "0" for no term."""
        if not terms:
            return "0"
        parts = []
        for w, c in terms:
            sign, mag = ("-", c[1:]) if c[0] == "-" else ("+", c)
            body = self._term.format(w)
            if mag != "1":
                body = f"{mag} {body}"
            parts.append(f" {sign} {body}" if parts else body if sign == "+" else f"-{body}")
        return "".join(parts)

    def __str__(self):
        return self._text(self._deglex_texts())

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
        for r1, c1 in self._num.items():
            for r2, c2 in other._num.items():
                r = r1 + r2
                s = out.get(r, 0) + c1 * c2
                if s:
                    out[r] = s
                else:
                    del out[r]
        return self._make(self.alphabet, out, self._den * other._den)

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
        out = {}
        for r, c in self._num.items():
            _axpy(out, c, expand(bracket(Word(self.alphabet, r)))._num)
        return AssocPoly._make(self.alphabet, out, self._den)

    def to_expr_text(self):
        """Render in the expression grammar (parseable round trip).

        The zero element has no bare literal in the grammar, so it is
        rendered as 0 times the smallest letter.
        """
        if not self._num:
            return f"0*{self.alphabet.letters[0]}"
        parts = []
        for w, c in self.items_deglex():
            tree = str(bracket(w))
            mag = abs(c)
            body = tree if mag == 1 else f"{mag}*{tree}"
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
    rem = dict(p._num)
    out = {}
    while rem:
        r = _deglex_max(rem)
        c = rem[r]
        w = Word(p.alphabet, r)
        if not is_alsw(w):
            raise NotLieElementError(
                f"leading word {w} is not a Lyndon-Shirshov word; "
                "input is not a Lie element"
            )
        out[r] = c
        # an expansion has integer coefficients, so rem stays over p's denominator
        _axpy(rem, -c, expand(bracket(w))._num)
    return LiePoly._make(p.alphabet, out, p._den)


@lru_cache(maxsize=None)
def _basis_bracket(u, v):
    """The bracket of the basis elements [u] and [v], for the rank tuples
    u and v of Lyndon-Shirshov words, as a dict from rank tuple to integer
    coefficient.  Rank tuples compare as the words do in every alphabet,
    so one table serves them all.  The dict is shared through the cache
    and must not be changed.

    For u > v with standard split u = u1 u2, [u][v] is the basis element
    [uv] when u is a letter or u2 <= v: then uv is Lyndon-Shirshov and its
    standard split is (u, v).  Otherwise the Jacobi identity gives
    [u][v] = [u1][[u2][v]] + [[u1][v]][u2], and the recursion goes on
    (Reutenauer, Free Lie Algebras, 1993, sections 4-5)."""
    if u == v:
        return {}
    if _compare_ranks(u, v) == LESS:
        return {w: -c for w, c in _basis_bracket(v, u).items()}
    if len(u) == 1:
        return {u + v: 1}
    cut = _standard_cut(u)
    u1, u2 = u[:cut], u[cut:]
    if _compare_ranks(u2, v) != GREATER:
        return {u + v: 1}
    out = {}
    for w, c in _basis_bracket(u2, v).items():
        _axpy(out, c, _basis_bracket(u1, w))
    for w, c in _basis_bracket(u1, v).items():
        _axpy(out, c, _basis_bracket(w, u2))
    return out


def _bracket_terms(p, q):
    """The bracket of two elements given as integer term dicts, extended
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
            values.append({node.word.ranks: 1})
        else:
            todo += (None, node.right, node.left)
    return values[0]


def tree_value(t):
    """The Lie element a bracketed word denotes, in basis coordinates: a
    leaf is its letter, and a pair is the bracket of its children's
    values."""
    return LiePoly._make(t.word.alphabet, _tree_terms(t))


def lie_bracket(p, q):
    """Lie bracket of two elements in basis coordinates."""
    if p.alphabet != q.alphabet:
        raise ValueError("mixed alphabets")
    return p._make(p.alphabet, _bracket_terms(p._num, q._num), p._den * q._den)


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
        return [(1, LieTree.pair(leaf_x, LieTree(u)))]
    v, w = standard_split(u)  # raises for a word that is not Lyndon-Shirshov
    left = left_pair_expansion(x, v)
    right = left_pair_expansion(x, w)
    bw, bv = bracket(w), bracket(v)
    return [(c, LieTree.pair(t, bw)) for c, t in left] + [
        (-c, LieTree.pair(t, bv)) for c, t in right
    ]
