"""Rewriting rules, special bracketings, and normal s-words.

A rule is a monic Lie element with a designated leading Lyndon-Shirshov
word.  Rewriting a larger word around an occurrence of that leading word
needs a bracketing of the host that isolates the occurrence; the special
bracketing below provides it, and substituting the rule body into the
isolated slot yields the normal s-word whose leading word is the host.
Every rewrite site is named by host word, rule and position, as
``Occurrence`` names it.
A special bracketing is kept as the siblings along its slot path, and
both its tree and the normal s-word are folds over them.  The
substitution is evaluated in the Lyndon-Shirshov basis: the body is
bracketed with each sibling in turn, deepest first, and every sibling is
a canonical bracket, so a single basis element; no tree is built.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .lie import LiePoly, LieTree, _bracket_terms, bracket, expand
# commutator and nlsw_decompose are not called here (normal_s_word brackets
# in the Lyndon-Shirshov basis), but perfbench/layers.py wraps these bindings
from .lie import commutator, nlsw_decompose  # noqa: F401
from .words import is_alsw, lyndon_factorize


class InvariantError(ArithmeticError):
    """An internal invariant of the rewriting failed: a library bug or a
    corrupted rule, never bad user input.  Raised explicitly, so the check
    also runs under ``python -O``."""


class Rule:
    """A monic Lie polynomial used as a rewrite rule.

    The leading word (deg-lex maximal basis word, coefficient exactly 1)
    is the pattern the rule rewrites.
    """

    __slots__ = ("body", "leading", "_hash")

    def __init__(self, body):
        leading, c = body.leading()
        if c != 1:
            raise ValueError(f"rule must be monic, leading coefficient is {c}")
        self.body = body
        self.leading = leading
        self._hash = hash((leading, tuple(body.items_deglex())))

    @classmethod
    def monic(cls, poly):
        """Scale a nonzero Lie polynomial to leading coefficient 1."""
        _, c = poly.leading()
        return cls(poly.scale(Fraction(1) / Fraction(c)))

    def __eq__(self, other):
        return isinstance(other, Rule) and self.body == other.body

    def __hash__(self):
        return self._hash

    def __str__(self):
        return str(self.body)

    def __repr__(self):
        return f"Rule({self.body})"


class Occurrence(namedtuple("Occurrence", "host sub position")):
    """A contiguous occurrence of a Lyndon-Shirshov word inside another:
    host = a . sub . b with len(a) = position."""

    __slots__ = ()

    def __new__(cls, host, sub, position):
        if not is_alsw(host):
            raise ValueError(f"host {host!r} is not a Lyndon-Shirshov word")
        if not is_alsw(sub):
            raise ValueError(f"subword {sub!r} is not a Lyndon-Shirshov word")
        q = position + len(sub)
        if position < 0 or q > len(host) or host.ranks[position:q] != sub.ranks:
            raise ValueError(f"{sub} does not occur in {host} at position {position}")
        return tuple.__new__(cls, (host, sub, position))


class SpecialBracketing:
    """A rebracketing of [host] around one occurrence of a subword.

    ``sides`` lists the (step, sibling) pairs along the slot path, root
    first: step 0 when the path goes left, 1 when it goes right, and the
    sibling is the canonical bracket on the other side.  The tree pairs
    the slot, the bracket of the subword, with each sibling in turn,
    deepest first, and is built only when ``tree`` is read; its expansion
    still leads with the host word, coefficient 1.  Substituting a Lie
    polynomial for the slot and bracketing back up the path gives the
    multilinear evaluation (``normal_s_word``).
    """

    __slots__ = ("sides", "occurrence")

    def __init__(self, sides, occurrence):
        self.sides = sides
        self.occurrence = occurrence

    @property
    def slot_path(self):
        return tuple(step for step, _ in self.sides)

    @property
    def tree(self):
        return _fold(self.sides, self.slot(), LieTree.pair)

    def slot(self):
        return bracket(self.occurrence.sub)

    def expand(self):
        return expand(self.tree)


def _fold(sides, value, pair):
    """Rebuild a path bottom-up: combine value with each sibling, deepest
    first, the sibling keeping its side of the pair."""
    for step, sib in reversed(sides):
        value = pair(value, sib) if step == 0 else pair(sib, value)
    return value


def special_bracket(occ):
    """The special bracketing of [host] at an occurrence of sub.

    Inside the canonical bracket of the host there is a unique minimal
    subtree whose leaf span starts exactly at the occurrence and covers
    the subword; its overhang c is refactored so the subtree becomes
    [[[sub][c1]]...[ck]] with c1...ck the non-decreasing factorization
    of c.  The expansion of the result still leads with the host word.
    """
    u, v = occ.host, occ.sub
    p = occ.position
    q = p + len(v)

    # descend to the smallest subtree containing [p, q), recording the
    # sibling beside each step; by the containment property it starts
    # exactly at p
    node, start, sides = bracket(u), 0, []
    while node.left is not None:
        mid = start + len(node.left.word)
        if q <= mid:
            sides.append((0, node.right))
            node = node.left
        elif p >= mid:
            sides.append((1, node.left))
            node, start = node.right, mid
        else:
            break
    if start != p:
        raise InvariantError(
            f"no subtree of [{u}] starts at position {p}; "
            "the containment property failed"
        )

    overhang = u[q : p + len(node.word)]
    if len(overhang):
        # [ck] is the sibling nearest the root in [[[sub][c1]]...[ck]]
        sides += [(0, bracket(c)) for c in reversed(lyndon_factorize(overhang))]
    return SpecialBracketing(sides, occ)


@lru_cache(maxsize=None)
def normal_s_word(w, s, position):
    """The normal s-word (a s b) with host w = a.leading(s).b, len(a) =
    position: substitute the rule body into the special bracketing of w
    at that occurrence.  w must be a Lyndon-Shirshov word.  The result
    leads with w, coefficient 1."""
    sb = special_bracket(Occurrence(w, s.leading, position))  # validates the site
    # each sibling is a canonical bracket: one basis element
    basis_sides = [(step, {sib.word: 1}) for step, sib in sb.sides]
    result = LiePoly(w.alphabet, _fold(basis_sides, s.body.terms, _bracket_terms))
    lw, lc = result.leading()
    if lw != w or lc != 1:
        raise InvariantError(f"normal s-word {w} lead check failed: {result}")
    return result
