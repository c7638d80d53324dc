"""Rewriting rules, special bracketings, and normal s-words.

A rule is a monic Lie element with a designated leading Lyndon-Shirshov
word.  Rewriting a larger word around an occurrence of that leading word
needs a bracketing of the host that isolates the occurrence; the special
bracketing below provides it, and substituting the rule body into the
isolated slot yields the normal s-word whose leading word is the host.
Every rewrite site is named by host word, rule and position, as
``Occurrence`` names it.  A special bracketing is kept as the sibling
words along its slot path, read off the standard splits of the host, and
both its tree and the normal s-word are folds over them.  The
substitution is evaluated in the Lyndon-Shirshov basis, on the integer
numerators of the one format of ``lie._Poly``: the body's numerators are
bracketed with each sibling word in turn, deepest first, a single basis
element each, over the body's denominator; no tree is built (trees only
when ``tree`` is read).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .lie import LieTree, _bracket_terms, bracket, expand
# commutator and nlsw_decompose are not called here (normal_s_word brackets
# in the Lyndon-Shirshov basis), but perfbench/layers.py wraps these bindings
from .lie import commutator, nlsw_decompose  # noqa: F401
from .words import (
    _check_same_alphabet,
    _deglex_max,
    _standard_cut,
    is_alsw,
    lyndon_factorize,
)


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
        self._hash = hash((frozenset(body._num.items()), body._den))

    @classmethod
    def monic(cls, poly):
        """Scale a nonzero Lie polynomial to leading coefficient 1."""
        # poly is num / den with leading numerator c, so the monic form is
        # num / c, in integers
        num, c = poly._num, poly._num[poly._lead()]
        if c < 0:
            num, c = {r: -v for r, v in num.items()}, -c
        return cls(poly._make(poly.alphabet, num, c))

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
        _check_same_alphabet(host, sub)
        q = position + len(sub)
        if position < 0 or q > len(host) or host.ranks[position:q] != sub.ranks:
            raise ValueError(f"{sub} does not occur in {host} at position {position}")
        return tuple.__new__(cls, (host, sub, position))


class SpecialBracketing(namedtuple("SpecialBracketing", "sides occurrence")):
    """A rebracketing of [host] around one occurrence of a subword.

    ``sides`` lists the (step, sibling) pairs along the slot path, root
    first: step 0 when the path goes left, 1 when it goes right, and the
    sibling is the Lyndon-Shirshov word on the other side.  The tree
    pairs the slot, the bracket of the subword, with each sibling's
    bracket in turn, deepest first, and is built only when ``tree`` is
    read; its expansion still leads with the host word, coefficient 1.
    Substituting a Lie polynomial for the slot and bracketing back up the
    path gives the multilinear evaluation (``normal_s_word``).
    """

    __slots__ = ()

    @property
    def slot_path(self):
        return tuple(step for step, _ in self.sides)

    @property
    def tree(self):
        trees = [(step, bracket(sib)) for step, sib in self.sides]
        return _fold(trees, self.slot(), LieTree.pair)

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
    u, v, p = occ
    q = p + len(v)

    # descend the standard splits to the smallest span [start, end) holding
    # [p, q), noting each sibling word; by containment it starts at p
    r, start, end, sides = u.ranks, 0, len(u), []
    while end - start > 1:
        mid = start + _standard_cut(r[start:end])
        if q <= mid:
            sides.append((0, u[mid:end]))
            end = mid
        elif p >= mid:
            sides.append((1, u[start:mid]))
            start = mid
        else:
            break
    if start != p:
        raise InvariantError(
            f"no subtree of [{u}] starts at position {p}; "
            "the containment property failed"
        )

    if q < end:
        # [ck] is the sibling nearest the root in [[[sub][c1]]...[ck]]
        sides += [(0, c) for c in reversed(lyndon_factorize(u[q:end]))]
    return SpecialBracketing(sides, occ)


@lru_cache(maxsize=None)
def normal_s_word(w, s, position):
    """The normal s-word (a s b) with host w = a.leading(s).b, len(a) =
    position: substitute the rule body into the special bracketing of w
    at that occurrence.  w must be a Lyndon-Shirshov word.  The result
    leads with w, coefficient 1."""
    sb = special_bracket(Occurrence(w, s.leading, position))  # validates the site
    # one basis element per sibling; with none, the result is the body
    body = s.body
    basis_sides = [(step, {sib.ranks: 1}) for step, sib in sb.sides]
    result = body._make(body.alphabet, _fold(basis_sides, body._num, _bracket_terms), body._den)
    num, den = result._num, result._den
    lead = _deglex_max(num) if num else None
    if lead != w.ranks or num[lead] != den:
        raise InvariantError(f"normal s-word {w} lead check failed: {result}")
    return result
