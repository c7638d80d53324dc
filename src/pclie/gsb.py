"""Compositions, reduction, and bounded Groebner-Shirshov verification.

Everything here is degree-bounded: ambiguities are enumerated up to a
maximum witness length, compositions are reduced with all rewrite steps
strictly below the witness, and a rule set passes when every composition
reduces to zero.  Completion adds monic irreducible remainders until the
bounded check closes.

Ambiguities are enumerated one ordered rule pair at a time and ordered by
a single key, so the full enumeration, the closure check and completion
share one code path.  Completion keeps a queue of the ambiguities still to
check instead of starting over after each new rule: a reduction to zero
rewrites only with rules that stay at the same index when rules are
appended, so it stays zero and is never repeated.

Every rewrite site is named as ``rules.Occurrence`` names it: host word,
rule and position.  A reduction step records the word it rewrote and where
the rule occurs in it, and an ambiguity records its witness and where g
occurs in it (f always starts it), so a composition is the difference of
two normal s-words on one host.
"""

from __future__ import annotations

import bisect
from collections import namedtuple

from .lie import LiePoly, _axpy
from .rules import InvariantError, Rule, normal_s_word
from .words import LESS, Word, compare_deglex, deglex_key, is_alsw


class Ambiguity(namedtuple("Ambiguity", "kind f_index g_index f g w position")):
    """An overlap of two rule leading words at the witness w: f.leading
    starts w and g.leading occurs in w at ``position``; f and g are the
    rules at ``f_index`` and ``g_index``.

    inclusion:    w = f.leading, and g.leading ends inside it
    intersection: g.leading ends w, with a proper overlap
    """

    __slots__ = ()


class ReductionStep(namedtuple("ReductionStep", "rule_index rule word position coefficient")):
    """One rewrite: coefficient times the normal s-word of ``rule`` at its
    occurrence in ``word`` at ``position``.  ``rule_index`` is None for
    rules built on demand."""

    __slots__ = ()


class ReductionTrace(namedtuple("ReductionTrace", "input steps remainder")):
    """Record of one reduction: input = sum of steps + remainder, with the
    step words strictly decreasing in deg-lex.  ``steps`` is a list of
    ``ReductionStep``; input and remainder are ``LiePoly``."""

    __slots__ = ()

    def check_identity(self):
        """Exact soundness: input minus all applied normal s-words equals
        the remainder."""
        acc = self.input
        for st in self.steps:
            acc = acc - normal_s_word(st.word, st.rule, st.position).scale(st.coefficient)
        return acc == self.remainder


def _occurrences(host_ranks, sub_ranks):
    n, k = len(host_ranks), len(sub_ranks)
    return [i for i in range(n - k + 1) if host_ranks[i : i + k] == sub_ranks]


def _pair_ambiguities(fi, f, gi, g, max_deg):
    """The inclusion and intersection ambiguities of the ordered rule pair
    (f, g) with witness length at most max_deg, unsorted."""
    ambs = []
    fw, gw = f.leading, g.leading
    # inclusion: g.leading inside f.leading
    if len(fw) <= max_deg and len(gw) <= len(fw):
        for pos in _occurrences(fw.ranks, gw.ranks):
            if fi == gi and len(gw) == len(fw):
                continue  # a rule inside itself at the same spot
            ambs.append(Ambiguity("inclusion", fi, gi, f, g, fw, pos))
    # intersection: a proper suffix of f.leading of length t = a proper
    # prefix of g.leading; the glued word must itself be Lyndon-Shirshov
    for t in range(max(1, len(fw) + len(gw) - max_deg), min(len(fw), len(gw))):
        if fw.ranks[len(fw) - t :] != gw.ranks[:t]:
            continue
        w = Word(fw.alphabet, fw.ranks + gw.ranks[t:])
        if is_alsw(w):
            ambs.append(Ambiguity("intersection", fi, gi, f, g, w, len(fw) - t))
    return ambs


def _ambiguity_key(m):
    """The ambiguity order: witness (deg-lex), then rule indices, kind and
    offset.  No two ambiguities of one rule list share a key."""
    return (deglex_key(m.w), m.f_index, m.g_index, m.kind, m.position)


def find_ambiguities(rules, max_deg):
    """All inclusion and intersection ambiguities with witness length at
    most max_deg, sorted by witness (deg-lex), then rule indices."""
    if max_deg < 1:
        raise ValueError("max_deg must be at least 1")
    ambs = []
    for fi, f in enumerate(rules):
        for gi, g in enumerate(rules):
            ambs.extend(_pair_ambiguities(fi, f, gi, g, max_deg))
    ambs.sort(key=_ambiguity_key)
    return ambs


def composition(amb):
    """The composition polynomial of an ambiguity; zero or strictly below
    the witness: the difference of the normal s-words of f and g at their
    two occurrences in it.  For an inclusion the first is f.body."""
    result = normal_s_word(amb.w, amb.f, 0) - normal_s_word(amb.w, amb.g, amb.position)
    if result:
        lead, _ = result.leading()
        if compare_deglex(lead, amb.w) != LESS:
            raise InvariantError(
                f"composition at {amb.w} does not drop below the witness"
            )
    return result


def _rewrite(h, find, bound=None):
    """The rewrite loop behind every reduction.

    Always rewrites the deg-lex greatest word of the work polynomial that
    ``find`` reports reducible: ``find(w)`` returns ``(rule_index, rule,
    position)`` of the occurrence to rewrite, or None when w stays.  Each
    step subtracts coefficient times a normal s-word and strictly
    decreases the word being rewritten, so the trace is finite.  With a
    bound given, a step at or above it is an error.
    """
    work = dict(h.terms)
    done = {}
    steps = []
    while work:
        w0 = max(work, key=deglex_key)
        c0 = work[w0]
        hit = find(w0)
        if hit is None:
            done[w0] = c0
            del work[w0]
            continue
        ri, r, pos = hit
        if bound is not None and compare_deglex(w0, bound) != LESS:
            raise ValueError(f"reduction step at {w0} is not below the bound {bound}")
        steps.append(ReductionStep(ri, r, w0, pos, c0))
        _axpy(work, -c0, normal_s_word(w0, r, pos).terms)
    return ReductionTrace(input=h, steps=steps, remainder=LiePoly(h.alphabet, done))


def reduce(h, rules, bound=None):
    """Rewrite h modulo the rules until no basis word of the remainder
    contains any rule's leading word.

    Among the rules matching the greatest reducible word the lowest index
    wins, then the leftmost occurrence; see ``_rewrite`` for the loop.
    """

    def find(w):
        for ri, r in enumerate(rules):
            occ = _occurrences(w.ranks, r.leading.ranks)
            if occ:
                return ri, r, occ[0]
        return None

    return _rewrite(h, find, bound)


class GsbReport(namedtuple("GsbReport", "ok max_deg ambiguities_checked failures")):
    """Outcome of a bounded composition check; ``failures`` lists the
    (Ambiguity, remainder) pairs that did not reduce to zero, none by
    default."""

    __slots__ = ()

    def __new__(cls, ok, max_deg, ambiguities_checked, failures=None):
        return tuple.__new__(
            cls, (ok, max_deg, ambiguities_checked, [] if failures is None else failures)
        )


def is_gsb(rules, max_deg):
    """Check every ambiguity with witness length <= max_deg: the rule set
    passes when all compositions reduce to zero below their witness."""
    failures = []
    ambs = find_ambiguities(rules, max_deg)
    for amb in ambs:
        rem = reduce(composition(amb), rules, bound=amb.w).remainder
        if not rem.is_zero():
            failures.append((amb, rem))
    return GsbReport(
        ok=not failures,
        max_deg=max_deg,
        ambiguities_checked=len(ambs),
        failures=failures,
    )


def complete(rules, max_deg):
    """Bounded completion: add the monic remainder of the first (in
    ambiguity order) non-trivial composition until the bounded check
    passes.  Added leading words never contain existing ones, so the loop
    terminates within the finite set of bounded words.

    Rather than re-enumerating and re-reducing every ambiguity after each
    new rule, a queue keeps the ambiguities not yet shown to reduce to
    zero, least first.  A zero remainder is final: ``reduce`` picks the
    lowest-index matching rule and new rules are appended, so each word
    such a reduction rewrote keeps its lowest-index match, and the trace
    modulo any longer rule list is the same.  A non-zero remainder rem
    becomes the rule r = rem / c, c its leading coefficient, and the
    ambiguities of r paired with every rule join the queue.

    The ambiguity that produced r is not checked again, since it would
    reduce to zero.  Reduction is linear (the rewrite of a word depends on
    the word alone), and every step taken modulo the old rules is still
    the step taken modulo the longer list, so the new remainder is the
    reduction of rem.  That is c times the reduction of r's body.  No old
    rule matches a word of rem, so the leading word of r's body matches
    only r, with empty context; that step subtracts r's own body and
    leaves zero.

    The least ambiguity with a non-zero remainder is thus always the one a
    full recheck finds, and the output is the same rule list.
    """
    current = list(rules)
    # sorted by key; keys are unique, so ambiguities are never compared
    queue = [(_ambiguity_key(m), m) for m in find_ambiguities(current, max_deg)]
    while queue:
        _, amb = queue.pop(0)
        rem = reduce(composition(amb), current, bound=amb.w).remainder
        if rem.is_zero():
            continue
        ni, new = len(current), Rule.monic(rem)
        current.append(new)
        for gi, g in enumerate(current):
            fresh = _pair_ambiguities(ni, new, gi, g, max_deg)
            if gi != ni:
                fresh += _pair_ambiguities(gi, g, ni, new, max_deg)
            for m in fresh:
                bisect.insort(queue, (_ambiguity_key(m), m))
    return current
