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
two normal s-words on one host.  A rule pair's ambiguities come from one
scan over the start positions of g.leading in f.leading, the kind decided
by where g ends.

The rewrite loop works on rank tuples, integer numerators over one
denominator D, and finds each site by matching a slice, so its normal
s-words (``rules._normal_s_word``) check no site; the alphabet is checked
once at each entry, and only ``reduce`` makes ``ReductionStep`` records.
A normal s-word over d != 1 brings the work to the denominator D d, and
the common factor is divided out.
"""

from __future__ import annotations

import bisect
from collections import namedtuple
from math import gcd

from .lie import _axpy, _exact
from .rules import InvariantError, Rule, _normal_s_word, normal_s_word
from .words import Word, _check_same_alphabet, _deglex_max, deglex_key, is_alsw


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


def _pair_ambiguities(fi, f, gi, g, max_deg):
    """The ambiguities of the ordered rule pair (f, g) with witness length
    at most max_deg, unsorted; g.leading starts at i in f.leading."""
    ambs = []
    fr, gr = f.leading.ranks, g.leading.ranks
    n, k = len(fr), len(gr)
    for i in range(n):
        if i + k <= n:
            # inclusion, but not a rule inside itself at the same spot
            if n <= max_deg and fr[i : i + k] == gr and (i or fi != gi):
                ambs.append(Ambiguity("inclusion", fi, gi, f, g, f.leading, i))
        elif i and i + k <= max_deg and fr[i:] == gr[: n - i]:
            # intersection: two Lyndon-Shirshov words glued along a proper,
            # non-empty overlap give a Lyndon-Shirshov word, so the witness
            # needs no test here (composition checks it once)
            w = Word(f.leading.alphabet, fr + gr[n - i :])
            ambs.append(Ambiguity("intersection", fi, gi, f, g, w, i))
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
    for r in rules:
        _check_same_alphabet(rules[0].leading, r.leading)
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
    # the one check of a site that the engine did not find itself
    w, p, fr, gr = amb.w.ranks, amb.position, amb.f.leading.ranks, amb.g.leading.ranks
    _check_same_alphabet(amb.w, amb.f.leading)
    _check_same_alphabet(amb.w, amb.g.leading)
    if not is_alsw(amb.w) or w[: len(fr)] != fr or p < 0 or w[p : p + len(gr)] != gr:
        raise ValueError(f"{amb.w!r} is not a Lyndon-Shirshov word with f at 0, g at {p}")
    result = _normal_s_word(w, amb.f, 0) - _normal_s_word(w, amb.g, p)
    if result:
        lead = result._lead()
        if (len(lead), lead) >= (len(w), w):
            raise InvariantError(f"composition at {amb.w} does not drop below the witness")
    return result


def _rewrite(h, find):
    """The rewrite loop behind every reduction.

    Always rewrites the deg-lex greatest word of the work polynomial that
    ``find`` reports reducible: ``find(ranks)`` returns ``(rule_index,
    rule, position)`` of the occurrence to rewrite in the word with that
    rank tuple, or None when the word stays.  Each step subtracts
    coefficient times a normal s-word, which leads with the word being
    rewritten, coefficient 1, so that word cancels and every later step
    is strictly below it: the trace is finite and its first step the
    greatest.  Returns the steps, each (rule index, rule, rank tuple,
    position, coefficient numerator, coefficient denominator), and the
    remainder.
    """
    # h is work + done over den, and done holds the words that stay
    work, done, den = dict(h._num), {}, h._den
    steps = []
    while work:
        r0 = _deglex_max(work)
        hit = find(r0)
        if hit is None:
            done[r0] = work.pop(r0)
            continue
        ri, r, pos = hit
        c0 = work[r0]
        steps.append((ri, r, r0, pos, c0, den))
        nsw = _normal_s_word(r0, r, pos)
        d = nsw._den
        if d == 1:
            _axpy(work, -c0, nsw._num)
            continue
        # (c0 / den) (nsw._num / d): bring the work to the denominator
        # den d, subtract in integers, and divide out the common factor
        work = {k: d * v for k, v in work.items()}
        done = {k: d * v for k, v in done.items()}
        _axpy(work, -c0, nsw._num)
        den *= d
        g = gcd(den, *work.values(), *done.values())
        if g != 1:
            work = {k: v // g for k, v in work.items()}
            done = {k: v // g for k, v in done.items()}
            den //= g
    return steps, h._make(h.alphabet, done, den)


def _first_site(rules):
    """``_rewrite``'s find modulo a rule list, read at each call: the
    lowest-index rule that occurs in the word, at its leftmost occurrence."""

    def find(wr):
        for ri, r in enumerate(rules):
            lr = r.leading.ranks
            k = len(lr)
            for i in range(len(wr) - k + 1):
                if wr[i : i + k] == lr:
                    return ri, r, i
        return None

    return find


def reduce(h, rules, bound=None):
    """Rewrite h modulo the rules until no word of the remainder contains a
    rule's leading word; the lowest-index matching rule of the greatest
    reducible word wins, then the leftmost occurrence (see ``_rewrite``).
    With a bound, the first step, which is the greatest, must be below it."""
    for w in [r.leading for r in rules] + ([] if bound is None else [bound]):
        _check_same_alphabet(h, w)
    raw, remainder = _rewrite(h, _first_site(rules))
    steps = [ReductionStep(i, r, Word(h.alphabet, w), p, _exact(n, d)) for i, r, w, p, n, d in raw]
    if bound is not None and steps and deglex_key(steps[0].word) >= deglex_key(bound):
        raise ValueError(f"reduction step at {steps[0].word} is not below the bound {bound}")
    return ReductionTrace(input=h, steps=steps, remainder=remainder)


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
    find = _first_site(rules)
    for amb in ambs:
        _, rem = _rewrite(composition(amb), find)
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
    find = _first_site(current)
    while queue:
        _, amb = queue.pop(0)
        _, rem = _rewrite(composition(amb), find)
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
