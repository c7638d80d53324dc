"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's production code paths:
word predicates work letter by letter through compare_lex only,
factorizations are found by exhaustive cutting, dimensions come from the
necklace-count formula, and linear algebra is plain fraction-exact
Gaussian elimination.  Completion is the one exception: its oracle is the
plain restart-from-scratch loop over the library's own compositions and
reduction, against which the incremental queue in ``complete`` is checked.
Ambiguities are read off candidate witnesses, the words that pass
``is_alsw_by_splits`` and start with one leading word
(``ambiguities_by_definition``), not off overlaps of two leading words,
and rewrite sites by trying every rule at every position of the word
(``first_site_by_scan``), not through the engine's rule index.
Pattern-free basis words are found by screening a word list against the
definition of the patterns, read off the graph's edges with rank
comparisons only.  The list comes from ``_mirrored_lyndon_ranks``, the
same Duval loop as the library's generator but without its pattern test,
so it checks the pruning; the tests also screen ``all_words`` filtered by
``is_alsw_by_splits``, which shares no generator code with either.  The
CLI's basis listing, read off bracket texts, is checked against the
listing printed from the ``irr_basis`` trees and their words
(``basis_listing_from_trees``).  The tree oracles (Shirshov's condition
for canonical bracketings,
substitution along a path by recursion, the special bracketing's tree by
replacing one subtree of the host's bracket) reuse the library's
``is_alsw``, ``bracket``, ``expand`` and ``commutator`` and check only
the tree logic built on them.  ``bracket`` itself is checked against
the recursion on standard splits, each split found by testing every
suffix against its rotations (``bracket_by_standard_splits``).

The Lie arithmetic of the engine brackets in the Lyndon-Shirshov basis
directly.  Its oracles take the associative route instead: expand into
the free associative algebra, multiply there, and read coordinates back
with ``nlsw_decompose`` (``lie_bracket_by_expansion``,
``tree_value_by_expansion``, and ``normal_s_word_by_expansion`` through
``expand_with``, the substituted expansion of a special bracketing,
folded over its recorded siblings).

The expression tokenizer is checked against a reading of its input one
character at a time (``tokenize_by_characters``).  The CLI's JSON terms,
read off a polynomial's integers, are checked against its words and
exact Fractions (``poly_json_by_fractions``).
"""

import itertools
import math
import string
from fractions import Fraction

from pclie import (
    GREATER,
    Ambiguity,
    LieTree,
    Occurrence,
    ParseError,
    Rule,
    Word,
    bracket,
    commutator,
    compare_lex,
    composition,
    deglex_key,
    expand,
    find_ambiguities,
    irr_basis,
    is_alsw,
    nlsw_decompose,
    reduce,
    special_bracket,
)
from pclie.rules import _fold


def all_words(alphabet, length):
    """Every word of exactly the given length."""
    n = len(alphabet.letters)
    for ranks in itertools.product(range(n), repeat=length):
        yield Word(alphabet, ranks)


def is_alsw_by_splits(u):
    """Definition check: u = vw implies vw > wv, via compare_lex."""
    if len(u) == 0:
        raise ValueError("empty word")
    for i in range(1, len(u)):
        if compare_lex(u, u[i:] + u[:i]) != GREATER:
            return False
    return True


def is_alsw_by_rotations(u):
    """Equivalent characterization: strictly greater than proper rotations."""
    r = u.ranks
    if not r:
        raise ValueError("empty word")
    return all(r > r[k:] + r[:k] for k in range(1, len(r)))


def bracket_by_standard_splits(u):
    """The canonical bracketing by recursion on the standard split, the
    longest proper suffix that passes ``is_alsw_by_rotations``."""
    if len(u) == 1:
        return LieTree(u)
    cut = next(i for i in range(1, len(u)) if is_alsw_by_rotations(u[i:]))
    return LieTree.pair(bracket_by_standard_splits(u[:cut]), bracket_by_standard_splits(u[cut:]))


def is_nlsw_by_hall_condition(t):
    """Shirshov's condition for a canonical bracketing, by recursion: the
    word is Lyndon-Shirshov, both children are canonical, and the right
    child of the left child does not exceed the right child."""
    if t.left is None:
        return True
    if not is_alsw(t.word):
        return False
    if not all(is_nlsw_by_hall_condition(c) for c in (t.left, t.right)):
        return False
    l = t.left
    return l.left is None or compare_lex(l.right.word, t.right.word) != GREATER


def expand_substituted_by_recursion(t, path, repl):
    """Expansion of the tree t with the subtree at path (0 = left,
    1 = right) replaced by the associative polynomial repl, descending the
    path one recursive call per step."""
    if not path:
        return repl
    if path[0] == 0:
        return commutator(
            expand_substituted_by_recursion(t.left, path[1:], repl), expand(t.right)
        )
    return commutator(
        expand(t.left), expand_substituted_by_recursion(t.right, path[1:], repl)
    )


def subtree_at(t, path):
    """The subtree of t at the end of a path (0 = left, 1 = right)."""
    for step in path:
        t = t.right if step else t.left
    return t


def special_bracket_by_replacement(occ):
    """The tree of the special bracketing at an occurrence, built by
    recursive subtree replacement in the host's bracket: the smallest
    subtree covering the occurrence, which must start with it, becomes
    [[[sub][c1]]...[ck]], c1...ck the one non-decreasing factorization
    into Lyndon-Shirshov words of the rest of its span."""
    p, q = occ.position, occ.position + len(occ.sub)

    def replace(t, start):
        if t.left is not None:
            mid = start + len(t.left.word)
            if q <= mid:
                return LieTree.pair(replace(t.left, start), t.right)
            if p >= mid:
                return LieTree.pair(t.left, replace(t.right, mid))
        if start != p:
            raise AssertionError(f"no subtree of [{occ.host}] starts at {p}")
        overhang = occ.host[q : start + len(t.word)]
        (factors,) = nondecreasing_alsw_factorizations(overhang)
        new = bracket(occ.sub)
        for c in factors:
            new = LieTree.pair(new, bracket(c))
        return new

    return replace(bracket(occ.host), 0)


def expand_with(sb, replacement):
    """The expansion of a special bracketing's tree with the slot's
    expansion replaced by the associative polynomial replacement: a fold
    of ``commutator`` over the expanded brackets of the sibling words of
    the slot path."""
    expanded = [(step, expand(bracket(sib))) for step, sib in sb.sides]
    return _fold(expanded, replacement, commutator)


def normal_s_word_by_expansion(w, s, position):
    """The normal s-word of s at position in w through the free associative
    algebra: the substituted expansion of the special bracketing,
    decomposed."""
    occ = Occurrence(w, s.leading, position)
    return nlsw_decompose(expand_with(special_bracket(occ), s.body.to_assoc()))


def first_site_by_scan(rules, ranks):
    """The rewrite site of the word with this rank tuple modulo a rule
    list, by trying every rule in index order at every position: the
    lowest-index rule that occurs, at its leftmost occurrence, as
    (rule index, rule, position), or None."""
    for ri, r in enumerate(rules):
        lr = r.leading.ranks
        for i in range(len(ranks) - len(lr) + 1):
            if ranks[i : i + len(lr)] == lr:
                return ri, r, i
    return None


def reduce_by_fractions(h, rules):
    """Reduction modulo a rule list on plain dicts from word to Fraction:
    rewrite the deg-lex greatest word that holds a rule's leading word,
    at ``first_site_by_scan``, by subtracting its coefficient times
    ``normal_s_word_by_expansion``.  Returns the steps, as (rule index,
    word, position, coefficient), and the remainder dict."""
    work = {w: Fraction(c) for w, c in h.terms.items()}
    steps, remainder = [], {}
    while work:
        w = max(work, key=deglex_key)
        site = first_site_by_scan(rules, w.ranks)
        if site is None:
            remainder[w] = work.pop(w)
            continue
        ri, _, p = site
        c = work[w]
        steps.append((ri, w, p, c))
        for u, a in normal_s_word_by_expansion(w, rules[ri], p).terms.items():
            work[u] = work.get(u, 0) - c * a
            if not work[u]:
                del work[u]
    return steps, remainder


def lie_bracket_by_expansion(p, q):
    """The Lie bracket as the decomposed commutator of the expansions."""
    return nlsw_decompose(commutator(p.to_assoc(), q.to_assoc()))


def tree_value_by_expansion(t):
    """The coordinates of a tree read off its associative expansion."""
    return nlsw_decompose(expand(t))


def nondecreasing_alsw_factorizations(u):
    """All ways to cut u into non-decreasing Lyndon-Shirshov factors."""
    out = []

    def go(pos, acc):
        if pos == len(u):
            out.append(list(acc))
            return
        for end in range(pos + 1, len(u) + 1):
            f = u[pos:end]
            if not is_alsw_by_splits(f):
                continue
            if acc and compare_lex(acc[-1], f) == GREATER:
                continue
            acc.append(f)
            go(end, acc)
            acc.pop()

    go(0, [])
    return out


def moebius(n):
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    if n > 1:
        mu = -mu
    return mu


def witt_count(k, n):
    """Number of Lyndon-Shirshov words of length n over k letters."""
    return sum(moebius(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


class SpanReducer:
    """Incremental exact row reduction over the rationals.

    Vectors are dicts keyed by hashables.  ``add`` returns True when the
    vector enlarged the span.
    """

    def __init__(self):
        self.pivots = []  # (key, normalized row dict)

    def residual(self, vec):
        v = {k: Fraction(c) for k, c in vec.items() if c}
        for key, row in self.pivots:
            c = v.get(key)
            if not c:
                continue
            for k2, c2 in row.items():
                s = v.get(k2, 0) - c * c2
                if s:
                    v[k2] = s
                else:
                    v.pop(k2, None)
        return v

    def add(self, vec):
        v = self.residual(vec)
        if not v:
            return False
        key = next(iter(v))
        lead = v[key]
        self.pivots.append((key, {k: c / lead for k, c in v.items()}))
        return True

    @property
    def rank(self):
        return len(self.pivots)


def rank_of(vectors):
    red = SpanReducer()
    for v in vectors:
        red.add(v)
    return red.rank


def in_span(vectors, target):
    red = SpanReducer()
    for v in vectors:
        red.add(v)
    return not red.residual(target)


def product_formula_series(dims, max_deg):
    """Coefficients 0..max_deg of the product over n of (1-t^n)^(-d_n).

    This is the independent direction of the dimension oracle: given
    candidate graded dimensions, rebuild the associative series.
    """
    coeffs = [Fraction(1)] + [Fraction(0)] * max_deg
    for n, d in enumerate(dims, start=1):
        if d == 0:
            continue
        # multiply by (1 - t^n)^(-d) = sum_j binom(d-1+j, j) t^(n j)
        factor = [Fraction(0)] * (max_deg + 1)
        j = 0
        while n * j <= max_deg:
            num = 1
            for i in range(1, j + 1):
                num = num * (d - 1 + i) // i
            factor[n * j] = Fraction(num)
            j += 1
        out = [Fraction(0)] * (max_deg + 1)
        for i, a in enumerate(coeffs):
            if not a:
                continue
            for j2, b in enumerate(factor):
                if i + j2 > max_deg:
                    break
                out[i + j2] += a * b
        coeffs = out
    return [int(c) for c in coeffs]


def complete_by_restart(rules, max_deg):
    """Bounded completion by restarting: after each added rule, enumerate
    every ambiguity again and reduce them in order until the first
    non-zero remainder, whose monic form is the next rule."""
    current = list(rules)
    while True:
        new_rule = None
        for amb in find_ambiguities(current, max_deg):
            rem = reduce(composition(amb), current, bound=amb.w).remainder
            if not rem.is_zero():
                new_rule = Rule.monic(rem)
                break
        if new_rule is None:
            return current
        current.append(new_rule)


def ambiguities_by_definition(rules, max_deg):
    """Every ambiguity of the rule list with witness length <= max_deg,
    found from candidate witnesses rather than from overlaps: each word of
    length <= max_deg that passes ``is_alsw_by_splits`` and starts with
    f.leading.  It is an inclusion witness of (f, g) when it is f.leading
    and g.leading occurs in it (f itself not at 0), and an intersection
    witness when it is longer and g.leading ends it, starting strictly
    inside f.leading.  Words come in deg-lex order and the loops run by
    rule indices, kind and position, so the list is in ambiguity order."""
    out = []
    if not rules:
        return out
    alphabet = rules[0].leading.alphabet
    k = len(alphabet.letters)
    for n in range(1, max_deg + 1):
        # the words of length n that start with a leading word, in order
        heads = sorted(
            {
                f.leading.ranks + tail
                for f in rules
                if len(f.leading) <= n
                for tail in itertools.product(range(k), repeat=n - len(f.leading))
            }
        )
        for w in filter(is_alsw_by_splits, (Word(alphabet, r) for r in heads)):
            for fi, f in enumerate(rules):
                fr = f.leading.ranks
                if w.ranks[: len(fr)] != fr:
                    continue
                for gi, g in enumerate(rules):
                    gr = g.leading.ranks
                    if n == len(fr):
                        for p in range(n - len(gr) + 1):
                            if w.ranks[p : p + len(gr)] == gr and (p or fi != gi):
                                out.append(Ambiguity("inclusion", fi, gi, f, g, w, p))
                    elif 0 < n - len(gr) < len(fr) and w.ranks[n - len(gr) :] == gr:
                        out.append(Ambiguity("intersection", fi, gi, f, g, w, n - len(gr)))
    return out


def _mirrored_lyndon_ranks(k, max_len):
    """All Lyndon-Shirshov rank tuples of length <= max_len over ranks
    0..k-1: the classic iterative generator of standard Lyndon words (in
    ascending lexicographic order), run on the mirrored ranks."""
    w = [-1]
    while w:
        w[-1] += 1
        yield tuple(k - 1 - c for c in w)
        m = len(w)
        while len(w) < max_len:
            w.append(w[len(w) - m])
        while w and w[-1] == k - 1:
            w.pop()


def pattern_spans_by_definition(graph, ranks):
    """Each (i, j) such that ranks[i:j] is x u y with x dominating y and y
    dominating every letter of u, by start i, then end j; a dominates b
    when a > b and the two form an edge of the graph, that is when (b, a)
    is one of its edges (stored smaller rank first).  A generator, so a
    screen can stop at the first span."""
    edges = graph.edges
    n = len(ranks)
    for i in range(n):
        for j in range(i + 2, n + 1):
            y = ranks[j - 1]
            if (y, ranks[i]) in edges and all((m, y) in edges for m in ranks[i + 1 : j - 1]):
                yield i, j


def irr_words_by_screening(graph, max_deg):
    """Pattern-free Lyndon-Shirshov words by enumerate-then-screen: every
    Lyndon-Shirshov word up to max_deg, deg-lex ascending, kept when
    ``pattern_spans_by_definition`` finds no pattern in it."""
    alphabet = graph.alphabet
    words = [
        Word(alphabet, r)
        for r in _mirrored_lyndon_ranks(len(alphabet.letters), max_deg)
    ]
    words.sort(key=deglex_key)
    return [
        u
        for u in words
        if next(pattern_spans_by_definition(graph, u.ranks), None) is None
    ]


def basis_listing_from_trees(graph, max_deg):
    """The text lines of ``pclie basis`` before the dimensions, read off the
    ``irr_basis`` trees: degree, word and tree, each printed by its own
    object."""
    basis = irr_basis(graph, max_deg)
    return [
        f"{d}\t{t.word}\t{t}" for d in range(1, max_deg + 1) for t in basis.trees(d)
    ]


def multidegree_series_dims(graph, max_deg):
    """Basis dimension per multidegree (letter counts in ascending rank
    order, total degree 1..max_deg, zero dimensions omitted), from the
    multivariate clique polynomial of the graph alone.

    The associative Hilbert series is H = 1/P with
    P = sum over cliques C of (-1)^|C| prod_{a in C} t_a (Cartier-Foata),
    and H = prod over multidegrees b of (1 - t^b)^(-d_b) (Poincare-
    Birkhoff-Witt).  So log H has the coefficients
    l_b = sum over k dividing gcd(b) of d_{b/k} / k.  With E the degree
    operator t^b -> |b| t^b, the logarithm is taken through
    E(log H) = E(H) / H = E(H) P, whose coefficients are e_b = |b| l_b;
    Moebius inversion over the divisors of gcd(b) then gives
    |b| d_b = sum over k dividing gcd(b) of mu(k) e_{b/k}.
    """
    n = len(graph.alphabet.letters)
    cliques = []
    for size in range(n + 1):
        for c in itertools.combinations(range(n), size):
            if all(pair in graph.edges for pair in itertools.combinations(c, 2)):
                cliques.append(
                    ((-1) ** size, tuple(int(a in c) for a in range(n)))
                )
    monomials = sorted(
        (b for b in itertools.product(range(max_deg + 1), repeat=n) if sum(b) <= max_deg),
        key=sum,
    )

    def below(b):
        """(sign, b - C) for each clique monomial C dividing t^b."""
        for sign, c in cliques:
            rest = tuple(x - y for x, y in zip(b, c))
            if min(rest) >= 0:
                yield sign, rest

    h = {}
    for b in monomials:
        # P H = 1, and P has constant term 1
        h[b] = int(not any(b)) - sum(sign * h[r] for sign, r in below(b) if r != b)
    e = {b: sum(sign * sum(r) * h[r] for sign, r in below(b)) for b in monomials}
    dims = {}
    for b in monomials[1:]:
        g = math.gcd(*b)
        total = sum(
            moebius(k) * e[tuple(x // k for x in b)]
            for k in range(1, g + 1)
            if g % k == 0
        )
        d = Fraction(total, sum(b))
        if d.denominator != 1:
            raise ArithmeticError(f"non-integer dimension {d} at multidegree {b}")
        if d:
            dims[b] = int(d)
    return dims


def tokenize_by_characters(text):
    """The tokens of the expression grammar read one character at a time:
    (kind, text, position) for each integer, symbol and operator, the
    operator being its own kind, then ("end", "", len(text)); whitespace
    separates, and any other character is an error at its position."""
    digits, start_letters = string.digits, string.ascii_letters + "_"
    tokens, i, n = [], 0, len(text)
    while i < n:
        ch, start = text[i], i
        if ch.isspace():
            i += 1
            continue
        if ch in digits or ch in start_letters:
            chars = digits if ch in digits else start_letters + digits
            while i < n and text[i] in chars:
                i += 1
            tokens.append(("int" if ch in digits else "sym", text[start:i], start))
        elif ch in "()+-*/":
            tokens.append((ch, ch, start))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", start)
    tokens.append(("end", "", n))
    return tokens


def poly_json_by_fractions(p):
    """The JSON terms of a polynomial from its Words and exact coefficients
    (``items_deglex``): word text and coefficient text, leading term first."""
    return [{"word": str(w), "coeff": str(c)} for w, c in p.items_deglex()]
