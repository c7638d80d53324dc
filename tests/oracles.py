"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's production code paths:
word predicates work letter by letter through compare_lex only,
factorizations are found by exhaustive cutting, dimensions come from the
necklace-count formula, and linear algebra is plain fraction-exact
Gaussian elimination.  Completion is the one exception: its oracle is the
plain restart-from-scratch loop over the library's own compositions and
reduction, against which the incremental queue in ``complete`` is checked.
Pattern-free basis words are found by screening an independently
generated word list against the definition of the patterns, read off the
graph's edges with rank comparisons only.  The tree oracles (Shirshov's
condition for canonical bracketings, substitution along a path by
recursion) reuse the library's ``is_alsw``, ``expand`` and ``commutator``
and check only the tree logic built on them.

The Lie arithmetic of the engine brackets in the Lyndon-Shirshov basis
directly.  Its oracles take the associative route instead: expand into
the free associative algebra, multiply there, and read coordinates back
with ``nlsw_decompose`` (``lie_bracket_by_expansion``,
``tree_value_by_expansion``, and ``normal_s_word_by_expansion`` through
``expand_with``, the substituted expansion of a special bracketing).
"""

import itertools
import math
from fractions import Fraction

from pclie import (
    GREATER,
    Occurrence,
    Rule,
    Word,
    commutator,
    compare_lex,
    composition,
    deglex_key,
    expand,
    find_ambiguities,
    is_alsw,
    nlsw_decompose,
    reduce,
    special_bracket,
)
from pclie.rules import _fold, _walk


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


def expand_with(sb, replacement):
    """The expansion of a special bracketing's tree with the slot's
    expansion replaced by the associative polynomial replacement: a fold
    of ``commutator`` over the expanded siblings of the slot path."""
    sides, _ = _walk(sb.tree, sb.slot_path)
    expanded = [(step, expand(sib)) for step, sib in sides]
    return _fold(expanded, replacement, commutator)


def normal_s_word_by_expansion(a, s, b):
    """The normal s-word (a s b) through the free associative algebra:
    the substituted expansion of the special bracketing, decomposed."""
    occ = Occurrence(a + s.leading + b, s.leading, len(a))
    return nlsw_decompose(expand_with(special_bracket(occ), s.body.to_assoc()))


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
