"""Partially commutative Lie algebras: commutation graphs, their defining
rule set, normal forms, and graded bases.

A commutation graph marks which pairs of generators commute.  The rule
set consists of the bracketed words [x u y] where x dominates y, y
dominates every letter of u, and domination means greater-and-commuting.
Basis words of the quotient are the Lyndon-Shirshov words avoiding every
such pattern as a contiguous factor; an independent dimension count comes
from the clique polynomial of the graph through the
Poincare-Birkhoff-Witt product formula.  One walk over those words folds
their canonical brackets: into trees (``irr_basis``) or into the trees'
texts alone (``basis_texts``, what the CLI prints).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import partial

from .lie import LiePoly, LieTree, tree_value
# bracket, expand and nlsw_decompose are not called here (the basis walk
# builds each tree or text from two earlier ones, and a tree is evaluated
# in the Lyndon-Shirshov basis), but perfbench/layers.py wraps these
# bindings
from .lie import bracket, expand, nlsw_decompose  # noqa: F401
from .rules import Rule
# normal_s_word is not called here (pc_normal_form rewrites through gsb),
# but perfbench/layers.py traces the package by wrapping this binding
from .rules import normal_s_word  # noqa: F401
from .words import Word, _alsw_ranks, _read_decl_file
# enumerate_alsw is not called here either (the basis walk runs the pruned
# generator), but perfbench/layers.py wraps this binding too
from .words import enumerate_alsw  # noqa: F401
from . import gsb


def _edge(alphabet, a, b):
    """The edge between the letters a and b as (smaller rank, larger
    rank); a loop is refused."""
    ra, rb = alphabet.rank(a), alphabet.rank(b)
    if ra == rb:
        raise ValueError(f"commutation relation must be irreflexive: ({a},{b})")
    return (ra, rb) if ra < rb else (rb, ra)


class CommGraph:
    """An irreflexive symmetric commutation relation on an alphabet."""

    __slots__ = ("alphabet", "edges", "_below")

    def __init__(self, alphabet, edges):
        norm = {_edge(alphabet, a, b) for a, b in edges}
        self.alphabet = alphabet
        self.edges = frozenset(norm)
        # _below[r]: the ranks r dominates (smaller and commuting with r)
        self._below = tuple(
            frozenset(lo for lo, hi in norm if hi == r) for r in range(len(alphabet))
        )

    @classmethod
    def parse(cls, text):
        """Parse the graph file format: first significant line an alphabet
        declaration, then one edge per line as two symbols; blank lines
        and '#' comments ignored."""

        def edge(alphabet, line):
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"expected two letters, got {line!r}")
            _edge(alphabet, *parts)  # refuses an unknown letter or a loop
            return parts

        return cls(*_read_decl_file(text, "graph", edge))

    def has_edge(self, a, b):
        ra, rb = self.alphabet.rank(a), self.alphabet.rank(b)
        return (min(ra, rb), max(ra, rb)) in self.edges

    def edge_symbols(self):
        """Edges as letter pairs, larger letter first, sorted."""
        out = [
            (self.alphabet.letters[rb], self.alphabet.letters[ra])
            for ra, rb in self.edges
        ]
        return sorted(out, key=lambda e: (self.alphabet.rank(e[0]), self.alphabet.rank(e[1])))

    def __eq__(self, other):
        return (
            isinstance(other, CommGraph)
            and self.alphabet == other.alphabet
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.alphabet, self.edges))

    def __repr__(self):
        return f"CommGraph({self.alphabet.decl()!r}, {self.edge_symbols()!r})"


def rhd(a, b, graph):
    """Domination: a is greater than b and the two commute."""
    ra, rb = graph.alphabet.rank(a), graph.alphabet.rank(b)
    return rb in graph._below[ra]


def _pattern_start(below, ranks, end):
    """Start of the pattern x u y that ends with the letter y = ranks[end],
    or None.

    Walking back from y over the letters that y dominates, the first
    other letter is the only candidate for x, so at most one pattern ends
    at each position: there is one exactly when that letter dominates y.
    """
    y = ranks[end]
    inner = below[y]
    for i in range(end - 1, -1, -1):
        if ranks[i] not in inner:
            return i if y in below[ranks[i]] else None
    return None


def _pattern_spans(graph, ranks):
    """Each (i, j) such that ranks[i:j] has the shape x u y with x
    dominating y and y dominating every letter of u, by start i, then end
    j."""
    starts = [_pattern_start(graph._below, ranks, j) for j in range(len(ranks))]
    return sorted((i, j + 1) for j, i in enumerate(starts) if i is not None)


def contains_pattern(graph, word):
    """Whether some contiguous factor of the word is a rule leading word."""
    return bool(_pattern_spans(graph, word.ranks))


def generate_relations(graph, max_deg):
    """All rules [x u y] with word length <= max_deg: x dominates y and y
    dominates every letter of u.  Returned in deg-lex order of the
    leading word."""
    if max_deg < 2:
        raise ValueError("max_deg must be at least 2")
    alphabet = graph.alphabet
    below = graph._below
    leads = []
    for x in range(len(alphabet.letters)):
        for y in below[x]:
            for length in range(0, max_deg - 1):
                for mid in itertools.product(below[y], repeat=length):
                    leads.append((x,) + mid + (y,))
    leads.sort(key=lambda r: (len(r), r))
    return [_pattern_rule(alphabet, r) for r in leads]


def _irr_ranks(graph, max_deg):
    """Rank tuples of the words of ``irr_words``, a deg-lex list per degree."""
    below = graph._below
    # where no letter dominates another there is no pattern to test for
    ends_ok = (
        (lambda w, n: _pattern_start(below, w, n - 1) is None) if any(below) else None
    )
    return _alsw_ranks(len(graph.alphabet.letters), max_deg, ends_ok)


def irr_words(graph, max_deg):
    """Lyndon-Shirshov words of length <= max_deg avoiding every rule
    leading word as a contiguous factor, deg-lex ascending: the degrees of
    ``_irr_ranks`` in turn.

    Generated directly: the Lyndon-Shirshov generator drops a word whose
    last letter completes a pattern, with all its extensions.  A word that
    ends with a pattern contains it in every extension, so no word
    containing one is built and no pattern-free word is lost.
    """
    return [Word(graph.alphabet, r) for level in _irr_ranks(graph, max_deg) for r in level]


class GradedBasis(namedtuple("GradedBasis", "graph max_degree by_degree")):
    """Basis trees of the quotient, graded by degree, with dimension
    tallies per degree and per multidegree: ``by_degree[d - 1]`` is the
    tuple of basis trees of degree d over the ``CommGraph`` graph."""

    __slots__ = ()

    def dimensions(self):
        return [len(level) for level in self.by_degree]

    def multidegree_dimensions(self):
        out = {}
        for level in self.by_degree:
            for t in level:
                md = t.word.multidegree()
                out[md] = out.get(md, 0) + 1
        return out

    def trees(self, degree):
        if not 1 <= degree <= self.max_degree:
            raise ValueError(f"degree {degree} is outside 1..{self.max_degree}")
        return self.by_degree[degree - 1]


def _fold_basis(graph, max_deg, leaf, pair):
    """Fold the canonical brackets of the pattern-free words: the value
    of a letter u, a rank tuple, is ``leaf(u)``, and that of a longer word
    is ``pair(left, right)`` of the values of the two halves of its
    standard split.  Returns the values per degree, deg-lex ascending in
    each.

    The values are kept by rank tuple in a table that lives for this call
    only.  The levels of ``_irr_ranks`` are folded in order, the letters
    first, and every factor of a pattern-free word is pattern-free, so
    every proper Lyndon-Shirshov suffix of a word is in the table when
    the word comes up.  The right half of the standard split is the
    longest of them: the first suffix found walking in from the left, and
    the prefix it leaves is again a pattern-free Lyndon-Shirshov word.
    """
    levels = _irr_ranks(graph, max_deg)
    values = {r: leaf(r) for r in levels[0]}
    for level in levels[1:]:
        for r in level:
            cut = 1
            while r[cut:] not in values:
                cut += 1
            values[r] = pair(values[r[:cut]], values[r[cut:]])
    return [[values[r] for r in level] for level in levels]


def irr_basis(graph, max_deg):
    """The graded basis: canonical brackets of the pattern-free words,
    each tree built from two trees built before it (``_fold_basis``)."""
    levels = _fold_basis(
        graph, max_deg, lambda r: LieTree(Word(graph.alphabet, r), None, None), LieTree.pair
    )
    return GradedBasis(graph, max_deg, tuple(tuple(l) for l in levels))


def basis_texts(graph, max_deg):
    """The texts of the ``irr_basis`` trees, by the same walk with one
    string per word and no tree or word built: a list per degree
    1..max_deg, deg-lex ascending in each."""
    letters = graph.alphabet.letters
    return _fold_basis(
        graph,
        max_deg,
        lambda r: letters[r[0]],
        lambda left, right: f"({left} {right})",
    )


def graded_dimensions(graph, max_deg):
    """Number of basis words per degree 1..max_deg, read off ``_irr_ranks``."""
    return [len(level) for level in _irr_ranks(graph, max_deg)]


def _pattern_rule(alphabet, ranks):
    """The defining rule of the pattern word x u y with this rank tuple:
    the basis element [x u y], built unchecked, for x is the one greatest
    letter of the word, so the word is Lyndon-Shirshov."""
    return Rule(LiePoly._make(alphabet, {ranks: 1}))


def _least_pattern(graph, ranks):
    """The rewrite site for ``gsb._rewrite`` of the word with rank tuple
    ranks: the deg-lex smallest pattern factor, then its leftmost
    occurrence, or None when the word is pattern-free.  In the deg-lex
    order of ``generate_relations`` this is the lowest-index rule at its
    leftmost occurrence, as in ``gsb.reduce``."""
    span = min(
        _pattern_spans(graph, ranks),
        key=lambda ij: (ij[1] - ij[0], ranks[ij[0] : ij[1]], ij[0]),
        default=None,
    )
    if span is None:
        return None
    i, j = span
    return None, _pattern_rule(graph.alphabet, ranks[i:j]), i


def pc_normal_form(p, graph):
    """Normal form modulo the commutation relations.

    Accepts a Lie polynomial or a tree (evaluated first).  Runs the
    rewrite loop of ``gsb.reduce``: rewrites the deg-lex greatest
    reducible basis word, choosing the deg-lex smallest pattern factor and
    then the leftmost occurrence; rules are built on demand from the
    occurring patterns only.  The result is supported on the
    pattern-free basis words.
    """
    if isinstance(p, LieTree):
        p = tree_value(p)
    if p.alphabet != graph.alphabet:
        raise ValueError("polynomial and graph use different alphabets")
    return gsb._rewrite(p, partial(_least_pattern, graph))[1]


def verify_relations(graph, max_deg):
    """Bounded composition check of the rule set of the graph."""
    return gsb.is_gsb(generate_relations(graph, max_deg), max_deg)


def _cliques(graph):
    """All cliques of the commutation graph, the empty one included."""
    below = graph._below
    n = len(graph.alphabet.letters)

    def extend(clique, candidates):
        yield clique
        for v in list(candidates):
            yield from extend(clique + (v,), [u for u in candidates if v in below[u]])

    yield from extend((), list(range(n)))


def clique_polynomial(graph):
    """Coefficients of sum over cliques of (-1)^size t^size."""
    coeffs = [0] * (len(graph.alphabet.letters) + 1)
    for c in _cliques(graph):
        coeffs[len(c)] += -1 if len(c) % 2 else 1
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def assoc_hilbert_series(graph, max_deg):
    """Dimensions of the partially commutative associative algebra in
    degrees 0..max_deg: the reciprocal of the clique polynomial."""
    c = clique_polynomial(graph)
    a = [1]
    for m in range(1, max_deg + 1):
        s = 0
        for k in range(1, min(m, len(c) - 1) + 1):
            s += c[k] * a[m - k]
        a.append(-s)
    return a


def _moebius(n):
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


def clique_series_dims(graph, max_deg):
    """Graded dimensions recovered from the clique polynomial alone.

    Writes the associative Hilbert series as the product over degrees n of
    (1 - t^n)^(-d_n) and extracts the d_n by taking the logarithmic
    derivative and Moebius inversion.  Integrality of every d_n is
    enforced; a failure signals an implementation bug.
    """
    if max_deg < 1:
        raise ValueError("max_deg must be at least 1")
    c = clique_polynomial(graph)
    a = assoc_hilbert_series(graph, max_deg)
    # e[m] is the coefficient of t^m in t d/dt log(1/C) = -t C'(t) a(t)
    e = [0] + [
        -sum(k * c[k] * a[m - k] for k in range(1, min(m, len(c) - 1) + 1))
        for m in range(1, max_deg + 1)
    ]
    dims = []
    for m in range(1, max_deg + 1):
        total = sum(_moebius(m // n) * e[n] for n in range(1, m + 1) if m % n == 0)
        d, r = divmod(total, m)
        if r:
            raise ArithmeticError(f"non-integer dimension {total}/{m} at degree {m}")
        dims.append(d)
    return dims
