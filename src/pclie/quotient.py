"""Partially commutative Lie algebras: commutation graphs, their defining
rule set, normal forms, and graded bases.

A commutation graph marks which pairs of generators commute.  The rule
set consists of the bracketed words [x u y] where x dominates y, y
dominates every letter of u, and domination means greater-and-commuting.
Basis words of the quotient are the Lyndon-Shirshov words avoiding every
such pattern as a contiguous factor; an independent dimension count comes
from the clique polynomial of the graph through the
Poincare-Birkhoff-Witt product formula.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .lie import LiePoly, LieTree, bracket, expand, nlsw_decompose
# normal_s_word is not called here (pc_normal_form rewrites through gsb),
# but perfbench/layers.py traces the package by wrapping this binding
from .rules import Rule, normal_s_word  # noqa: F401
# enumerate_alsw is not called here either (irr_words runs the pruned
# generator), but perfbench/layers.py wraps this binding too
from .words import Word, _alsw_ranks, deglex_key, enumerate_alsw  # noqa: F401
from . import gsb


class CommGraph:
    """An irreflexive symmetric commutation relation on an alphabet."""

    __slots__ = ("alphabet", "edges", "_adj")

    def __init__(self, alphabet, edges):
        adj = [set() for _ in alphabet.letters]
        norm = set()
        for a, b in edges:
            ra, rb = alphabet.rank(a), alphabet.rank(b)
            if ra == rb:
                raise ValueError(f"commutation relation must be irreflexive: ({a},{b})")
            norm.add((min(ra, rb), max(ra, rb)))
            adj[ra].add(rb)
            adj[rb].add(ra)
        self.alphabet = alphabet
        self.edges = frozenset(norm)
        self._adj = tuple(frozenset(s) for s in adj)

    @classmethod
    def parse(cls, text):
        """Parse the graph file format: first significant line an alphabet
        declaration, then one edge per line as two symbols; blank lines
        and '#' comments ignored."""
        from .words import Alphabet

        alphabet = None
        edges = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if alphabet is None:
                alphabet = Alphabet.from_decl(line)
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected two letters, got {line!r}")
            edges.append((parts[0], parts[1]))
        if alphabet is None:
            raise ValueError("graph file has no alphabet declaration")
        return cls(alphabet, edges)

    def has_edge(self, a, b):
        return self.alphabet.rank(b) in self._adj[self.alphabet.rank(a)]

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
    return ra > rb and rb in graph._adj[ra]


def _pattern_spans(graph, ranks):
    """Each (i, j) such that ranks[i:j] has the shape x u y with x
    dominating y and y dominating every letter of u, by start i, then end
    j."""
    adj = graph._adj
    for i in range(len(ranks) - 1):
        x = ranks[i]
        for j in range(i + 2, len(ranks) + 1):
            y = ranks[j - 1]
            if y >= x:
                break  # no span from i may contain a letter not below x
            if y in adj[x] and all(
                y > m and m in adj[y] for m in ranks[i + 1 : j - 1]
            ):
                yield i, j


def contains_pattern(graph, word):
    """Whether some contiguous factor of the word is a rule leading word."""
    return next(_pattern_spans(graph, word.ranks), None) is not None


def generate_relations(graph, max_deg):
    """All rules [x u y] with word length <= max_deg: x dominates y and y
    dominates every letter of u.  Returned in deg-lex order of the
    leading word."""
    if max_deg < 2:
        raise ValueError("max_deg must be at least 2")
    alphabet = graph.alphabet
    adj = graph._adj
    leads = []
    for x in range(len(alphabet.letters)):
        for y in range(x):
            if y not in adj[x]:
                continue
            inner = [m for m in range(y) if m in adj[y]]
            for length in range(0, max_deg - 1):
                for mid in itertools.product(inner, repeat=length):
                    leads.append(Word(alphabet, (x,) + mid + (y,)))
    leads.sort(key=deglex_key)
    return [Rule(nlsw_decompose(expand(bracket(w)))) for w in leads]


def _pattern_free_test(graph):
    """The ``may_follow`` test of ``words._alsw_ranks`` that refuses a letter
    y completing a pattern x u y at the end of a prefix.

    Walking back from y over letters m that y dominates, the first other
    letter is the only candidate for x: the prefix ends with a pattern
    exactly when y is dominated by it.  A prefix that ends with a pattern
    contains it in every extension, so pruning it loses no word.
    """
    adj = graph._adj
    below = [frozenset(m for m in adj[y] if m < y) for y in range(len(adj))]
    above = [adj[y] - below[y] for y in range(len(adj))]

    def may_follow(prefix, y):
        inner = below[y]
        for m in reversed(prefix):
            if m not in inner:
                return m not in above[y]
        return True

    return may_follow


def irr_words(graph, max_deg):
    """Lyndon-Shirshov words of length <= max_deg avoiding every rule
    leading word as a contiguous factor, deg-lex ascending.

    Generated directly: the Lyndon-Shirshov generator drops a prefix as
    soon as it ends with a pattern, so no word containing one is built.
    """
    if max_deg < 1:
        raise ValueError("max_deg must be at least 1")
    alphabet = graph.alphabet
    ranks = _alsw_ranks(len(alphabet.letters), max_deg, _pattern_free_test(graph))
    return [Word(alphabet, r) for r in ranks]


@dataclass
class GradedBasis:
    """Basis trees of the quotient, graded by degree, with dimension
    tallies per degree and per multidegree."""

    graph: CommGraph
    max_degree: int
    by_degree: tuple

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
        return self.by_degree[degree - 1]


def irr_basis(graph, max_deg):
    """The graded basis: canonical brackets of the pattern-free words."""
    levels = [[] for _ in range(max_deg)]
    for u in irr_words(graph, max_deg):
        levels[len(u) - 1].append(bracket(u))
    return GradedBasis(graph, max_deg, tuple(tuple(l) for l in levels))


def graded_dimensions(graph, max_deg):
    """Number of basis words per degree 1..max_deg."""
    dims = [0] * max_deg
    for u in irr_words(graph, max_deg):
        dims[len(u) - 1] += 1
    return dims


@lru_cache(maxsize=None)
def _pattern_rule(word):
    return Rule(LiePoly.basis(word))


def _least_pattern(graph, w):
    """The rewrite site of w for ``gsb._rewrite``: the deg-lex smallest
    pattern factor, then its leftmost occurrence, or None when w is
    pattern-free.  In the deg-lex order of ``generate_relations`` this is
    the lowest-index rule at its leftmost occurrence, as in ``gsb.reduce``."""
    ranks = w.ranks
    span = min(
        _pattern_spans(graph, ranks),
        key=lambda ij: (ij[1] - ij[0], ranks[ij[0] : ij[1]], ij[0]),
        default=None,
    )
    if span is None:
        return None
    i, j = span
    return None, _pattern_rule(w[i:j]), i


def pc_normal_form(p, graph):
    """Normal form modulo the commutation relations.

    Accepts a Lie polynomial or a tree (decomposed first).  Runs the
    rewrite loop of ``gsb.reduce``: rewrites the deg-lex greatest
    reducible basis word, choosing the deg-lex smallest pattern factor and
    then the leftmost occurrence; rules are built on demand from the
    occurring patterns only.  The result is supported on the
    pattern-free basis words.
    """
    if isinstance(p, LieTree):
        p = nlsw_decompose(expand(p))
    if p.alphabet != graph.alphabet:
        raise ValueError("polynomial and graph use different alphabets")
    return gsb._rewrite(p, partial(_least_pattern, graph)).remainder


def verify_relations(graph, max_deg):
    """Bounded composition check of the rule set of the graph."""
    return gsb.is_gsb(generate_relations(graph, max_deg), max_deg)


def _cliques(graph):
    """All cliques of the commutation graph, the empty one included."""
    adj = graph._adj
    n = len(graph.alphabet.letters)

    def extend(clique, candidates):
        yield clique
        for v in list(candidates):
            yield from extend(clique + (v,), [u for u in candidates if u > v and u in adj[v]])

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
    a = assoc_hilbert_series(graph, max_deg)
    # k*a[k] = sum over j of j*b[j]*a[k-j] defines b = d/dt log of the series
    b = [Fraction(0)] * (max_deg + 1)
    for m in range(1, max_deg + 1):
        s = Fraction(m * a[m])
        for k in range(1, m):
            s -= k * b[k] * a[m - k]
        b[m] = s / m
    e = [m * b[m] for m in range(max_deg + 1)]
    dims = []
    for m in range(1, max_deg + 1):
        total = sum(_moebius(m // n) * e[n] for n in range(1, m + 1) if m % n == 0)
        d = total / m
        if d.denominator != 1:
            raise ArithmeticError(f"non-integer dimension {d} at degree {m}")
        dims.append(int(d))
    return dims
