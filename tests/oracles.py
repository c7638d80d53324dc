"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's production code paths:
word predicates work letter by letter through compare_lex only,
factorizations are found by exhaustive cutting, dimensions come from the
necklace-count formula, and linear algebra is plain fraction-exact
Gaussian elimination.  Completion is the one exception: its oracle is the
plain restart-from-scratch loop over the library's own compositions and
reduction, against which the incremental queue in ``complete`` is checked.
"""

import itertools
from fractions import Fraction

from pclie import GREATER, Rule, Word, compare_lex, composition, find_ambiguities, reduce


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
