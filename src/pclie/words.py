"""Letters, words, and the associative Lyndon-Shirshov word calculus.

The alphabet is a finite set of symbols with a declared total order,
written in declarations from the largest letter down ("x > y > z") and
stored internally in ascending order.  Lexicographic comparison treats a
proper prefix as greater than any of its extensions; this is the unique
convention under which every nonempty word factors uniquely as a
non-decreasing concatenation of Lyndon-Shirshov words (the bracketing
consistency tests exercise exactly that).
"""

from __future__ import annotations

import re
from functools import lru_cache

LESS, EQUAL, GREATER = -1, 0, 1
LETTER_NAME = r"[A-Za-z_][A-Za-z0-9_]*"  # also a symbol of the expression grammar


class Alphabet:
    """A finite, totally ordered set of generator symbols.

    ``letters`` is ascending; a letter's rank is its index, so rank
    comparison is letter comparison.
    """

    __slots__ = ("letters", "_rank", "_by_length", "_compact")

    def __init__(self, letters_ascending):
        letters = tuple(letters_ascending)
        if not letters:
            raise ValueError("alphabet must not be empty")
        if len(set(letters)) != len(letters):
            raise ValueError(f"alphabet letters must be distinct: {letters!r}")
        for sym in letters:
            if not re.fullmatch(LETTER_NAME, sym):
                raise ValueError(f"bad letter name {sym!r}")
        self.letters = letters
        self._rank = {sym: i for i, sym in enumerate(letters)}
        self._by_length = sorted(letters, key=len, reverse=True)
        self._compact = all(len(sym) == 1 for sym in letters)

    @classmethod
    def from_decl(cls, text):
        """Parse a declaration like ``"x > y > z"`` (descending order)."""
        parts = [p.strip() for p in text.split(">")]
        if any(not p for p in parts):
            raise ValueError(f"malformed alphabet declaration {text!r}")
        return cls(tuple(reversed(parts)))

    def decl(self):
        """Render the declaration string, largest letter first."""
        return " > ".join(reversed(self.letters))

    def rank(self, symbol):
        try:
            return self._rank[symbol]
        except KeyError:
            raise ValueError(f"unknown letter {symbol!r}") from None

    def word_of(self, symbols):
        """Build a word from an iterable of letter symbols."""
        return Word(self, tuple(self.rank(s) for s in symbols))

    def word(self, text):
        """Parse a word written as juxtaposed symbols, whitespace optional."""
        ranks = []
        i, n = 0, len(text)
        while i < n:
            if text[i].isspace():
                i += 1
                continue
            for sym in self._by_length:
                if text.startswith(sym, i):
                    ranks.append(self._rank[sym])
                    i += len(sym)
                    break
            else:
                raise ValueError(
                    f"no letter of the alphabet matches {text[i:]!r} "
                    f"(position {i})"
                )
        return Word(self, tuple(ranks))

    def _spell(self, ranks):
        """The text of a word: its letters, joined by spaces unless every
        letter is one character."""
        letters = self.letters
        return ("" if self._compact else " ").join([letters[r] for r in ranks])

    def empty_word(self):
        return Word(self, ())

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __contains__(self, symbol):
        return symbol in self._rank

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"Alphabet({self.decl()!r})"


def _read_decl_file(text, kind, read_line):
    """Read a graph or rules file, '#' comments and blank lines dropped:
    the first line declares the alphabet, ``read_line(alphabet, line)``
    reads each later one, and errors name the line.  Returns both."""
    alphabet, values = None, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if alphabet is None:
                alphabet = Alphabet.from_decl(line)
            else:
                values.append(read_line(alphabet, line))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if alphabet is None:
        raise ValueError(f"{kind} file has no alphabet declaration")
    return alphabet, values


class Word:
    """An immutable sequence of letters from one alphabet."""

    __slots__ = ("alphabet", "ranks")

    def __init__(self, alphabet, ranks):
        t = tuple(ranks)
        if t and (min(t) < 0 or max(t) >= len(alphabet.letters)):
            raise ValueError(f"letter rank out of range in {ranks!r}")
        self.alphabet = alphabet
        self.ranks = t

    @property
    def letters(self):
        return tuple(self.alphabet.letters[r] for r in self.ranks)

    def __len__(self):
        return len(self.ranks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Word(self.alphabet, self.ranks[index])
        return self.alphabet.letters[self.ranks[index]]

    def __iter__(self):
        return iter(self.letters)

    def __add__(self, other):
        _check_same_alphabet(self, other)
        return Word(self.alphabet, self.ranks + other.ranks)

    def supp(self):
        """The set of letters occurring in the word."""
        return frozenset(self.alphabet.letters[r] for r in set(self.ranks))

    def partial_degree(self, symbol):
        """Number of occurrences of one letter."""
        return self.ranks.count(self.alphabet.rank(symbol))

    def multidegree(self):
        """Occurrence counts for every letter, in ascending alphabet order."""
        counts = [0] * len(self.alphabet.letters)
        for r in self.ranks:
            counts[r] += 1
        return tuple(counts)

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and self.ranks == other.ranks
            and self.alphabet == other.alphabet
        )

    def __hash__(self):
        # words of two alphabets may share a hash but are never equal
        return hash(self.ranks)

    def __str__(self):
        return self.alphabet._spell(self.ranks)

    def __repr__(self):
        return f"Word({str(self)!r})"


def _check_same_alphabet(u, v):
    if u.alphabet is not v.alphabet and u.alphabet != v.alphabet:
        raise ValueError("words belong to different alphabets")


def compare_lex(u, v):
    """Lexicographic comparison; a proper prefix is greater than its extensions.

    Returns -1, 0 or 1 (LESS, EQUAL, GREATER).
    """
    _check_same_alphabet(u, v)
    return _compare_ranks(u.ranks, v.ranks)


def _compare_ranks(r, s):
    """``compare_lex`` on rank tuples."""
    for a, b in zip(r, s):
        if a != b:
            return GREATER if a > b else LESS
    if len(r) == len(s):
        return EQUAL
    return GREATER if len(r) < len(s) else LESS


def compare_deglex(u, v):
    """Degree first, then lexicographic.  Returns -1, 0 or 1."""
    _check_same_alphabet(u, v)
    if len(u.ranks) != len(v.ranks):
        return GREATER if len(u.ranks) > len(v.ranks) else LESS
    # equal length: letterwise, so plain tuple comparison of ranks
    if u.ranks == v.ranks:
        return EQUAL
    return GREATER if u.ranks > v.ranks else LESS


def deglex_key(u):
    """Sort key realizing the deg-lex order (ascending)."""
    return (len(u.ranks), u.ranks)


def _deglex_max(ranks):
    """The deg-lex greatest of a non-empty collection of rank tuples."""
    # (length, ranks) pairs compare in deg-lex order, and are built in C
    return max(zip(map(len, ranks), ranks))[1]


def _factor_bounds(s):
    """(start, end) of each factor of the Lyndon-Shirshov factorization of
    the rank tuple s, left to right.

    Duval's algorithm run with the letter order reversed (Lyndon-Shirshov
    words here are standard Lyndon words for the mirrored order).
    """
    n = len(s)
    k = 0
    while k < n:
        i, j = k, k + 1
        while j < n and s[i] >= s[j]:
            i = k if s[i] > s[j] else i + 1
            j += 1
        step = j - i
        while k <= i:
            yield k, k + step
            k += step


@lru_cache(maxsize=None)
def is_alsw(u):
    """Whether u is a Lyndon-Shirshov word: u = vw implies vw > wv.

    Under the max-first letter order these are the words strictly greater
    than all their proper rotations, which are exactly the words whose
    Lyndon-Shirshov factorization has a single factor.
    """
    r = u.ranks
    if not r:
        raise ValueError("the empty word is not a Lyndon-Shirshov word")
    return next(_factor_bounds(r)) == (0, len(r))


def lyndon_factorize(u):
    """Unique factorization u = u1 u2 ... uk with each ui a Lyndon-Shirshov
    word and u1 <= u2 <= ... <= uk lexicographically."""
    s = u.ranks
    if not s:
        raise ValueError("cannot factorize the empty word")
    return [Word(u.alphabet, s[a:b]) for a, b in _factor_bounds(s)]


def standard_split(u):
    """Split a Lyndon-Shirshov word at its longest proper Lyndon-Shirshov
    suffix; both halves are again Lyndon-Shirshov words.

    The last factor of the Lyndon-Shirshov factorization of a word is its
    longest Lyndon-Shirshov suffix, so one factorization of u without its
    first letter finds the split, with no test of each suffix.
    """
    r = u.ranks
    if len(r) < 2:
        raise ValueError(f"no proper split of {u!r}")
    if not is_alsw(u):
        raise ValueError(f"{u!r} is not a Lyndon-Shirshov word")
    cut = _standard_cut(r)
    return Word(u.alphabet, r[:cut]), Word(u.alphabet, r[cut:])


def _standard_cut(r):
    """Where the standard split cuts the Lyndon-Shirshov rank tuple r, of
    length at least 2."""
    # the last factor of r[1:] is the longest Lyndon-Shirshov suffix
    for start, _ in _factor_bounds(r[1:]):
        pass
    return 1 + start


def _alsw_ranks(k, max_len, ends_ok=None):
    """Rank tuples of all Lyndon-Shirshov words of length <= max_len over
    ranks 0..k-1: a deg-lex ascending list per length 1..max_len.

    Duval's generator (Theor. Comput. Sci. 60, 1988) on the mirrored
    order, with no recursion: from [k], step the last letter down one
    rank, keep the word, extend it periodically up to max_len and pop the
    trailing rank-0 letters, until nothing is left.  Each word met is a
    prenecklace, and stepping down its last letter skips all of its
    extensions.  Each length comes out descending and is reversed.

    ``ends_ok(w, n)``, when given, says whether the list w of length n may
    end with its last letter; it is asked only of a word whose last letter
    was just stepped down.  A refused word is neither kept nor extended
    and its last letter is stepped past, so a test for "w now ends with a
    forbidden factor" keeps exactly the words free of such factors when
    each factor's first letter has a higher rank than its other letters
    (as x u y does).  A factor completed by a periodic extension would
    hold the prenecklace's first, highest letter at a later position.
    """
    if max_len < 1:
        raise ValueError("max_deg must be at least 1")
    levels = [[] for _ in range(max_len)]
    w, n = [k], 1
    while True:
        w[-1] -= 1
        if ends_ok is None or ends_ok(w, n):
            levels[n - 1].append(tuple(w))
            m = n
            while n < max_len:
                w.append(w[n - m])
                n += 1
        while w[-1] == 0:
            w.pop()
            n -= 1
            if not n:
                return [level[::-1] for level in levels]


def enumerate_alsw(alphabet, max_deg):
    """All Lyndon-Shirshov words of length <= max_deg, deg-lex ascending."""
    levels = _alsw_ranks(len(alphabet.letters), max_deg)
    return [Word(alphabet, r) for level in levels for r in level]
