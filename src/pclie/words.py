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

from functools import lru_cache

LESS, EQUAL, GREATER = -1, 0, 1


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
            if not sym or not all(ch.isalnum() or ch == "_" for ch in sym):
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

    def symbol(self, rank):
        return self.letters[rank]

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


def _read_decl_file(text, kind):
    """Read the header shared by graph and rules files: '#' starts a
    comment, blank lines are skipped, and the first significant line
    declares the alphabet.  Returns the alphabet and the (lineno, line)
    pairs of the significant lines after it."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    if not lines:
        raise ValueError(f"{kind} file has no alphabet declaration")
    return Alphabet.from_decl(lines[0][1]), lines[1:]


class Word:
    """An immutable sequence of letters from one alphabet."""

    __slots__ = ("alphabet", "ranks", "_hash")

    def __init__(self, alphabet, ranks):
        t = tuple(ranks)
        if t and (min(t) < 0 or max(t) >= len(alphabet.letters)):
            raise ValueError(f"letter rank out of range in {ranks!r}")
        self.alphabet = alphabet
        self.ranks = t
        self._hash = hash((alphabet.letters, self.ranks))

    @property
    def letters(self):
        return tuple(self.alphabet.letters[r] for r in self.ranks)

    def __len__(self):
        return len(self.ranks)

    def __bool__(self):
        return bool(self.ranks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Word(self.alphabet, self.ranks[index])
        return self.alphabet.letters[self.ranks[index]]

    def __iter__(self):
        return iter(self.letters)

    def __add__(self, other):
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise ValueError("cannot concatenate words over different alphabets")
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
        return self._hash

    def __str__(self):
        sep = "" if self.alphabet._compact else " "
        return sep.join(self.letters)

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
    # factor starts increase, so the largest is the last factor's
    return 1 + max(a for a, _ in _factor_bounds(r[1:]))


def _alsw_ranks(k, max_len, may_follow=None):
    """Rank tuples of all Lyndon-Shirshov words of length <= max_len over
    ranks 0..k-1, deg-lex ascending.

    A depth-first walk over the prenecklaces (prefixes of Lyndon-Shirshov
    words) in the recursive form of the Fredricksen-Kessler-Maiorana
    generator, on the mirrored order: the children of a prefix a of length
    t with period p are the ranks r <= a[t-p]; r == a[t-p] keeps the period
    and a smaller r makes it t+1.  A prefix whose period is its length is a
    Lyndon-Shirshov word.  Children are visited in ascending rank, so each
    length comes out in lexicographic order.

    ``may_follow(prefix, r)``, when given, says whether rank r may be
    appended to the prefix (a list of ranks).  A refused prefix is not
    extended, so only the words whose every letter passed the test are
    returned; a test for "the prefix now ends with a forbidden factor"
    keeps exactly the words free of such factors.
    """
    levels = [[] for _ in range(max_len)]
    a = []

    def extend(p):
        t = len(a)
        if t == p:
            levels[t - 1].append(tuple(a))
        if t == max_len:
            return
        top = a[t - p] if t else k - 1
        for r in range(top + 1):
            if may_follow is None or may_follow(a, r):
                a.append(r)
                extend(p if r == top else t + 1)
                a.pop()

    extend(1)
    return [w for level in levels for w in level]


def enumerate_alsw(alphabet, max_deg):
    """All Lyndon-Shirshov words of length <= max_deg, deg-lex ascending."""
    if max_deg < 1:
        raise ValueError("max_deg must be at least 1")
    return [Word(alphabet, r) for r in _alsw_ranks(len(alphabet.letters), max_deg)]
