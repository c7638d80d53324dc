"""Seeded job lists for the four benchmark workloads.

Every job is the argument list of one in-process ``pclie`` CLI call plus
the facts its output check needs.  The generator writes the ``--theta``
and ``--rules`` files it refers to; the program sees nothing else.  No
part of the generator imports ``pclie``, so inputs do not depend on the
code under test.

The seed changes the inputs, but each workload is stratified so that the
cost of a run does not hinge on a lucky draw (see WORKLOADS.md):

* closure draws one graph from each of 512 strata of the 1024 labelled
  graphs on five letters, the strata ordered by rule count;
* completion keeps the 63 edge-relation sets fixed, and its rational rule
  sets are fixed per job index up to the scale of each rule, which the
  seed draws;
* basis draws graphs with a fixed number of edges, which sets most of
  the work, around a fixed middle job;
* normal_form uses fixed graphs, and fixes each tree's degree and letter
  multiset by request index while the seed draws the rest.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("closure", "completion", "basis", "normal_form")

FOUR = "x > y > z > w"
FIVE = "v > w > x > y > z"
THREE = "x > y > z"

# The ROADMAP reference graph.  The letter order matters: the same edges
# with w > x > y > z make the degree-10 closure check about 150x cheaper.
REFERENCE_EDGES = (("x", "y"), ("x", "z"), ("y", "z"), ("z", "w"))
PATH_EDGES = (("x", "y"), ("y", "z"), ("z", "w"))

CLOSURE_GRAPHS = 512
CLOSURE_DEG = 5
REFERENCE_CLOSURE_DEG = 9
COMPLETION_GRAPH_DEG = 7
COMPLETION_RATIONAL_JOBS = 40
COMPLETION_RATIONAL_DEG = 6
BASIS_DEG = 8
NF_REQUESTS = 300
NF_DEGREES = (5, 8)
NF_GRAPHS = (
    REFERENCE_EDGES,
    PATH_EDGES,
    (("x", "y"), ("y", "z"), ("z", "w"), ("x", "w")),
    (("x", "y"), ("x", "z"), ("y", "z"), ("y", "w"), ("z", "w")),
)

COEFFS = ("1", "2", "3", "1/2", "3/2", "2/3", "5/4", "1/7")


@dataclass
class Job:
    argv: list
    check: dict


def _letters_ascending(decl):
    return [p.strip() for p in reversed(decl.split(">"))]


def _all_pairs(decl):
    """Unordered letter pairs, larger letter first."""
    letters = _letters_ascending(decl)[::-1]
    return list(itertools.combinations(letters, 2))


def _graphs(decl):
    """All labelled graphs on the alphabet, as sorted edge tuples by mask."""
    pairs = _all_pairs(decl)
    return [
        tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
        for mask in range(1 << len(pairs))
    ]


def _rank(decl):
    return {s: i for i, s in enumerate(_letters_ascending(decl))}


def _adjacency(decl, edges):
    adj = {s: set() for s in _rank(decl)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def rule_count(decl, edges, max_deg):
    """Number of commutation rules [x u y] of length <= max_deg: x > y
    commute, and every letter of u is below y and commutes with y."""
    rank, adj = _rank(decl), _adjacency(decl, edges)
    total = 0
    for a, b in edges:
        y = min(a, b, key=rank.get)
        inner = sum(1 for m in adj[y] if rank[m] < rank[y])
        total += sum(inner**length for length in range(max_deg - 1))
    return total


def _graph_text(decl, edges, rng):
    """Graph file; the seed picks line order and pair orientation, which
    do not change the graph."""
    lines = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in edges]
    rng.shuffle(lines)
    return decl + "\n" + "".join(f"{a} {b}\n" for a, b in lines)


def _pick_with_edges(decl, n, rng):
    return rng.choice([g for g in _graphs(decl) if len(g) == n])


class _Writer:
    def __init__(self, workdir):
        self.workdir = workdir
        self.n = 0

    def write(self, suffix, text):
        path = os.path.join(self.workdir, f"in{self.n:04d}.{suffix}")
        self.n += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def closure_jobs(rng, out):
    graphs = _graphs(FIVE)
    ordered = sorted(
        range(len(graphs)), key=lambda m: (rule_count(FIVE, graphs[m], CLOSURE_DEG), m)
    )
    jobs = []
    n = len(ordered)
    for k in range(CLOSURE_GRAPHS):
        mask = ordered[rng.randrange(k * n // CLOSURE_GRAPHS, (k + 1) * n // CLOSURE_GRAPHS)]
        jobs.append((FIVE, graphs[mask], CLOSURE_DEG))
    jobs.append((FOUR, REFERENCE_EDGES, REFERENCE_CLOSURE_DEG))
    return [
        Job(
            ["verify", "--theta", out.write("theta", _graph_text(decl, edges, rng)),
             "--max-deg", str(deg), "--format", "json"],
            {"kind": "closure", "rules": rule_count(decl, edges, deg), "deg": deg},
        )
        for decl, edges, deg in jobs
    ]


def _is_lsw(ranks):
    """Lyndon-Shirshov (max-first order): greater than every proper rotation."""
    return all(ranks > ranks[i:] + ranks[:i] for i in range(1, len(ranks)))


def lyndon_words(decl, lo, hi):
    """Lyndon-Shirshov words of length lo..hi as letter strings, by brute
    force over all words."""
    letters = _letters_ascending(decl)
    return [
        "".join(letters[r] for r in w)
        for n in range(lo, hi + 1)
        for w in itertools.product(range(len(letters)), repeat=n)
        if _is_lsw(w)
    ]


def _canonical_tree(word, decl):
    """Canonical bracketing of a Lyndon-Shirshov word (split off the
    longest proper Lyndon-Shirshov suffix), in the expression grammar."""
    if len(word) == 1:
        return word
    rank = _rank(decl)
    r = tuple(rank[c] for c in word)
    i = next(i for i in range(1, len(word)) if _is_lsw(r[i:]))
    return f"({_canonical_tree(word[:i], decl)} {_canonical_tree(word[i:], decl)})"


def _signed_sum(terms):
    """Join (coefficient text, factor text, sign) triples in the grammar."""
    out = ""
    for coeff, factor, negative in terms:
        body = factor if coeff == "1" else f"{coeff}*{factor}"
        if not out:
            out = f"-1*{factor}" if negative and coeff == "1" else (f"-{body}" if negative else body)
        else:
            out += f" {'-' if negative else '+'} {body}"
    return out


def completion_jobs(rng, out):
    jobs = []
    for edges in _graphs(FOUR)[1:]:
        lines = [f"({a} {b})" if rng.random() < 0.5 else f"({b} {a})" for a, b in edges]
        path = out.write("rules", FOUR + "\n" + "\n".join(lines) + "\n")
        jobs.append(
            Job(
                ["complete", "--rules", path, "--max-deg", str(COMPLETION_GRAPH_DEG),
                 "--format", "json"],
                {"kind": "completion_graph", "decl": FOUR, "edges": [list(e) for e in edges],
                 "deg": COMPLETION_GRAPH_DEG},
            )
        )
    by_deg = {d: lyndon_words(THREE, d, d) for d in (2, 3)}
    degs = sorted(by_deg)
    for i in range(COMPLETION_RATIONAL_JOBS):
        lines = []
        for k in range(2 + i % 2):
            words = by_deg[degs[(i // 2 + k) % len(degs)]]
            # the rule (its words and coefficient ratios) depends on the job
            # index only, since coefficients can change the completion's work
            # many times over; the seed draws the scale it is written at
            fixed = random.Random(1000 * i + k)
            shape = fixed.sample(words, min(len(words), 2 + (i + k) % 2))
            coeffs = [Fraction(fixed.choice(COEFFS)) * fixed.choice((1, -1)) for _ in shape]
            scale = Fraction(rng.choice(COEFFS)) * rng.choice((1, -1))
            lines.append(
                _signed_sum(
                    (str(abs(c * scale)), _canonical_tree(w, THREE), c * scale < 0)
                    for c, w in zip(coeffs, shape)
                )
            )
        path = out.write("rules", THREE + "\n" + "\n".join(lines) + "\n")
        jobs.append(
            Job(
                ["complete", "--rules", path, "--max-deg", str(COMPLETION_RATIONAL_DEG),
                 "--format", "json"],
                {"kind": "completion_rules", "decl": THREE, "lines": lines,
                 "deg": COMPLETION_RATIONAL_DEG},
            )
        )
    return jobs


def basis_jobs(rng, out):
    # A listing's cost falls with the edge count, each edge class spanning
    # about 1.5x.  The seeded graphs have 1, 2 and 5 edges and the fixed
    # path 3, so the path is always the middle job and job_p50_ms does not
    # hinge on the draw.
    graphs = [
        (),
        _pick_with_edges(FOUR, 1, rng),
        _pick_with_edges(FOUR, 2, rng),
        PATH_EDGES,
        REFERENCE_EDGES,
        _pick_with_edges(FOUR, 5, rng),
        tuple(_all_pairs(FOUR)),
    ]
    return [
        Job(
            ["basis", "--theta", out.write("theta", _graph_text(FOUR, g, rng)),
             "--max-deg", str(BASIS_DEG), "--cross-check"],
            {"kind": "basis", "decl": FOUR, "edges": [list(e) for e in g], "deg": BASIS_DEG},
        )
        for g in graphs
    ]


def _random_tree(rng, leaves):
    """A random bracketing of the given leaf sequence."""
    if len(leaves) == 1:
        return leaves[0]
    k = rng.randint(1, len(leaves) - 1)
    return f"({_random_tree(rng, leaves[:k])} {_random_tree(rng, leaves[k:])})"


def normal_form_jobs(rng, out):
    paths = [out.write("theta", _graph_text(FOUR, g, rng)) for g in NF_GRAPHS]
    letters = _letters_ascending(FOUR)
    jobs = []
    for i in range(NF_REQUESTS):
        g = i % len(NF_GRAPHS)
        terms = []
        for t in range(1 + i % 3):
            # degree and letter multiset depend on the request index only;
            # the seed draws letter order, bracketing and coefficient
            deg = NF_DEGREES[0] + (i // len(NF_GRAPHS) + t) % (NF_DEGREES[1] - NF_DEGREES[0] + 1)
            leaves = random.Random(f"nf:{i}:{t}").choices(letters, k=deg)
            rng.shuffle(leaves)
            terms.append((rng.choice(COEFFS), _random_tree(rng, leaves), rng.random() < 0.5))
        expr = _signed_sum(terms)
        jobs.append(
            Job(
                ["nf", "--theta", paths[g], "--expr", expr, "--format", "json"],
                {"kind": "nf", "decl": FOUR, "edges": [list(e) for e in NF_GRAPHS[g]],
                 "expr": expr},
            )
        )
    return jobs


_MAKERS = {
    "closure": closure_jobs,
    "completion": completion_jobs,
    "basis": basis_jobs,
    "normal_form": normal_form_jobs,
}


def make_jobs(workload, seed, workdir):
    """Write the inputs of one workload into workdir and return its jobs."""
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"), _Writer(workdir))
