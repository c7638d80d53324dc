"""Output checks, run after the timed passes.

Each check takes a job's check record and its captured (exit code,
stdout, stderr) and returns None when the output is right, or a short
reason.  The oracles are the ones the program's acceptance suite trusts:
the clique-series dimensions, reduction modulo the generated relations,
and the bounded composition check.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache

from pclie.expr import parse_expr
from pclie.gsb import is_gsb, reduce
from pclie.lie import LiePoly
from pclie.quotient import (
    CommGraph,
    clique_series_dims,
    contains_pattern,
    generate_relations,
)
from pclie.rules import Rule
from pclie.words import Alphabet
from workloads import lyndon_words


@lru_cache(maxsize=None)
def _alphabet(decl):
    return Alphabet.from_decl(decl)


def _graph(decl, edges):
    return CommGraph(_alphabet(decl), [tuple(e) for e in edges])


@lru_cache(maxsize=None)
def _dims(decl, edges, deg):
    return clique_series_dims(_graph(decl, edges), deg)


def _key(edges):
    return tuple(sorted(tuple(e) for e in edges))


def _coeff(text):
    return Fraction(text) if "/" in text else int(text)


def _poly(alphabet, terms):
    return LiePoly(alphabet, [(alphabet.word(t["word"]), _coeff(t["coeff"])) for t in terms])


# brute force, independent of the program's own enumeration
_lsw_strings = lru_cache(maxsize=None)(lyndon_words)


def check_closure(job, rc, out):
    rec = json.loads(out)
    if rc != 0 or rec["ok"] is not True or rec["failures"]:
        return f"closure verdict is not ok (exit {rc})"
    if rec["rules"] != job["rules"] or rec["max_deg"] != job["deg"]:
        return f"rule count {rec['rules']} != {job['rules']}"
    return None


def check_completion_graph(job, rc, out):
    """The completed rule set is a Groebner-Shirshov basis of the graph's
    quotient, so the words avoiding its leading words count the basis."""
    rec = json.loads(out)
    if rc != 0:
        return f"exit {rc}"
    leads = [r["leading"] for r in rec["rules"]]
    deg = job["deg"]
    counts = [0] * deg
    for w in _lsw_strings(job["decl"], 1, deg):
        if not any(lead in w for lead in leads):
            counts[len(w) - 1] += 1
    want = _dims(job["decl"], _key(job["edges"]), deg)
    if counts != want:
        return f"irreducible word counts {counts} != clique series {want}"
    return None


def check_completion_rules(job, rc, out):
    rec = json.loads(out)
    if rc != 0:
        return f"exit {rc}"
    alphabet = _alphabet(job["decl"])
    rules = [Rule(_poly(alphabet, r["body"])) for r in rec["rules"]]
    for r, src in zip(rec["rules"], rules):
        if str(src.leading) != r["leading"]:
            return f"leading word {r['leading']} is not the lead of its body"
    inputs = [Rule.monic(parse_expr(line, alphabet).to_lie_poly()) for line in job["lines"]]
    if rules[: len(inputs)] != inputs:
        return "the completed set does not start with the input rules"
    if not is_gsb(rules, job["deg"]).ok:
        return "the completed set is not closed at its degree"
    return None


_BASIS_LINE = re.compile(r"^(\d+)\t(\w+)\t(.+)$")


def check_basis(job, rc, out):
    lines = out.splitlines()
    deg = job["deg"]
    want = _dims(job["decl"], _key(job["edges"]), deg)
    if rc != 0 or len(lines) < 2 or lines[-1] != "cross-check: ok":
        return f"cross-check did not pass (exit {rc})"
    dims_line = " ".join(f"{d + 1}:{n}" for d, n in enumerate(want))
    if lines[-2] != dims_line:
        return f"dimensions {lines[-2]!r} != clique series {dims_line!r}"
    listed = [0] * deg
    seen = set()
    for line in lines[:-2]:
        m = _BASIS_LINE.match(line)
        if m is None or len(m.group(2)) != int(m.group(1)) or m.group(2) in seen:
            return f"malformed listing line {line!r}"
        seen.add(m.group(2))
        listed[int(m.group(1)) - 1] += 1
    if listed != want:
        return f"listed elements {listed} != dimensions {want}"
    return None


@lru_cache(maxsize=None)
def _relations(decl, edges, deg):
    return generate_relations(_graph(decl, edges), deg)


def check_nf(job, rc, out):
    """The normal form equals the remainder of the generic reduction modulo
    the graph's relations up to the input degree (a different rewriting
    strategy; both agree because the relations are closed), and lives on
    pattern-free words."""
    rec = json.loads(out)
    if rc != 0:
        return f"exit {rc}"
    alphabet = _alphabet(job["decl"])
    got = _poly(alphabet, rec["normal_form"])
    p = parse_expr(job["expr"], alphabet).to_lie_poly()
    if p.is_zero():
        want = p
    else:
        deg = max(p.degree(), 2)
        want = reduce(p, _relations(job["decl"], _key(job["edges"]), deg)).remainder
    if got != want:
        return f"normal form {got} != reduction remainder {want}"
    graph = _graph(job["decl"], job["edges"])
    if any(contains_pattern(graph, w) for w in got.terms):
        return "normal form has a reducible word"
    if rec["normal_form_text"] != str(got):
        return "text and term list disagree"
    return None


CHECKS = {
    "closure": check_closure,
    "completion_graph": check_completion_graph,
    "completion_rules": check_completion_rules,
    "basis": check_basis,
    "nf": check_nf,
}


def check(job, output):
    """None when the job's output is right, else the reason it is not."""
    rc, out, err = output
    if rc is None:
        return "raised: " + err.strip().splitlines()[-1] if err.strip() else "raised"
    try:
        return CHECKS[job["kind"]](job, rc, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        # json.JSONDecodeError is a ValueError: unparseable output
        return f"output does not parse: {exc.__class__.__name__}: {exc}"
