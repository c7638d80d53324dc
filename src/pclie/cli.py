"""Command-line front end.

Every subcommand prints deterministically (deg-lex ordering throughout)
and supports ``--format json``.  Exit codes: 0 success / verified,
1 mathematical failure (rule set not closed, dimension mismatch),
2 usage error (bad flags, files, or expressions) or an input nested too
deep for the recursive tree algorithms (an ``--expr`` nested about 980
brackets deep), reported as ``error: ... too deep``.  ``bracket`` is one
loop, and printing a tree does not recurse: its text is made with it.
``basis`` lists the texts of the basis brackets, folded without a tree
or a word per listed element; each word is read off its tree's text.

Each call builds only the output that its ``--format`` prints: a
subcommand hands ``_emit`` its text lines and its JSON record as two
builders, and ``_emit``, the one reader of ``--format``, calls one.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .expr import parse_expr
from .gsb import complete, is_gsb
from .lie import bracket, coeff_str
from .quotient import (
    CommGraph,
    assoc_hilbert_series,
    basis_texts,
    clique_series_dims,
    generate_relations,
    graded_dimensions,
    pc_normal_form,
)
# irr_basis is not called here (basis prints basis_texts), but
# perfbench/layers.py wraps this binding
from .quotient import irr_basis  # noqa: F401
from .rules import Rule
from .words import Alphabet, _read_decl_file, enumerate_alsw, is_alsw, lyndon_factorize


def _poly_json(p):
    return [{"word": str(w), "coeff": coeff_str(c)} for w, c in p.items_deglex()]


def _load_graph(path):
    with open(path, encoding="utf-8") as fh:
        return CommGraph.parse(fh.read())


def _read_rule(alphabet, line):
    poly = parse_expr(line, alphabet).to_lie_poly()
    if poly.is_zero():
        raise ValueError("rule is zero")
    return Rule.monic(poly)


def _load_rules(path):
    """Rules file: first significant line an alphabet declaration, then one
    expression per line; each is normalized to a monic rule."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    alphabet, rules = _read_decl_file(text, "rules", _read_rule)
    if not rules:
        raise ValueError("rules file has no rules")
    return alphabet, rules


def _emit(args, text, record):
    """Print ``record()`` as JSON or the lines of ``text()``, by ``--format``."""
    if args.format == "json":
        print(json.dumps(record(), sort_keys=True))
    elif lines := text():
        print("\n".join(lines))


def cmd_alsw(args):
    alphabet = Alphabet.from_decl(args.alphabet)
    words = enumerate_alsw(alphabet, args.max_deg)
    texts = [str(w) for w in words]

    def record():
        dims = [0] * args.max_deg
        for w in words:
            dims[len(w) - 1] += 1
        return {
            "alphabet": alphabet.decl(),
            "max_deg": args.max_deg,
            "words": texts,
            "dimensions": dims,
        }

    _emit(args, lambda: texts, record)
    return 0


def cmd_factorize(args):
    alphabet = Alphabet.from_decl(args.alphabet)
    word = alphabet.word(args.word)
    factors = [str(f) for f in lyndon_factorize(word)]
    _emit(
        args,
        lambda: [" ".join(factors)],
        lambda: {"word": str(word), "factors": factors},
    )
    return 0


def cmd_bracket(args):
    alphabet = Alphabet.from_decl(args.alphabet)
    word = alphabet.word(args.word)
    if not is_alsw(word):
        raise ValueError(f"{word} is not a Lyndon-Shirshov word")
    tree = bracket(word)
    _emit(args, lambda: [str(tree)], lambda: {"word": str(word), "tree": str(tree)})
    return 0


def cmd_nf(args):
    graph = _load_graph(args.theta)
    poly = parse_expr(args.expr, graph.alphabet).to_lie_poly()
    nf = pc_normal_form(poly, graph)
    _emit(
        args,
        lambda: [str(nf)],
        lambda: {
            "expr": args.expr,
            "normal_form": _poly_json(nf),
            "normal_form_text": str(nf),
        },
    )
    return 0


def cmd_verify(args):
    graph = _load_graph(args.theta)
    rules = generate_relations(graph, args.max_deg)
    report = is_gsb(rules, args.max_deg)
    _emit(
        args,
        lambda: ["ok" if report.ok else "fail"] + [
            f"{amb.kind} w={amb.w} f={amb.f.body} g={amb.g.body} remainder={rem}"
            for amb, rem in report.failures
        ],
        lambda: {
            "ok": report.ok,
            "max_deg": args.max_deg,
            "rules": len(rules),
            "ambiguities": report.ambiguities_checked,
            "failures": [
                {
                    "kind": amb.kind,
                    "w": str(amb.w),
                    "f": str(amb.f.body),
                    "g": str(amb.g.body),
                    "remainder": _poly_json(rem),
                }
                for amb, rem in report.failures
            ],
        },
    )
    return 0 if report.ok else 1


def cmd_basis(args):
    graph = _load_graph(args.theta)
    if args.dims_only:
        # the trees are never printed, so only the words are counted
        levels, dims = [], graded_dimensions(graph, args.max_deg)
    else:
        levels = basis_texts(graph, args.max_deg)
        dims = [len(level) for level in levels]
    oracle = clique_series_dims(graph, args.max_deg) if args.cross_check else None
    ok = not args.cross_check or oracle == dims
    # a word is its tree's text without the brackets, and without the spaces
    # too when every letter is one character (no letter name holds either)
    drop = str.maketrans("", "", "() " if graph.alphabet._compact else "()")

    def text():
        lines = [
            f"{d}\t{t.translate(drop)}\t{t}"
            for d, level in enumerate(levels, 1)
            for t in level
        ]
        lines.append(" ".join(f"{d+1}:{n}" for d, n in enumerate(dims)))
        if args.cross_check:
            verdict = "ok" if ok else f"MISMATCH series={oracle} basis={dims}"
            lines.append(f"cross-check: {verdict}")
        return lines

    def record():
        rec = {"max_deg": args.max_deg, "dimensions": dims}
        if not args.dims_only:
            rec["elements"] = [
                {"degree": d, "word": t.translate(drop), "tree": t}
                for d, level in enumerate(levels, 1)
                for t in level
            ]
        if args.cross_check:
            rec["cross_check"] = {
                "ok": ok,
                "series_dims": oracle,
                "assoc_series": assoc_hilbert_series(graph, args.max_deg),
            }
        return rec

    _emit(args, text, record)
    return 0 if ok else 1


def cmd_complete(args):
    _, rules = _load_rules(args.rules)
    closed = complete(rules, args.max_deg)
    _emit(
        args,
        lambda: [str(r.body) for r in closed],
        lambda: {
            "max_deg": args.max_deg,
            "input_rules": len(rules),
            "rules": [
                {"leading": str(r.leading), "body": _poly_json(r.body)}
                for r in closed
            ],
        },
    )
    return 0


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared by later ``main``
    calls (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="pclie",
        description=(
            "Lyndon-Shirshov word calculus, Groebner-Shirshov rewriting, and "
            "graded bases of free partially commutative Lie algebras."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("alsw", help="list Lyndon-Shirshov words up to a degree")
    p.add_argument("--alphabet", required=True, help='declaration, e.g. "x > y"')
    p.add_argument("--max-deg", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_alsw)

    p = sub.add_parser("factorize", help="non-decreasing Lyndon-Shirshov factorization")
    p.add_argument("--alphabet", required=True)
    p.add_argument("word")
    add_format(p)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("bracket", help="canonical bracketing of a Lyndon-Shirshov word")
    p.add_argument("--alphabet", required=True)
    p.add_argument("word")
    add_format(p)
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser(
        "nf",
        help="normal form modulo a commutation graph",
        description=(
            "Rewrite an expression to its normal form. Reduction always "
            "targets the deg-lex greatest reducible basis word and the "
            "leftmost occurrence of the chosen rule pattern inside it."
        ),
    )
    p.add_argument("--theta", required=True, help="commutation graph file")
    p.add_argument("--expr", required=True, help="expression over the graph's alphabet")
    add_format(p)
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser(
        "verify",
        help="check the commutation rule set is closed under composition up to a degree",
    )
    p.add_argument("--theta", required=True)
    p.add_argument("--max-deg", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("basis", help="graded basis of the quotient up to a degree")
    p.add_argument("--theta", required=True)
    p.add_argument("--max-deg", type=int, required=True)
    p.add_argument("--dims-only", action="store_true")
    p.add_argument(
        "--cross-check",
        action="store_true",
        help="compare dimensions against the clique-series oracle",
    )
    add_format(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("complete", help="bounded completion of a rule set")
    p.add_argument("--rules", required=True, help="rules file")
    p.add_argument("--max-deg", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_complete)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: recursion limit exceeded, the input is too deep", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
