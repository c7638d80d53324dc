import hashlib
import itertools
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from pclie import Alphabet, LiePoly, enumerate_alsw
from pclie.cli import _poly_json, build_parser, main

from oracles import poly_json_by_fractions

STAR3 = "x > y > z\nx y\nx z\n"
ABELIAN2 = "x > y\nx y\n"
XZ = "x > y > z\nx z\n"
XY_YZ = "x > y > z\nx y\ny z\n"
ABELIAN3 = "x > y > z\nx y\nx z\ny z\n"


@pytest.fixture
def theta(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_alsw(capsys):
    code, out, _ = run(capsys, "alsw", "--alphabet", "x > y", "--max-deg", "3")
    assert code == 0
    assert out.split() == ["y", "x", "xy", "xyy", "xxy"]


def test_alsw_json(capsys):
    code, out, _ = run(
        capsys, "alsw", "--alphabet", "x > y", "--max-deg", "3", "--format", "json"
    )
    rec = json.loads(out)
    assert code == 0
    assert rec["dimensions"] == [2, 1, 2]
    assert set(rec["words"]) == {"y", "x", "xy", "xyy", "xxy"}


def test_alsw_deep_degree(capsys):
    # far past the recursion limit; the one-letter answer comes at once
    code, out, err = run(capsys, "alsw", "--alphabet", "x", "--max-deg", "3000")
    assert (code, out, err) == (0, "x\n", "")


def test_factorize(capsys):
    code, out, _ = run(capsys, "factorize", "--alphabet", "x > y", "yxxy")
    assert code == 0
    assert out.strip() == "y xxy"


def test_bracket(capsys):
    code, out, _ = run(capsys, "bracket", "--alphabet", "x > y", "xxy")
    assert code == 0
    assert out.strip() == "(x (x y))"


def test_bracket_rejects_non_lyndon(capsys):
    code, _, err = run(capsys, "bracket", "--alphabet", "x > y", "yx")
    assert code == 2
    assert "error" in err


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_bracket_too_deep_exits_2(capsys, theta):
    # the expression parser recurses once per level of nested brackets (the
    # tree evaluation walks an explicit stack).  With the default limit it
    # takes about 985 levels to get there; a lowered limit shows the same
    # path on 150
    path = theta("xz.theta", XZ)
    expr = "(" * 150 + "x" + " y)" * 150
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        code, out, err = run(capsys, "nf", "--theta", path, "--expr", expr)
    finally:
        sys.setrecursionlimit(old)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.rstrip().endswith("too deep")


def test_bracket_of_a_long_word(capsys):
    # bracket is one loop, so the word's length meets no recursion limit
    code, out, err = run(capsys, "bracket", "--alphabet", "x > y", "x" + "y" * 600)
    assert (code, err) == (0, "")
    assert out == "(" * 600 + "x" + " y)" * 600 + "\n"


def test_nf(capsys, theta):
    path = theta("xz.theta", XZ)
    code, out, _ = run(capsys, "nf", "--theta", path, "--expr", "((x y) z)")
    assert code == 0
    assert out.strip() == "[xyz]"


def test_nf_zero(capsys, theta):
    path = theta("ab.theta", ABELIAN2)
    code, out, _ = run(capsys, "nf", "--theta", path, "--expr", "(x y)")
    assert code == 0
    assert out.strip() == "0"


def test_nf_bad_expression(capsys, theta):
    path = theta("ab.theta", ABELIAN2)
    code, _, err = run(capsys, "nf", "--theta", path, "--expr", "((x y)")
    assert code == 2
    assert "position" in err


def test_nf_refuses_non_ascii_digits(capsys, theta):
    # a coefficient is ASCII digits only: an Arabic-Indic three is refused
    path = theta("xy_yz.theta", XY_YZ)
    code, out, err = run(capsys, "nf", "--theta", path, "--expr", "\u0663*(x z)")
    assert code == 2
    assert out == ""
    assert err == "error: position 0: unexpected character '\u0663'\n"


def test_verify_ok(capsys, theta):
    path = theta("abelian2.theta", ABELIAN2)
    code, out, _ = run(capsys, "verify", "--theta", path, "--max-deg", "6")
    assert code == 0
    assert out.splitlines()[0] == "ok"


def test_verify_json(capsys, theta):
    path = theta("star3.theta", STAR3)
    code, out, _ = run(
        capsys, "verify", "--theta", path, "--max-deg", "6", "--format", "json"
    )
    rec = json.loads(out)
    assert code == 0
    assert rec["ok"] is True
    assert rec["failures"] == []


def _unclosed_relations(monkeypatch):
    # the relations [xy] and [yz] on x > y > z, which are not closed: by the
    # theorem a graph's own relations always verify, so no graph gets here
    from pclie import Alphabet, LiePoly, Rule

    al = Alphabet.from_decl("x > y > z")
    rules = [Rule(LiePoly.basis(al.word(w))) for w in ("xy", "yz")]
    monkeypatch.setattr("pclie.cli.generate_relations", lambda graph, max_deg: rules)


def test_verify_failure_exits_1(capsys, theta, monkeypatch):
    _unclosed_relations(monkeypatch)
    path = theta("xy_yz.theta", XY_YZ)
    argv = ["verify", "--theta", path, "--max-deg", "4"]
    assert run(capsys, *argv) == (
        1, "fail\nintersection w=xyz f=[xy] g=[yz] remainder=[xzy]\n", ""
    )
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "ok": False,
        "max_deg": 4,
        "rules": 2,
        "ambiguities": 1,
        "failures": [
            {
                "kind": "intersection",
                "w": "xyz",
                "f": "[xy]",
                "g": "[yz]",
                "remainder": [{"word": "xzy", "coeff": "1"}],
            }
        ],
    }


def test_basis_cross_check_mismatch_exits_1(capsys, theta, monkeypatch):
    monkeypatch.setattr("pclie.cli.clique_series_dims", lambda graph, max_deg: [9] * max_deg)
    path = theta("xy_yz.theta", XY_YZ)
    argv = ["basis", "--theta", path, "--max-deg", "3", "--cross-check"]
    for extra in ([], ["--dims-only"]):
        code, out, err = run(capsys, *argv, *extra)
        assert (code, err) == (1, "")
        assert out.splitlines()[-2:] == [
            "1:3 2:1 3:2",
            "cross-check: MISMATCH series=[9, 9, 9] basis=[3, 1, 2]",
        ]
        code, out, err = run(capsys, *argv, *extra, "--format", "json")
        assert (code, err) == (1, "")
        rec = json.loads(out)
        assert rec["dimensions"] == [3, 1, 2]
        assert rec["cross_check"] == {
            "ok": False,
            "series_dims": [9, 9, 9],
            "assoc_series": [1, 3, 7, 15],
        }
        assert ("elements" in rec) == (extra == [])


def test_only_the_printed_format_is_built(capsys, theta, monkeypatch):
    # each call builds the output its --format prints, and nothing of the
    # other: the text of a Lie element, its JSON terms or the associative
    # series of the cross-check
    from pclie import LiePoly

    rules = theta("pair.rules", "x > y > z\n(x y)\n(y z)\n")
    path = theta("xy_yz.theta", XY_YZ)
    json_calls = [["complete", "--rules", rules, "--max-deg", "5", "--format", "json"]]
    text_calls = [
        ["nf", "--theta", path, "--expr", "(x (y z)) + 2*(x (x z))"],
        ["verify", "--theta", path, "--max-deg", "4"],
        ["basis", "--theta", path, "--max-deg", "5", "--cross-check"],
    ]
    _unclosed_relations(monkeypatch)
    outputs = [run(capsys, *argv) for argv in json_calls + text_calls]
    assert [code for code, _, _ in outputs] == [0, 0, 1, 0]

    def refuse(*args):
        raise AssertionError("built an output that is not printed")

    with monkeypatch.context() as m:
        m.setattr(LiePoly, "__str__", refuse)
        assert [run(capsys, *argv) for argv in json_calls] == outputs[:1]
    monkeypatch.setattr("pclie.cli._poly_json", refuse)
    monkeypatch.setattr("pclie.cli.assoc_hilbert_series", refuse)
    assert [run(capsys, *argv) for argv in text_calls] == outputs[1:]


REFERENCE = "x > y > z > w\nx y\nx z\ny z\nz w\n"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["verify", "--format", "json"], "b0bee4544df736ce634ec6b8f27c6405"),
        (["basis", "--cross-check"], "830956792d596d0a103097f144a12447"),
        (["basis", "--format", "json"], "696c4c61fe4174fca583552d442fb695"),
    ],
)
def test_reference_outputs_keep_their_digests(capsys, theta, argv, digest):
    # the whole degree-12 output on the reference graph, byte for byte
    path = theta("reference.theta", REFERENCE)
    code, out, err = run(capsys, *argv, "--theta", path, "--max-deg", "12")
    assert (code, err) == (0, "")
    assert hashlib.md5(out.encode("utf-8")).hexdigest() == digest


STAR_RULES = "x > y > z > w\n(x y)\n(z y)\n(w y)\n"


def test_a_completion_to_hundreds_of_rules_keeps_its_digest(capsys, theta):
    # the reference digests are on a sparse graph; this completion grows
    # from 3 to 257 rules, each new one paired with all before it
    path = theta("star.rules", STAR_RULES)
    code, out, err = run(capsys, "complete", "--rules", path, "--format", "json", "--max-deg", "9")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["rules"]) == 257
    assert hashlib.md5(out.encode("utf-8")).hexdigest() == "fcb5087642fd3b951e4ed6d7d994d931"


RATIONAL_RULES = (
    "ab > c > d\n"
    "-1/7*(ab (ab d)) + 3/2*((ab c) c) - 2/3*(c (c d))\n"
    "-3/2*(c ab) - 15/4*(ab d)\n"
    "-2*(ab (ab d)) + 18/2*((ab d) d) - 3*(ab (c d))\n"
)
RATIONAL_EXPR = (
    "3/2*((x w) (y w)) - 2/3*(x (y w)) + 5/4*((w x) y) - 7/6*((y w) ((w x) z))"
    " + 2/4*(x (z (y w))) - 9/6*((x w) w) + 1/3*(((x w) w) (y w))"
)


@pytest.mark.parametrize(
    "command, name, text, argv, digest",
    [
        # rational rules over a letter of two characters, a rule written
        # against the letter order and unreduced coefficients; the 8 rules of
        # the completion carry coefficients of up to 25 digits
        (
            "complete", "rational.rules", RATIONAL_RULES, ["--max-deg", "6"],
            "3902b29e2dcfdd65d15b14cd11df8529",
        ),
        (
            "nf", "reference.theta", REFERENCE, ["--expr", RATIONAL_EXPR],
            "1c47d9ea460e33a6c57ae7c89ae2774c",
        ),
    ],
)
def test_rational_outputs_keep_their_digests(capsys, theta, command, name, text, argv, digest):
    flag = "--rules" if command == "complete" else "--theta"
    code, out, err = run(capsys, command, flag, theta(name, text), *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.md5(out.encode("utf-8")).hexdigest() == digest


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.sampled_from([Alphabet.from_decl("x > y > z"), Alphabet.from_decl("ab > c > d")]),
    st.data(),
)
def test_json_terms_match_the_fraction_oracle(alphabet, data):
    # numerators over one drawn denominator, so a term's fraction is often
    # not in lowest terms (2/4 and 3/4 print as 1/2 and 3/4); negative and
    # integral coefficients too, and words joined by spaces over ab > c > d
    words = data.draw(st.lists(st.sampled_from(enumerate_alsw(alphabet, 4)), max_size=5, unique=True))
    num = {w.ranks: data.draw(st.integers(-12, 12).filter(bool)) for w in words}
    p = LiePoly._make(alphabet, num, data.draw(st.sampled_from([1, 2, 3, 4, 6, 12])))
    assert _poly_json(p._deglex_texts()) == poly_json_by_fractions(p)


def test_basis_dims_only(capsys, theta):
    path = theta("star3.theta", STAR3)
    code, out, _ = run(
        capsys, "basis", "--theta", path, "--max-deg", "3", "--dims-only"
    )
    assert code == 0
    assert out.strip() == "1:3 2:1 3:2"


def test_basis_full_and_cross_check(capsys, theta):
    path = theta("star3.theta", STAR3)
    code, out, _ = run(
        capsys, "basis", "--theta", path, "--max-deg", "3", "--cross-check"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "cross-check: ok"
    assert any(line.startswith("3\t") for line in lines)


def test_basis_lists_multi_character_letters(capsys, theta):
    # multi-character letters are written with a space between them
    from pclie import bracket
    from pclie.quotient import CommGraph, irr_words

    text = "x2 > x1 > x0\nx2 x0\n"
    path = theta("multi.theta", text)
    code, out, _ = run(capsys, "basis", "--theta", path, "--max-deg", "5")
    assert code == 0
    lines = out.splitlines()
    words = irr_words(CommGraph.parse(text), 5)
    assert lines[:-1] == [f"{len(w)}\t{w}\t{bracket(w)}" for w in words]
    assert "3\tx2 x1 x0\t(x2 (x1 x0))" in lines
    assert lines[-1] == "1:3 2:2 3:5 4:10 5:24"


def basis_graphs():
    # every graph on four one-character letters, and on two alphabets with
    # multi-character letters, whose words print with spaces
    for decl in ("x > y > z > w", "x2 > x1 > x0", "ab > c > d"):
        letters = [s.strip() for s in decl.split(">")]
        pairs = list(itertools.combinations(letters, 2))
        for n in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, n):
                yield decl + "\n" + "".join(f"{a} {b}\n" for a, b in edges)


def test_basis_listing_matches_the_trees(capsys, theta):
    from oracles import basis_listing_from_trees
    from pclie.quotient import CommGraph, basis_texts, irr_basis

    texts = list(basis_graphs())
    assert len(texts) == 64 + 8 + 8
    for text in texts:
        graph = CommGraph.parse(text)
        want = basis_listing_from_trees(graph, 6)
        trees = irr_basis(graph, 6).by_degree
        assert basis_texts(graph, 6) == [[str(t) for t in level] for level in trees]
        path = theta("graph.theta", text)
        code, out, _ = run(capsys, "basis", "--theta", path, "--max-deg", "6")
        assert code == 0
        assert out.splitlines()[:-1] == want
        argv = ["basis", "--theta", path, "--max-deg", "6", "--format", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        listed = [
            f"{e['degree']}\t{e['word']}\t{e['tree']}"
            for e in json.loads(out)["elements"]
        ]
        assert listed == want


def test_basis_builds_no_tree_or_word(capsys, theta, monkeypatch):
    # the listing folds texts: no tree and no word is built, for the
    # elements or for anything else
    from pclie import LieTree, Word

    path = theta("xy_yz.theta", XY_YZ)
    calls = [
        ["basis", "--theta", path, "--max-deg", "7", "--cross-check", "--format", fmt]
        for fmt in ("text", "json")
    ]
    outputs = [run(capsys, *argv) for argv in calls]
    assert "3\txxz\t(x (x z))\n" in outputs[0][1]

    def refuse(*args):
        raise AssertionError("basis built a tree or a word")

    # every tree node is built by LieTree(word), a leaf, or LieTree.pair
    monkeypatch.setattr(LieTree, "__init__", refuse)
    monkeypatch.setattr(LieTree, "pair", refuse)
    monkeypatch.setattr(Word, "__init__", refuse)
    assert [run(capsys, *argv) for argv in calls] == outputs


def test_basis_deep_degree_on_the_abelian_graph(capsys, theta):
    # every pair commutes, so the letters are the whole basis at any degree
    path = theta("abelian3.theta", ABELIAN3)
    argv = ["basis", "--theta", path, "--max-deg", "1200", "--cross-check"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["1\tz\tz", "1\ty\ty", "1\tx\tx"]
    assert lines[-2].startswith("1:3 2:0 ")
    assert lines[-1] == "cross-check: ok"
    code, out, _ = run(capsys, *argv, "--dims-only")
    assert code == 0
    assert out.splitlines() == lines[-2:]


def test_basis_cross_check_json(capsys, theta):
    path = theta("xy_yz.theta", XY_YZ)
    code, out, _ = run(
        capsys,
        "basis", "--theta", path, "--max-deg", "5",
        "--dims-only", "--cross-check", "--format", "json",
    )
    rec = json.loads(out)
    assert code == 0
    assert rec["cross_check"]["ok"] is True
    assert rec["dimensions"] == rec["cross_check"]["series_dims"]


def test_complete(capsys, tmp_path):
    rules = tmp_path / "pair.rules"
    rules.write_text("x > y > z\n(x y)\n(y z)\n", encoding="utf-8")
    code, out, _ = run(capsys, "complete", "--rules", str(rules), "--max-deg", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["[xy]", "[yz]"]
    assert "[xzy]" in lines


def test_complete_refuses_a_degree_bound_below_1(capsys, theta):
    # at --max-deg -3 no ambiguity would be checked and the input rules
    # would be printed as complete
    path = theta("pair.rules", "x > y > z\n(x y)\n(y z)\n")
    code, out, err = run(capsys, "complete", "--rules", path, "--max-deg", "-3")
    assert (code, out) == (2, "")
    assert err == "error: max_deg must be at least 1\n"


def test_missing_file(capsys):
    code, _, err = run(capsys, "verify", "--theta", "/nonexistent.theta", "--max-deg", "4")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "command, name, text, message",
    [
        ("verify", "empty.theta", "# no declaration\n\n", "graph file has no alphabet declaration"),
        ("complete", "empty.rules", "# no declaration\n", "rules file has no alphabet declaration"),
        # the line number counts the comment and blank lines before it
        (
            "verify", "bad.theta", "# c\nx > y > z\n\nx y\n  # more\nx y z\n",
            "line 6: expected two letters, got 'x y z'",
        ),
        ("complete", "zero.rules", "x > y\n(x y)\n(x x)\n", "line 3: rule is zero"),
        ("complete", "none.rules", "x > y\n# none\n\n", "rules file has no rules"),
        ("verify", "letter.theta", "x > y\nx q\n", "line 2: unknown letter 'q'"),
        (
            "verify", "loop.theta", "x > y\ny y\n",
            "line 2: commutation relation must be irreflexive: (y,y)",
        ),
        (
            "complete", "symbol.rules", "x > y\n(x y)\n(x q)\n",
            "line 3: position 3: unknown symbol 'q'",
        ),
        # a letter the expression grammar could not name is refused up front
        ("verify", "digit.theta", "x > 1\nx 1\n", "line 1: bad letter name '1'"),
        # so does an error in the alphabet declaration
        (
            "verify", "decl.theta", "# c\n\nx > > y\n",
            "line 3: malformed alphabet declaration 'x > > y'",
        ),
    ],
)
def test_file_format_errors(capsys, theta, command, name, text, message):
    flag = "--theta" if command == "verify" else "--rules"
    code, out, err = run(capsys, command, flag, theta(name, text), "--max-deg", "4")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["verify", "--max-deg", "4"])  # --theta missing
    assert e.value.code == 2


def test_main_reuses_one_parser(capsys, theta):
    path = theta("xy_yz.theta", XY_YZ)
    calls = [
        ["basis", "--theta", path, "--max-deg", "4", "--format", "json"],
        ["basis", "--theta", path, "--max-deg", "4"],
        ["basis", "--max-deg", "4"],  # --theta missing: usage error
        ["nf", "--theta", path, "--expr", "(x (y z))"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    shared = [outcome(argv) for argv in calls]
    assert build_parser() is build_parser()
    assert [code for code, _, _ in shared] == [0, 0, 2, 0]
    for argv, got in zip(calls, shared):
        build_parser.cache_clear()
        assert outcome(argv) == got


def test_clear_caches_empties_every_cache(capsys, theta):
    # every lru_cache of the algebra modules; the parser cache of cli holds
    # no results and stays
    import importlib

    import pclie

    caches = [
        obj
        for name in ("words", "lie", "rules", "gsb", "quotient", "expr")
        for obj in vars(importlib.import_module(f"pclie.{name}")).values()
        if hasattr(obj, "cache_info")
    ]
    assert len(set(map(id, caches))) == 6
    path = theta("xy_yz.theta", XY_YZ)
    argv = ["verify", "--theta", path, "--max-deg", "6", "--format", "json"]
    code, first, _ = run(capsys, *argv)
    assert code == 0
    # verify no longer expands; fill that cache by hand
    pclie.expand(pclie.bracket(pclie.Alphabet.from_decl("x > y").word("xy")))
    assert all(c.cache_info().currsize for c in caches)
    pclie.clear_caches()
    assert [c.cache_info().currsize for c in caches] == [0] * len(caches)
    assert run(capsys, *argv) == (0, first, "")
