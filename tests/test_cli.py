import json
import sys

import pytest

from pclie.cli import build_parser, main

STAR3 = "x > y > z\nx y\nx z\n"
ABELIAN2 = "x > y\nx y\n"
XZ = "x > y > z\nx z\n"
XY_YZ = "x > y > z\nx y\ny z\n"


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


def test_bracket_too_deep_exits_2(capsys):
    # the tree algorithms recurse about once per letter.  With the default
    # limit it takes a word of about 600 letters, and seconds of work, to
    # get there; a lowered limit shows the same path on 151 letters
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        code, out, err = run(capsys, "bracket", "--alphabet", "x > y", "x" + "y" * 150)
    finally:
        sys.setrecursionlimit(old)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.rstrip().endswith("too deep")


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
    assert len(set(map(id, caches))) == 5
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
