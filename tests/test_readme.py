import contextlib
import io
import pathlib
import re
import shlex

from pclie.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_and_prints_zero():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(blocks[0], {})
    assert out.getvalue() == "0\n"


def test_cli_example_comments_are_the_outputs(capsys, tmp_path, monkeypatch):
    # the example files are written under the names the README gives them,
    # and each pclie line's comment is its output, lines joined by " / "
    text = README.read_text(encoding="utf-8")
    for name in ("star.theta", "pair.rules"):
        (body,) = re.findall(rf"`{re.escape(name)}`:\n\n```\n(.*?)```", text, re.S)
        (tmp_path / name).write_text(body, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lines = re.findall(r"^pclie (.*?)\s+# (.*)$", text, re.M)
    assert len(lines) == 9
    for command, comment in lines:
        code = main(shlex.split(command))
        out = capsys.readouterr().out
        assert (code, " / ".join(out.splitlines())) == (0, comment), command
