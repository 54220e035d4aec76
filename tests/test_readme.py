"""The README's examples run: the library example prints what its comments say,
and the CLI commands succeed on the README's variety document.

Run as a script, ``python tests/test_readme.py PATH`` writes that document to
PATH, so the installed ``hsprolong`` console script can be run on it.
"""

import contextlib
import io
import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block() -> str:
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return block


def cli_document() -> str:
    """The README's variety document: the unlabelled block that starts with ``char``."""
    (doc,) = re.findall(r"^```\n(char .*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    return doc


def test_library_example_prints_its_comments():
    block = _python_block()
    expected = [line.rsplit("  # ", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert expected and out.getvalue().splitlines() == expected


def test_cli_runs_on_the_readme_document(tmp_path, capsys):
    from hsprolong import cli

    doc = tmp_path / "doc.txt"
    doc.write_text(cli_document(), encoding="utf-8")
    for command in ("prolong", "nabla"):
        assert cli.main([command, "--order", "2", str(doc)]) == 0
    captured = capsys.readouterr()
    assert captured.out and not captured.err


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(cli_document(), encoding="utf-8")
