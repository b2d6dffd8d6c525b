"""README's examples run as written: the library quick start and every
``relaycache`` line of the CLI block."""

import re
import shlex
from pathlib import Path

import pytest

from relaycache.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


CLI_LINES = [shlex.split(line, comments=True) for line in block("CLI", "sh").splitlines()]


def test_library_quick_start_runs():
    exec(compile(block("Library quick start", "python"), "README.md", "exec"), {})


@pytest.mark.parametrize("argv", CLI_LINES, ids=" ".join)
def test_cli_example_exits_0(argv, tmp_path, monkeypatch, capsys):
    assert argv[0] == "relaycache"
    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == 0
