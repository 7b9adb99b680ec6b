"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from cvcloner.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading, language):
    """The first fenced block of one language under a level-2 heading."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


COMMANDS = [shlex.split(line, comments=True)[1:]
            for line in _block("Command line", "sh").splitlines()
            if line.startswith("cvcloner ")]


def test_the_command_line_block_is_found():
    assert len(COMMANDS) == 6


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_line_example_succeeds(monkeypatch, capsys, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    capsys.readouterr()


def test_library_example_runs(capsys):
    exec(_block("Library", "python"), {})
    assert capsys.readouterr().out.count("clone_") == 2
