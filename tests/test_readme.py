"""The command examples of README.md's "Command line" section run as
written: each exits 0, and where its comment starts with a value, the
command prints exactly that value."""
from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

import pytest

from tautrings.cli import _build_parser, run

README = Path(__file__).resolve().parent.parent / "README.md"
# a comment that starts with a value: integers or fractions, space-separated
VALUE = re.compile(r"-?\d+(?:/\d+)?(?: -?\d+(?:/\d+)?)*")


def _examples():
    """(argv, expected output or None) for each `tautrings` line of the
    first code block after "## Command line".  A line that starts with
    neither `tautrings` nor `#` continues the quoted argument of the line
    before it; a line that starts with `#` continues its comment."""
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = text.split("```", 2)[1]
    examples = []
    for line in block.splitlines():
        stripped = line.strip()
        if stripped.startswith("tautrings "):
            command, _, comment = stripped.partition(" # ")
            examples.append([command.strip(), comment.strip()])
        elif stripped and not stripped.startswith("#"):
            examples[-1][0] += stripped
    out = []
    for command, comment in examples:
        value = VALUE.match(comment)
        out.append((shlex.split(command)[1:], value.group() if value else None))
    return out


EXAMPLES = _examples()


def test_readme_has_an_example_of_every_command():
    commands = next(action.choices for action in _build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert {argv[0] for argv, _ in EXAMPLES} == set(commands)


@pytest.mark.parametrize("argv, expected", EXAMPLES,
                         ids=[f"{i:02d}-{argv[0]}" for i, (argv, _) in enumerate(EXAMPLES)])
def test_readme_example_runs(argv, expected, capsys):
    assert run(argv) == 0, argv
    out = capsys.readouterr().out
    assert out.strip(), argv
    if expected is not None:
        assert out.strip() == expected, argv
