"""The README's command synopsis and library examples run as written."""

import argparse
import re
from pathlib import Path

import pytest

from ncsos import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
CLI_BLOCK = re.search(r"^## CLI\n\n```sh\n(.*?)^```", README, re.M | re.S).group(1)
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
COMMANDS = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def synopsis_tokens(line):
    """A synopsis line's words: the optional parts in brackets are kept, the comment dropped."""
    return line.split("#")[0].replace("[", " ").replace("]", " ").split()


@pytest.mark.parametrize("line", CLI_BLOCK.splitlines(), ids=lambda line: line.split()[1])
def test_every_flag_of_the_cli_synopsis_is_accepted(line):
    # each line is one command
    tokens = synopsis_tokens(line)
    assert tokens[0] == "ncsos"
    args = cli._build_parser().parse_args(tokens[1:])  # a flag it does not know raises UsageError
    assert args.command == tokens[1]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_flag_of_the_parser_is_on_the_cli_synopsis(command):
    lines = [synopsis_tokens(line) for line in CLI_BLOCK.splitlines() if line.split()[1] == command]
    assert len(lines) == 1
    flags = {flag for action in COMMANDS[command]._actions for flag in action.option_strings}
    assert flags - {"-h", "--help"} <= set(lines[0])


def test_library_examples_run_in_order():
    assert len(PYTHON_BLOCKS) == 2
    namespace = {}
    for block in PYTHON_BLOCKS:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["out"].kind == "witness" and namespace["note"] == ""
