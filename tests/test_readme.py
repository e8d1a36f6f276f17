"""The README's command synopsis and library examples run as written."""

import re
from pathlib import Path

import pytest

from ncsos import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
CLI_BLOCK = re.search(r"^## CLI\n\n```sh\n(.*?)^```", README, re.M | re.S).group(1)
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


@pytest.mark.parametrize("line", CLI_BLOCK.splitlines(), ids=lambda line: line.split()[1])
def test_every_flag_of_the_cli_synopsis_is_accepted(line):
    # each line is one command: the optional parts in brackets are kept, the comment dropped
    tokens = line.split("#")[0].replace("[", " ").replace("]", " ").split()
    assert tokens[0] == "ncsos"
    args = cli._build_parser().parse_args(tokens[1:])  # a flag it does not know raises UsageError
    assert args.command == tokens[1]


def test_library_examples_run_in_order():
    assert len(PYTHON_BLOCKS) == 2
    namespace = {}
    for block in PYTHON_BLOCKS:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["out"].kind == "witness" and namespace["note"] == ""
