"""Every ```python block of README.md runs as written, and every
`spamrank` line of its CLI block parses with the CLI's own parser."""

import re
import shlex
from pathlib import Path

import pytest

from spamrank import WorkloadSpec, generate, write_jsonl
from spamrank.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
CLI_BLOCK = re.search(r"^## CLI\n.*?^```\n(.*?)^```", TEXT, re.M | re.S).group(1)
CLI_LINES = [line for line in CLI_BLOCK.splitlines() if line.startswith("spamrank ")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(source, tmp_path, monkeypatch):
    write_jsonl(str(tmp_path / "corpus.jsonl"), generate(WorkloadSpec(n_messages=300)))
    monkeypatch.chdir(tmp_path)
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_readme_has_cli_lines():
    assert CLI_LINES


@pytest.mark.parametrize("line", CLI_LINES, ids=[f"cli{i}" for i in range(len(CLI_LINES))])
def test_readme_cli_line_parses(line):
    # parsed, not run: the block as written takes tens of seconds
    build_parser().parse_args(shlex.split(line)[1:])
