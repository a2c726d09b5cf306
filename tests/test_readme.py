"""Every ```python block of README.md runs as written."""

import re
from pathlib import Path

import pytest

from spamrank import WorkloadSpec, generate, write_jsonl

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(source, tmp_path, monkeypatch):
    write_jsonl(str(tmp_path / "corpus.jsonl"), generate(WorkloadSpec(n_messages=300)))
    monkeypatch.chdir(tmp_path)
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
