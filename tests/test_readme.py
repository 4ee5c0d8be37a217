"""README.md's python examples, executed as written, and its INI blocks, parsed."""

import re
import shutil
from pathlib import Path

import pytest

from fedbench import parse_config

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
EXAMPLES = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
INI_BLOCKS = re.findall(r"^```ini\n(.*?)^```", README, re.M | re.S)


def test_readme_has_examples():
    assert len(EXAMPLES) >= 2
    assert INI_BLOCKS


@pytest.mark.parametrize("source", EXAMPLES, ids=[f"example{i}" for i in range(len(EXAMPLES))])
def test_readme_example_runs(source, tmp_path, monkeypatch):
    # The first example reads exp.ini from the working directory.
    shutil.copy(ROOT / "configs" / "quick.ini", tmp_path / "exp.ini")
    monkeypatch.chdir(tmp_path)
    exec(compile(source, "README.md", "exec"), {})


@pytest.mark.parametrize("text", INI_BLOCKS, ids=[f"ini{i}" for i in range(len(INI_BLOCKS))])
def test_readme_ini_block_parses(text, tmp_path):
    # A block that shows a removed or misspelt key fails here.
    path = tmp_path / "exp.ini"
    path.write_text(text)
    assert parse_config(path)
