"""README.md's python examples, executed as written."""

import re
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_has_examples():
    assert len(EXAMPLES) >= 2


@pytest.mark.parametrize("source", EXAMPLES, ids=[f"example{i}" for i in range(len(EXAMPLES))])
def test_readme_example_runs(source, tmp_path, monkeypatch):
    # The first example reads exp.ini from the working directory.
    shutil.copy(ROOT / "configs" / "quick.ini", tmp_path / "exp.ini")
    monkeypatch.chdir(tmp_path)
    exec(compile(source, "README.md", "exec"), {})
