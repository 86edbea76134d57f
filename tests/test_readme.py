"""The README's library quick start runs as written."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_the_two_python_blocks():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("k", range(len(BLOCKS)))
def test_readme_python_block_runs_and_prints_numbers(k, capsys):
    # each block alone, in a fresh namespace, under the suite's
    # warnings-as-errors; every line it prints is one finite number
    exec(compile(BLOCKS[k], f"README.md python block {k}", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed
    assert all(abs(float(line)) < float("inf") for line in printed)
