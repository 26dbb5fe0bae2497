"""Every fenced python block of README.md runs, and prints what its
``# -> ...`` comments say, in order."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(__file__), "..", "README.md")
BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
EXPECT = re.compile(r"#\s*->\s*(.*)$")


def python_blocks():
    with open(README, encoding="utf-8") as fh:
        return BLOCK.findall(fh.read())


def test_readme_has_python_blocks():
    assert python_blocks()


@pytest.mark.parametrize("block", python_blocks(),
                         ids=lambda block: block.splitlines()[-1][:40])
def test_readme_python_block(block, capsys):
    expected = [m.group(1).strip() for m in map(EXPECT.search, block.splitlines()) if m]
    exec(compile(block, README, "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
