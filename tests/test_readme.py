"""Every fenced python block of README.md runs, and prints what its
``# -> ...`` comments say, in order; the caps the README and the ``cli``
docstring name are the caps the CLI reads."""

import os
import re

import pytest

from rtgdiag import cli

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


def cap_names(spec):
    return [part.partition("=")[0] for part in spec.split(",")]


def test_documented_caps_are_the_caps_read(monkeypatch):
    monkeypatch.delenv("RTGDIAG_CAPS", raising=False)
    with open(README, encoding="utf-8") as fh:
        readme = re.findall(r"`RTGDIAG_CAPS=([^`]*)`", fh.read())
    docstring = re.findall(r'RTGDIAG_CAPS \("([^"]*)"\)', cli.__doc__)
    caps = list(cli._caps_from_env())
    assert [cap_names(spec) for spec in readme] == [caps]
    assert [cap_names(spec) for spec in docstring] == [caps]
