"""Rules the package source keeps, checked on its syntax tree."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "rtgdiag")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


@pytest.mark.parametrize("module", MODULES)
def test_runtime_checks_do_not_rely_on_assert(module):
    # python -O strips assert statements, so a check made with one vanishes
    path = os.path.join(SRC, module)
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module}: assert statement on line(s) {lines}"
