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


@pytest.mark.parametrize("module", MODULES)
def test_json_output_never_holds_nan_or_infinity(module):
    # json.dumps writes NaN and Infinity by default, and neither is JSON
    path = os.path.join(SRC, module)
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "json.dumps"
             and not any(k.arg == "allow_nan" and isinstance(k.value, ast.Constant)
                         and k.value.value is False for k in node.keywords)]
    assert lines == [], f"{module}: json.dumps without allow_nan=False on line(s) {lines}"
