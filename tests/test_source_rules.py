"""Rules the package source and the demos keep, checked on their syntax tree."""

import ast
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src", "rtgdiag")
DEMOS = os.path.join(ROOT, "demos")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
DEMO_FILES = sorted(name for name in os.listdir(DEMOS) if name.endswith(".py"))


def parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def assert_statement_lines(path):
    return [node.lineno for node in ast.walk(parse(path)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("module", MODULES)
def test_runtime_checks_do_not_rely_on_assert(module):
    # python -O strips assert statements, so a check made with one vanishes
    lines = assert_statement_lines(os.path.join(SRC, module))
    assert lines == [], f"{module}: assert statement on line(s) {lines}"


@pytest.mark.parametrize("demo", DEMO_FILES)
def test_demo_checks_do_not_rely_on_assert(demo):
    # a demo's checks must hold under python -O too, and fail with a message
    lines = assert_statement_lines(os.path.join(DEMOS, demo))
    assert lines == [], f"demos/{demo}: assert statement on line(s) {lines}"


@pytest.mark.parametrize("module", MODULES)
def test_json_output_never_holds_nan_or_infinity(module):
    # json.dumps writes NaN and Infinity by default, and neither is JSON
    lines = [node.lineno for node in ast.walk(parse(os.path.join(SRC, module)))
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "json.dumps"
             and not any(k.arg == "allow_nan" and isinstance(k.value, ast.Constant)
                         and k.value.value is False for k in node.keywords)]
    assert lines == [], f"{module}: json.dumps without allow_nan=False on line(s) {lines}"
