"""Rules the package source and the demos keep, checked on their syntax tree."""

import ast
import inspect
import os

import pytest

import rtgdiag

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


def _memo_uses(tree):
    """Lines naming functools.cache or functools.lru_cache, other than the
    assignment of ``_parser``."""
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names if alias.name in ("cache", "lru_cache")}
    allowed = {id(n) for node in ast.walk(tree) if isinstance(node, ast.Assign)
               and [ast.unparse(t) for t in node.targets] == ["_parser"]
               for n in ast.walk(node)}
    return [node.lineno for node in ast.walk(tree) if id(node) not in allowed and (
        isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.Attribute) and ast.unparse(node) in (
            "functools.cache", "functools.lru_cache"))]


@pytest.mark.parametrize("module", MODULES)
def test_no_process_wide_memo(module):
    # a derived view lives on the object it derives from, so memory cannot
    # grow with the distinct inputs of a long process; cli._parser is the one
    # process-wide memo (one argument parser)
    lines = _memo_uses(parse(os.path.join(SRC, module)))
    assert lines == [], f"{module}: functools.cache or lru_cache on line(s) {lines}"


def test_the_memo_rule_sees_a_cache():
    tree = ast.parse("import functools\nfrom functools import lru_cache as lc\n"
                     "@lc(maxsize=None)\ndef f(): pass\ng = functools.cache(f)\n"
                     "_parser = functools.cache(f)\n")
    assert _memo_uses(tree) == [3, 5]


#: (object, key) of the only state the package keeps in an instance's own
#: attributes behind its class: a rib's compiled form
INSTANCE_STATE = {("rib", "_compiled")}


def _instance_state(tree):
    """(line, object, key) of each ``X.__dict__[key]``,
    ``X.__dict__.setdefault(key, ...)`` and ``object.__setattr__(X, key, ...)``
    whose key is a constant."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute) \
                and node.value.attr == "__dict__":
            obj, key = node.value.value, node.slice
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.args:
            owner = node.func.value
            if node.func.attr == "setdefault" and isinstance(owner, ast.Attribute) \
                    and owner.attr == "__dict__":
                obj, key = owner.value, node.args[0]
            elif ast.unparse(node.func) == "object.__setattr__" and len(node.args) > 1:
                obj, key = node.args[:2]
            else:
                continue
        else:
            continue
        if isinstance(key, ast.Constant):
            out.append((node.lineno, ast.unparse(obj), key.value))
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_hidden_instance_state(module):
    # state written into an object's own attributes behind its class is
    # kept for one purpose only: one compiled form per rib; a second cache
    # of the same results would go stale or double the memory
    found = [(line, obj, key) for line, obj, key in _instance_state(
        parse(os.path.join(SRC, module))) if (obj, key) not in INSTANCE_STATE]
    assert found == [], f"{module}: instance state outside {sorted(INSTANCE_STATE)}: {found}"


def test_the_instance_state_rule_sees_each_form():
    tree = ast.parse("g.__dict__['_memo'] = {}\nx = g.__dict__.setdefault('_memo', {})\n"
                     "object.__setattr__(rib, '_other', 1)\ng.__dict__[name] = 1\n"
                     "golden.__dict__['_run_plan'] = p\nobject.__setattr__(rib, '_compiled', c)\n")
    assert _instance_state(tree) == [(1, "g", "_memo"), (2, "g", "_memo"),
                                     (3, "rib", "_other"), (5, "golden", "_run_plan"),
                                     (6, "rib", "_compiled")]


#: Public functions and classes that no module of the package loads, each
#: with why it stays public; the list may only shrink
UNREACHED_PUBLIC = {
    "execute_program": "benchmark entry point: runs a parsed program on one stimulus",
    "mutation_catalogue": "benchmark entry point: the campaign's mutants of a graph",
    "verify_minimal_insertions": "exhaustive check of the observation plan; moves when the "
                                 "plan is redefined",
}


def _loaded_names(tree):
    """Every name that *tree* loads as a ``Name`` or as an ``Attribute``."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_public_route_is_reached_or_listed():
    # a public function or class that only tests call is a second route to
    # keep; it belongs in tests/reference.py unless listed with a reason
    loaded = set().union(*(_loaded_names(parse(os.path.join(SRC, module)))
                           for module in MODULES if module != "__init__.py"))
    routes = {name for name in rtgdiag.__all__
              if inspect.isfunction(obj := getattr(rtgdiag, name))
              or inspect.isclass(obj) and not issubclass(obj, BaseException)}
    assert routes - loaded == set(UNREACHED_PUBLIC)


def test_the_reach_rule_sees_loads_only():
    tree = ast.parse('"""run_suite in a docstring"""\nx = build_rtg(g)\n'
                     "y = simulator.inject_fault\ndef diagnose(): pass\n"
                     "store.attach_response = 1\n")
    assert _loaded_names(tree) == {"build_rtg", "g", "simulator", "inject_fault", "store"}


#: Builders of a whole table's text or JSON document
WHOLE_TABLE = {"render_table", "dumps_table", "table_to_json"}


def test_the_cli_streams_tables():
    # the CLI writes a table a block at a time through fdt.table_text and
    # fdt.table_json, so it holds at most one path block's text at a time
    loaded = _loaded_names(parse(os.path.join(SRC, "cli.py")))
    assert loaded & WHOLE_TABLE == set()


def _step_unpackers(tree):
    """Names of the functions in *tree* that unpack a compiled step,
    (target, operation, operands, ordinal), into four names: as a ``for``
    target, a comprehension target or an assignment target."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, (ast.For, ast.comprehension)):
                targets = [node.target]
            else:
                targets = node.targets if isinstance(node, ast.Assign) else []
            if any(isinstance(t, ast.Tuple) and len(t.elts) == 4 for t in targets):
                found.add(fn.name)
    return found


def test_the_simulator_has_one_step_loop():
    # execute_path, the cold walk, the warm route and the golden
    # environments all run their statements through simulator._run; a
    # second step loop would be a second semantics to keep in step
    assert _step_unpackers(parse(os.path.join(SRC, "simulator.py"))) == {"_run"}


def test_the_step_rule_sees_each_unpacking():
    tree = ast.parse("def _run(steps):\n    for target, fn, operands, ordinal in steps: pass\n"
                     "def _walk(steps):\n    t, f, o, n = steps[0]\n"
                     "def _other(steps):\n    return [fn for _, fn, _, _ in steps]\n"
                     "def _form(rib):\n    steps, reads, assigns = rib\n")
    assert _step_unpackers(tree) == {"_run", "_walk", "_other"}
