"""A seeded fuzz of the CLI, in process: every call ends in an exit code.

Inputs are fig1's graph JSON with one to three random edits, run as the
``--mutant`` of fig1 or given as ``--graph``, and listing31 with its guard
bounds swapped for huge, overflowing and NaN-folding literals, folded and
unfolded.  Models go through ``run``, ``all`` or ``testability`` by
``cli.main``.  The other JSON inputs get the same edits: fig1's responded
extended and generalized tables read by ``diagnose --table``, and a
``--stimuli`` file read by ``run`` and ``all``.  Every call must return
0-3, and no exception may escape.
"""

import copy
import json
import os
import re
from random import Random

from rtgdiag.cli import main
from rtgdiag.fixtures import LISTING31_SOURCE

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
FIG1 = os.path.join(ROOT, "fixtures", "fig1.rtg.json")
BIG = "9" * 400  # a literal past the float range
BOUNDS = (BIG, f"-{BIG}", f"{BIG} * {BIG}", f"{BIG} - {BIG}", f"0 * {BIG}",
          f"-{BIG} / {BIG}", "179769313486231570" + "0" * 291, "0.000001", "0")
JUNK = (None, True, 0, -1, 1.5, 10 ** 400, float("nan"), float("inf"), "", "x", "R9",
        [], {}, [{"var": "x"}], {"const": 2.0})
STIMULI = {"21₁": {"x": 3.0}, "111₁": {"x": 1.0, "w": 0.5}}
CALLS = 400


def _nodes(doc):
    """Every (container, key) of *doc*'s lists and dicts, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key
        if isinstance(value, (dict, list)) and value:
            yield from _nodes(value)


def mutated(rng: Random, original) -> str:
    """*original* with one to three random edits, as JSON."""
    doc = copy.deepcopy(original)
    for _ in range(rng.randint(1, 3)):
        container, key = rng.choice(list(_nodes(doc)))
        edit = rng.randrange(5)
        if edit == 0:
            container[key] = rng.choice(JUNK)
        elif edit == 1 and isinstance(container, dict):
            del container[key]
        elif edit == 1:
            container.pop(key)
        elif edit == 2 and isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        elif edit == 3 and isinstance(container[key], list):
            container[key] = container[key][:rng.randrange(len(container[key]) + 1)]
        elif isinstance(container[key], (int, float)) and not isinstance(container[key], bool):
            container[key] = rng.choice((container[key] + 1, -container[key], 0, 7))
    return json.dumps(doc)


def swapped_bounds(rng: Random) -> str:
    """listing31 with each guard bound replaced, at random, by one of BOUNDS."""
    guards = re.compile(r"([<>]=? )(2/3\*PI|\d+)\)")
    return guards.sub(lambda m: m[1] + (rng.choice(BOUNDS) if rng.random() < 0.7 else m[2]) + ")",
                      LISTING31_SOURCE)


def test_no_call_escapes_main(capsys, tmp_path):
    rng = Random(41)
    with open(FIG1, encoding="utf-8") as fh:
        fig1 = json.load(fh)
    for n in range(CALLS):
        if n % 4 == 1:  # a mutated graph as the mutant of fig1
            path = tmp_path / f"{n}.rtg.json"
            path.write_text(mutated(rng, fig1), encoding="utf-8")
            argv = ["run", "--graph", FIG1, "--mutant", str(path)]
        else:
            if n % 2:
                path = tmp_path / f"{n}.swl"
                path.write_text(swapped_bounds(rng), encoding="utf-8")
                model = ["--program", str(path)] + ["--unfolded"] * rng.randrange(2)
            else:
                path = tmp_path / f"{n}.rtg.json"
                path.write_text(mutated(rng, fig1), encoding="utf-8")
                model = ["--graph", str(path)]
            argv = [rng.choice(("run", "all", "testability")), *model]
            if argv[0] != "testability":
                argv += ["--fault", rng.choice(("I5:3:op=3", "I1:1:op=2", "I2:2:const=4"))]
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 1, 2, 3), argv


def test_no_table_or_stimuli_call_escapes_main(capsys, tmp_path):
    rng = Random(43)
    tables = []
    for kind, response in (("extended", "0001110000"), ("generalized", "0100")):
        path = tmp_path / f"{kind}.json"
        assert main(["fdt", "--graph", FIG1, "--kind", kind, "--response", response,
                     "--format", "json", "--out", str(path)]) == 0
        tables.append(json.loads(path.read_text(encoding="utf-8")))
    for n in range(CALLS):
        path = tmp_path / f"{n}.json"
        mode, fmt = rng.choice(("strong", "weak")), rng.choice(("text", "json"))
        if n % 2:
            path.write_text(mutated(rng, rng.choice(tables)), encoding="utf-8")
            argv = ["diagnose", "--table", str(path), "--mode", mode, "--format", fmt]
        else:
            path.write_text(mutated(rng, STIMULI), encoding="utf-8")
            argv = [rng.choice(("run", "all")), "--graph", FIG1, "--stimuli", str(path),
                    "--fault", rng.choice(("I5:3:op=3", "I1:1:op=2", "I2:2:const=4"))]
            argv += ["--permissive"] * rng.randrange(2)
            argv += ["--format", fmt] if argv[0] == "run" else ["--mode", mode]
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
