"""Runtime tracing of rtgdiag from outside the package.

``Tracer.install`` replaces each layer module's public functions with
wrappers, patching every rtgdiag module namespace that holds the function
(so ``cli`` calling ``testsynth.build_complete_test`` and ``frontend``
calling its imported ``merge_equivalent_ribs`` both reach a wrapper).
Stage functions record a span (name, start, end, parent, op id); the hot
inner functions only count calls.  Spans stay in memory until ``dump``.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "frontend", "rtg", "testsynth", "simulator", "fdt", "diagnosis")

#: Called per term or per path; a span each would dominate the trace.
COUNT_ONLY = {"simulator.execute_path", "simulator.pick_stimulus", "simulator.path_reads"}
#: Pure helpers (sort keys, label glyphs, name supply): left unwrapped, so
#: their cost stays in the caller's self time.
SKIP = {"rtg.natural_key", "rtg.subscript", "frontend.fresh_names"}


def _count_hooks():
    """name -> (counter, how, f(result, args)) recorded after the call."""
    def statements(g):
        return sum({r.fragment: len(r.statements) for r in g.ribs}.values())
    return {
        "rtg.loads_graph": ("rtg.ribs", max, lambda r, a: len(r.ribs)),
        "rtg.validate_graph": ("rtg.ribs", max, lambda r, a: len(a[0].ribs)),
        "frontend.build_rtg": ("frontend.statements", max, lambda r, a: statements(r[0])),
        "testsynth.enumerate_paths": ("testsynth.paths", max, lambda r, a: len(r)),
        "testsynth.build_complete_test": ("testsynth.terms", max, lambda r, a: len(r.terms)),
        "fdt.build_extended_fdt": ("fdt.rows", max, lambda r, a: len(r.rows)),
        "fdt.attach_response": ("fdt.rows", max, lambda r, a: len(r.rows)),
        "fdt.render_table": ("fdt.render_bytes", sum, lambda r, a: len(r.encode())),
        "diagnosis.build_cnf": ("diagnosis.clauses", max, lambda r, a: len(r)),
        "diagnosis.cnf_to_min_dnf": ("diagnosis.dnf_terms", max, lambda r, a: len(r.terms)),
        "diagnosis.diagnose": ("diagnosis.fprime_statements", max,
                               lambda r, a: len(r.suspects())),
    }


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.op = None  # current op id; None means "not recording"
        self.counts: dict = defaultdict(dict)  # op -> counter -> value
        self.executions: dict = defaultdict(set)  # op -> distinct (graph, path, env)
        self._stack: list[int] = []
        self._patches: list = []  # (module, attribute, original)

    # --- installation ---------------------------------------------------------
    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "rtgdiag" or name.startswith("rtgdiag.")]
        hooks = _count_hooks()
        for layer in LAYERS:
            module = importlib.import_module(f"rtgdiag.{layer}")
            for attr, fn in sorted(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or name in SKIP):
                    continue
                if name in COUNT_ONLY:
                    wrapper = self._counter(name, fn)
                else:
                    wrapper = self._spanner(name, fn, hooks.get(name))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patches.append((m, key, fn))
                            setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patches):
            setattr(module, key, fn)
        self._patches.clear()

    def _spanner(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if hook is not None:
                counter, how, measure = hook
                counts = self.counts[self.op]
                value = measure(result, args)
                counts[counter] = how((counts[counter], value)) if counter in counts else value
            return result
        return wrapper

    def _counter(self, name, fn):
        calls = f"{name}.calls"
        executions = name == "simulator.execute_path"

        def wrapper(*args, **kwargs):
            if self.op is not None:
                counts = self.counts[self.op]
                counts[calls] = counts.get(calls, 0) + 1
                if executions:
                    g, p, s = args[:3]
                    self.executions[self.op].add((id(g), p.label, tuple(sorted(s.env.items()))))
            return fn(*args, **kwargs)
        return wrapper

    # --- results ----------------------------------------------------------------
    def per_op(self) -> dict:
        """op id -> metric name -> value for every recorded op."""
        child = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            row = out[op]
            layer = name.split(".", 1)[0]
            row[f"{name}.s"] += end - start
            row[f"{layer}.self_s"] += end - start - child[i]
        for op, counts in self.counts.items():
            out[op].update(counts)
        for op, distinct in self.executions.items():
            out[op]["simulator.useful_exec_ratio"] = (
                len(distinct) / out[op]["simulator.execute_path.calls"])
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def medians(rows: list[dict], names) -> dict[str, float]:
    """Median over ops of each metric; an op that never reached a function
    contributes 0 for it."""
    return {n: statistics.median(r.get(n, 0.0) for r in rows) for n in names}
