"""Spans around the public functions of the ``skg`` layers.

The tracer wraps functions from the outside: it replaces each target in
every ``skg`` module namespace that holds it (and ``Env`` methods on the
class), records one span per call, and puts the originals back on
``uninstall``.  Nothing in ``src/skg`` knows about it.

A span is (name, parent span, benchmark operation, start, end).  While a
span is open, its target is swapped back to the original in the module
or class that defines it, so direct self-recursion (``Env.occurs``
walking a deep structure, ``render`` descending a value) runs at full
speed and the span stands for the outermost call.

Spans live in typed arrays.  ``fold`` adds the spans recorded so far to
the per-layer sums and clears them, so memory stays at one round of
spans; the first folded spans are kept and ``write`` puts them on disk
at the end of the run.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

# (span name, module, attribute); "Env.x" names a method of skg.avm.Env
TARGETS = (
    ("avm.unify", "skg.avm", "Env.unify"),
    ("avm.occurs", "skg.avm", "Env.occurs"),
    ("avm.resolve", "skg.avm", "Env.resolve"),
    ("avm.instantiate", "skg.avm", "Env.instantiate"),
    ("avm.normalize", "skg.avm", "normalize"),
    ("avm.render", "skg.avm", "render"),
    ("grammar.load", "skg.grammar", "load_grammar"),
    ("kernel.sk_of", "skg.kernel", "sk_of"),
    ("generator.generate", "skg.generator", "generate"),
    ("baseline.generate_shdg", "skg.baseline", "generate_shdg"),
    ("parser.parse", "skg.parser", "parse"),
    ("parser.check_output", "skg.parser", "check_output"),
    ("parser.left_corner_table", "skg.parser", "left_corner_table"),
    ("cli.main", "skg.cli", "main"),
)
NAMES = tuple(name for name, _, _ in TARGETS)
LAYERS = ("avm", "grammar", "kernel", "generator", "baseline", "parser", "cli")
SEARCH_SPANS = frozenset(("generator.generate", "baseline.generate_shdg",
                          "parser.parse"))

# per-layer metric -> span name, for call counts and for summed durations
CALL_METRICS = {
    "avm.unify_calls": "avm.unify",
    "avm.normalize_calls": "avm.normalize",
    "kernel.sk_of_calls": "kernel.sk_of",
    "parser.parse_calls": "parser.parse",
    "parser.left_corner_table_calls": "parser.left_corner_table",
}
TIME_METRICS = {
    "avm.unify_s": "avm.unify",
    "avm.occurs_s": "avm.occurs",
    "avm.resolve_s": "avm.resolve",
    "avm.instantiate_s": "avm.instantiate",
    "avm.normalize_s": "avm.normalize",
    "avm.render_s": "avm.render",
    "kernel.sk_of_s": "kernel.sk_of",
    "generator.generate_s": "generator.generate",
    "parser.parse_s": "parser.parse",
    "parser.check_output_s": "parser.check_output",
    "parser.left_corner_table_s": "parser.left_corner_table",
    "baseline.generate_shdg_s": "baseline.generate_shdg",
    "cli.main_s": "cli.main",
}


def _observe_generate(counters, result):
    counters["derivations"] += len(result.outputs)
    counters["surfaces"] += len(set(result.surfaces))
    counters["steps"] += result.steps_used


def _observe_steps(counters, result):
    counters["steps"] += result.steps_used


OBSERVERS = {
    "generator.generate": _observe_generate,
    "baseline.generate_shdg": _observe_steps,
    "parser.parse": _observe_steps,
}


class Tracer:
    def __init__(self):
        self.current_op = -1
        self.counters = Counter()   # results: derivations, surfaces, steps
        self.sums = Counter()       # folded span figures
        self.loads = []             # durations of every load_grammar call
        self.kept = None
        self._installed = []        # (owner, attribute, original)
        self._clear()

    def _clear(self):
        self.name = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    # -- recording ------------------------------------------------------------

    def _call(self, name_id, fn, args, kwargs):
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = perf_counter()
            self.start[index] = start
            self.stack.pop()

    def _wrapper(self, name_id, owner, attribute, fn):
        call = self._call
        observe = OBSERVERS.get(NAMES[name_id])
        counters = self.counters

        def traced(*args, **kwargs):
            setattr(owner, attribute, fn)
            try:
                result = call(name_id, fn, args, kwargs)
            finally:
                setattr(owner, attribute, traced)
            if observe is not None:
                observe(counters, result)
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def install(self):
        homes = [importlib.import_module(module_name)
                 for _, module_name, _ in TARGETS]
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "skg" or n.startswith("skg.")]
        for name_id, (home, (_, _, attribute)) in enumerate(zip(homes, TARGETS)):
            if attribute.startswith("Env."):
                method = attribute[4:]
                original = getattr(home.Env, method)
                self._installed.append((home.Env, method, original))
                setattr(home.Env, method,
                        self._wrapper(name_id, home.Env, method, original))
                continue
            original = getattr(home, attribute)
            wrapper = self._wrapper(name_id, home, attribute, original)
            for module in modules:
                if module.__dict__.get(attribute) is original:
                    self._installed.append((module, attribute, original))
                    setattr(module, attribute, wrapper)

    def uninstall(self):
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    # -- analysis -------------------------------------------------------------

    def fold(self):
        """Add the recorded spans to the sums and start a fresh set.

        Spans made outside any benchmark operation (the set-up grammar
        load) count only towards ``grammar.load_s``, which is per call.
        A span's self time is its duration minus that of its children; a
        layer's total time counts only spans whose parent is in another
        layer.
        """
        names = [NAMES[i] for i in self.name]
        duration = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(duration)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += duration[i]
        sums = self.sums
        for i, name in enumerate(names):
            if name == "grammar.load":
                self.loads.append(duration[i])
            if self.op[i] < 0:
                continue
            layer = name.split(".", 1)[0]
            p = self.parent[i]
            sums[name + ":calls"] += 1
            sums[name + ":s"] += duration[i]
            sums[layer + ".calls"] += 1
            sums[layer + ".self_s"] += duration[i] - child[i]
            if p < 0 or not names[p].startswith(layer + "."):
                sums[layer + ".total_s"] += duration[i]
            if name in SEARCH_SPANS:
                while p >= 0 and names[p] not in SEARCH_SPANS:
                    p = self.parent[p]
                if p < 0:
                    sums["search_s"] += duration[i]
        if self.kept is None:
            self.kept = (self.name, self.parent, self.op, self.start, self.end)
        self._clear()

    def metrics(self, rounds: int) -> dict:
        """Per-layer figures per traced round: {name: (value, unit)}."""
        r = max(rounds, 1)
        sums, c = self.sums, self.counters
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (sums[layer + ".calls"] / r, "count")
            out[f"{layer}.total_s"] = (sums[layer + ".total_s"] / r, "s")
            out[f"{layer}.self_s"] = (sums[layer + ".self_s"] / r, "s")
        for key, name in CALL_METRICS.items():
            out[key] = (sums[name + ":calls"] / r, "count")
        for key, name in TIME_METRICS.items():
            out[key] = (sums[name + ":s"] / r, "s")
        out["grammar.load_s"] = (
            sum(self.loads) / len(self.loads) if self.loads else 0.0, "s")
        out["generator.derivations"] = (c["derivations"] / r, "count")
        out["generator.surfaces"] = (c["surfaces"] / r, "count")
        out["generator.surfaces_per_derivation"] = (
            c["surfaces"] / c["derivations"] if c["derivations"] else 0.0, "ratio")
        out["search.steps"] = (c["steps"] / r, "count")
        out["search.steps_per_s"] = (
            c["steps"] / sums["search_s"] if sums["search_s"] else 0.0, "1/s")
        return out

    def write(self, path):
        """Write the kept spans as gzipped tab-separated lines, times from the first."""
        name, parent, op, start, end = self.kept or ((),) * 5
        t0 = start[0] if start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(len(start)):
                handle.write(f"{i}\t{parent[i]}\t{op[i]}\t{NAMES[name[i]]}\t"
                             f"{start[i] - t0:.9f}\t{end[i] - t0:.9f}\n")
