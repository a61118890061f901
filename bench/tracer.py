"""Spans around the public functions of each artin module, from outside.

``Tracer.install`` wraps every public function defined in the layer
modules, plus ``Word.from_text``, and rebinds each wrapper wherever the
original is bound in an ``artin`` module: ``big_chunks``, for example,
is imported into ``cli``, ``splitting``, ``gog`` and ``invariants``, and
a call through any of those names must open a span. Spans stay in memory
as (id, name, start, end, parent id, operation id) until the run writes
them out. A few wrapped functions also feed size counters; the time spent
counting is recorded as a ``trace.count`` child span so that it is not
charged to the caller's self time.
"""

from __future__ import annotations

import collections
import functools
import gzip
import inspect
import json
import sys
import time

LAYERS = ("cli", "graphs", "splitting", "gog", "presentations", "dihedral", "invariants", "words")

# Functions whose self time is a per-layer metric, named module.function.
SELF_TIMES = (
    "cli.main",
    "graphs.big_chunks",
    "graphs.retract_word",
    "graphs.parse_graph",
    "graphs.canonical_form",
    "graphs.classify_chunk",
    "splitting.splits_over_cyclic",
    "gog.build_jsj",
    "gog.collapse_jsj",
    "gog.dihedral_jsj",
    "presentations.smith_normal_form",
    "presentations.gog_presentation",
    "presentations.simplify_identifications",
    "presentations.artin_presentation",
    "presentations.abelianize",
    "dihedral.normal_form",
    "words.Word.from_text",
    "words.alternating",
    "invariants.profile",
    "invariants.compare",
    "invariants.aut_acylindrically_hyperbolic",
)

# Counters and derived values: name -> unit.
COUNTERS = {
    "graphs.big_chunks.calls": "count",
    "graphs.canonical_form.calls": "count",
    "graphs.canonical_form.refused": "count",
    "graphs.vertices": "count",
    "graphs.edges": "count",
    "graphs.chunks": "count",
    "graphs.max_chunk_vertices": "count",
    "gog.vertices": "count",
    "gog.edges": "count",
    "presentations.snf_rows": "count",
    "presentations.snf_cols": "count",
    "presentations.generators_eliminated": "count",
    "presentations.relators": "count",
    "presentations.relator_letters": "count",
    "presentations.letters_per_nonzero": "letters/entry",
    "dihedral.letters": "count",
    "dihedral.normal_form.ns_per_letter": "ns/letter",
    "words.alternating.letters": "count",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_frac": "frac",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {_self_name(name): "s" for name in SELF_TIMES}
    units.update(COUNTERS)
    return units


def _self_name(span: str) -> str:
    return "cli.self_s" if span == "cli.main" else f"{span}.self_s"


def _count_presentation(c, args, result):
    c["presentations.relators"] += len(result.relators)
    c["presentations.relator_letters"] += sum(len(r.letters) for r in result.relators)


def _count_abelianize(c, args, result):
    for rel in args[0].relators:
        sums: dict[str, int] = {}
        for name, exp in rel.letters:
            sums[name] = sums.get(name, 0) + exp
        c["abelianized_letters"] += len(rel.letters)
        c["abelianized_nonzero"] += sum(1 for e in sums.values() if e)


def _count_gog(c, args, result):
    c["gog.vertices"] += len(result.vertices)
    c["gog.edges"] += len(result.edges)


def _count_big_chunks(c, args, result):
    c["graphs.chunks"] += len(result.chunks)
    biggest = max(len(ch.vertices) for ch in result.chunks)
    c["graphs.max_chunk_vertices"] = max(c["graphs.max_chunk_vertices"], biggest)


def _count_graph(c, args, result):
    c["graphs.vertices"] += len(result.vertices)
    c["graphs.edges"] += len(result.edges)


def _count_snf(c, args, result):
    matrix = args[0]
    c["presentations.snf_rows"] += len(matrix)
    c["presentations.snf_cols"] += len(matrix[0]) if matrix else 0


def _count_simplify(c, args, result):
    c["presentations.generators_eliminated"] += len(args[0].generators) - len(result.generators)


def _count_normal_form(c, args, result):
    c["dihedral.letters"] += args[1].syllable_length()


def _count_alternating(c, args, result):
    c["words.alternating.letters"] += args[2]


COUNT_HOOKS = {
    "graphs.parse_graph": _count_graph,
    "graphs.big_chunks": _count_big_chunks,
    "gog.build_jsj": _count_gog,
    "gog.collapse_jsj": _count_gog,
    "gog.dihedral_jsj": _count_gog,
    "presentations.smith_normal_form": _count_snf,
    "presentations.simplify_identifications": _count_simplify,
    "presentations.artin_presentation": _count_presentation,
    "presentations.gog_presentation": _count_presentation,
    "presentations.abelianize": _count_abelianize,
    "dihedral.normal_form": _count_normal_form,
    "words.alternating": _count_alternating,
}

COUNT_SPAN = "trace.count"


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters = collections.Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        hook = COUNT_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                self.counters[f"{name}.raised.{type(err).__name__}"] += 1
                raise
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append((span, name, start, end, parent, self.op_id))
            if hook is not None:
                hook(self.counters, args, result)
                self.spans.append((-1, COUNT_SPAN, end, clock(), parent, self.op_id))
            return result

        return wrapper

    def install(self):
        """Wrap the public functions of every layer and rebind them everywhere."""
        modules = {n: m for n, m in sys.modules.items() if n == "artin" or n.startswith("artin.")}
        for layer in LAYERS:
            module = modules[f"artin.{layer}"]
            for attr, fn in vars(module).copy().items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for mod in modules.values():
                    for name, value in vars(mod).copy().items():
                        if value is fn:
                            self._bind(mod, name, wrapper)
        word = modules["artin.words"].Word
        original = word.__dict__["from_text"]
        self._bind(word, "from_text", classmethod(self._wrap("words.Word.from_text", original.__func__)))

    def _bind(self, owner, name: str, value):
        self._bindings.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._bindings):
            setattr(owner, name, original)
        self._bindings.clear()

    def pass_metrics(self, op_ids: range) -> dict[str, float]:
        """Per-layer metrics over the spans of the given operations."""
        ops = set(op_ids)
        spans = [s for s in self.spans if s[5] in ops]
        child_time: dict[int, float] = {}
        for _, _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span, name, start, end, _, _ in spans:
            if span < 0:
                continue
            self_time[name] = self_time.get(name, 0.0) + end - start - child_time.get(span, 0.0)
            calls[name] = calls.get(name, 0) + 1
        out = {_self_name(name): self_time.get(name, 0.0) for name in SELF_TIMES}
        out["graphs.big_chunks.calls"] = calls.get("graphs.big_chunks", 0)
        out["graphs.canonical_form.calls"] = calls.get("graphs.canonical_form", 0)
        return out

    def take_counters(self) -> collections.Counter:
        counters, self.counters = self.counters, collections.Counter()
        return counters

    def write(self, path: str):
        """Write the spans as JSON lines: id, name, start, end, parent, operation."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(times: dict[str, float], counters: collections.Counter) -> dict[str, float]:
    """Combine one pass's span metrics and counters into the reported values."""
    out = {name: counters[name] for name in COUNTERS}
    out.update(times)
    out["graphs.canonical_form.refused"] = counters["graphs.canonical_form.raised.GraphTooLargeError"]
    nonzero = counters["abelianized_nonzero"]
    out["presentations.letters_per_nonzero"] = (
        counters["abelianized_letters"] / nonzero if nonzero else 0.0
    )
    letters = counters["dihedral.letters"]
    out["dihedral.normal_form.ns_per_letter"] = (
        1e9 * times["dihedral.normal_form.self_s"] / letters if letters else 0.0
    )
    return out
