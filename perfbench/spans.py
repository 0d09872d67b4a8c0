"""Tracing from outside the package: spans around calls into each layer.

``Tracer.enable`` replaces selected public functions of ``besmin`` in
every ``besmin`` module namespace that binds them, and ``Tracer.disable``
puts the originals back.  Both cross-module calls (``cli`` calling
``build_graph``) and the layer boundaries inside a module (``minimize``
calling ``bisimilar``) are recorded.  Recursive
helpers (``format_formula``, ``occ``, ``eval_formula``) and per-element
helpers (``rank``, ``formula_key``) are left alone; their time is self
time of the traced caller.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

# Layer (module) -> functions traced in it.
TRACED = {
    "parse": ("parse_bes",),
    "syntax": ("ranks", "print_bes", "is_closed"),
    "build": ("build_graph", "reduce_graph", "normalise_graph"),
    "graph": ("minimize", "bisimilar", "translate", "serialize_graph"),
    "solve": ("solve_gauss", "solve_recursive"),
    "verify": ("verify_system",),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)


def _counts_parse_bes(args, result) -> dict:
    return {"bytes": len(args[0].encode("utf-8"))}


def _counts_build_graph(args, result) -> dict:
    return {"nodes": len(result.deco), "edges": len(result.edges)}


def _counts_minimize(args, result) -> dict:
    return {"nodes_in": len(args[0].deco), "blocks": len(result[0].deco)}


COUNTERS: dict[str, Callable] = {
    "parse.parse_bes": _counts_parse_bes,
    "build.build_graph": _counts_build_graph,
    "graph.minimize": _counts_minimize,
}


@dataclass
class Span:
    id: int
    parent: Optional[int]
    op: int  # the operation (CLI command) the span belongs to
    name: str  # "<layer>.<function>"
    start: float
    end: float = 0.0
    failed: bool = False
    counts: Optional[dict] = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Spans of the calls made while enabled; create it after importing besmin."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, Callable, Callable]] = []
        modules = [m for n, m in sys.modules.items() if n == "besmin" or n.startswith("besmin.")]
        for layer, functions in TRACED.items():
            home = sys.modules[f"besmin.{layer}"]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original, wrapper))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, self.op, name, 0.0)
            spans.append(span)
            stack.append(span.id)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def enable(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def disable(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)


@dataclass
class Profile:
    """Per-layer totals derived from the spans of one traced pass."""

    self_time: dict[str, float]  # span name or layer -> seconds of self time
    counts: dict[str, int]
    calls: dict[str, int]
    failed: dict[str, int]  # layer -> exceptions that escaped the layer
    root_time: float  # total duration of the cli.main root spans
    orphans: int  # spans without a cli.main root


def profile(spans: list[Span]) -> Profile:
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    self_time: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    failed = {layer: 0 for layer in LAYERS}
    root_time = 0.0
    orphans = 0
    for s in spans:
        own = s.end - s.start - child_time[s.id]
        self_time[s.name] += own
        self_time[s.layer] += own
        calls[s.name] += 1
        for key, value in (s.counts or {}).items():
            counts[f"{s.name}.{key}"] += value
        parent = spans[s.parent] if s.parent is not None else None
        if s.failed and (parent is None or parent.layer != s.layer):
            failed[s.layer] += 1
        if parent is None:
            if s.name == "cli.main":
                root_time += s.end - s.start
            else:
                orphans += 1
    return Profile(dict(self_time), dict(counts), dict(calls), failed, root_time, orphans)
