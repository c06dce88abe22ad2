"""Outside-in tracing of rsmc's layers.

The tracer replaces each public function of the traced modules with a
timing wrapper, in every ``rsmc`` module namespace that binds it (``rsmc.cli``
imports ``erf_matrix`` and ``refine`` by name, so patching ``rsmc.rsm`` alone
would miss those calls). Spans stay in memory until the run ends.

Each thread keeps its own span stack. A span opened on a thread whose stack
is empty, such as a resistance block solved in ``erf_matrix``'s thread pool,
is a child of the innermost span open on the thread that installed the
tracer.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

#: Counts taken from a traced function's result: span name ->
#: [(metric, how to aggregate over calls, function of the result)].
COUNTS = {
    "graph.parse_edge_list": [
        ("graph.n", max, lambda g: g.vertex_count),
        ("graph.m", max, lambda g: len(g.edges)),
    ],
    "graph.connected_components": [
        ("graph.components", max, lambda p: p.component_count),
        ("graph.largest_component", max, lambda p: max(Counter(p.assignment).values())),
    ],
    "rsm.rsm_to_json": [("rsm.rsm_to_json.bytes", sum, lambda s: len(s.encode("utf-8")))],
    "rsm.validate_rsm": [("rsm.validate_rsm.violations", sum, lambda r: len(r.violations))],
    "community.refine": [("community.eeg_edges", sum, lambda e: len(e.edges))],
    "community.enumerate_maximal_communities": [
        ("community.communities", sum, len),
        ("community.largest", max, lambda cs: max((len(c.members) for c in cs), default=0)),
    ],
}


class Tracer:
    """Records a span per call into the public functions of ``modules``.

    ``modules`` maps a short layer name (used as the span-name prefix) to
    the module object. Spans are dicts with id, parent, name, thread,
    start, end, request and counts.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self._request = None

    def _stack(self) -> list[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def install(self, request) -> None:
        """Wrap every target in every rsmc namespace; spans carry ``request``."""
        self._request = request
        self._root = self._stack()
        wrappers = {}
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "rsmc" and not mod_name.startswith("rsmc."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        counts = COUNTS.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._root[-1] if self._root else None)
            span = {"id": next(self._ids), "parent": parent["id"] if parent else None,
                    "name": name, "thread": threading.get_ident(),
                    "request": self._request, "start": time.perf_counter()}
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            span["counts"] = {metric: f(result) for metric, _, f in counts}
            return result

        return traced


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one request's spans.

    For each span name: ``.s`` total time, ``.self_s`` total minus the time
    its child spans cover, ``.calls``. Children that ran concurrently on
    other threads can together outlast their parent; self time counts the
    covered interval once, and the excess is reported as
    ``trace.concurrent_child_s`` rather than as a negative self time.
    """
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    out: dict[str, float] = defaultdict(float)
    out["trace.concurrent_child_s"] = 0.0
    counts: dict[str, list] = defaultdict(list)
    for s in spans:
        name, start, end = s["name"], s["start"], s["end"]
        inside = [(max(c["start"], start), min(c["end"], end)) for c in children[s["id"]]]
        covered = _covered(inside)
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += end - start - covered
        out[f"{name}.calls"] += 1
        out["trace.concurrent_child_s"] += sum(b - a for a, b in inside) - covered
        for metric, value in s.get("counts", {}).items():
            counts[metric].append(value)
    aggregate = {metric: how for spec in COUNTS.values() for metric, how, _ in spec}
    for metric, how in aggregate.items():
        out[metric] = how(counts[metric]) if counts[metric] else 0
    return dict(out)
