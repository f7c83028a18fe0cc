"""Spans around the calls into each layer, recorded from outside the program.

Each target is the module attribute through which the program makes the
call, for example ``scds.cli.defenders_of``; while a traced round runs a
wrapper replaces it.  A target that no longer exists is skipped, so a
function that a later change stops calling reports zero calls instead of
a replayed time.  A span is ``[op, name, start, end, parent, count]``:
spans of one operation share ``op``, ``parent`` indexes the enclosing
span (-1 for the operation's root ``cli.main``), and ``count`` is read
from the return value where the layer reports its own work.
"""

from __future__ import annotations

import importlib
import statistics
import time
import tracemalloc

TARGETS = (
    ("scds.cli", "load_graph", "graph.load", None),
    ("scds.graph", "parse_graph", "graph.parse", None),
    ("scds.graph.Graph", "__init__", "graph.build", None),
    ("scds.approx", "induced_subgraph", "graph.induced_subgraph", None),
    ("scds.cli", "bipartition", "graph.bipartition", None),
    ("scds.cli", "approx_scds", "approx.approx_scds", None),
    ("scds.approx", "greedy_cds", "approx.greedy_cds", None),
    ("scds.approx", "greedy_ds", "approx.greedy_ds", None),
    ("scds.cli", "is_scds", "certify.is_scds", None),
    ("scds.approx", "is_scds", "certify.is_scds", None),
    ("scds.chain", "is_scds", "certify.is_scds", None),
    ("scds.cli", "defenders_of", "certify.defenders_of", None),
    ("scds.cli", "min_scds", "exact.min_scds", lambda result: getattr(result, "explored", 0)),
    ("scds.cli", "chain_ordering", "chain.ordering", None),
    ("scds.cli", "chain_scds_upper_bound", "chain.construct", None),
)

# per-layer metric -> span whose summed duration per operation it reports
SPAN_SECONDS = {
    "graph.parse_s": "graph.parse",
    "graph.build_s": "graph.build",
    "graph.induced_subgraph_s": "graph.induced_subgraph",
    "graph.bipartition_s": "graph.bipartition",
    "approx.greedy_cds_s": "approx.greedy_cds",
    "approx.greedy_ds_s": "approx.greedy_ds",
    "certify.is_scds_s": "certify.is_scds",
    "certify.defenders_of_s": "certify.defenders_of",
    "exact.min_scds_s": "exact.min_scds",
    "chain.ordering_s": "chain.ordering",
    "chain.construct_s": "chain.construct",
}
# per-layer metric -> span whose calls per operation it counts
SPAN_CALLS = {
    "certify.is_scds_calls": "certify.is_scds",
    "certify.defenders_of_calls": "certify.defenders_of",
}
ROOT = "cli.main"


def _resolve(path: str):
    """The module or class at a dotted path, or None if it is gone."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, attr = path.rpartition(".")
        try:
            return getattr(importlib.import_module(module), attr, None)
        except ImportError:
            return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [self.op, name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(result)
            return result

        return wrapper

    def root(self, main):
        return self._wrap(ROOT, main, None)

    def install(self) -> None:
        for path, attr, name, counter in TARGETS:
            owner = _resolve(path)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def graph_build_peak(graph_cls, n: int, edges) -> int:
    """Peak bytes that tracemalloc sees while one graph is built."""
    tracemalloc.start()
    try:
        graph_cls(n, edges)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def layer_metrics(spans, latencies, traced) -> dict[str, float]:
    """Per-operation layer figures, as medians over the traced operations."""
    per_op: dict[int, dict] = {}
    for op, name, start, end, parent, count in spans:
        row = per_op.setdefault(op, {"seconds": {}, "calls": {}, "count": {}, "self": 0.0})
        row["seconds"][name] = row["seconds"].get(name, 0.0) + end - start
        row["calls"][name] = row["calls"].get(name, 0) + 1
        row["count"][name] = row["count"].get(name, 0) + count
        if parent == -1:
            row["self"] += end - start
        elif spans[parent][4] == -1:
            row["self"] -= end - start
    rows = list(per_op.values())

    def median(values) -> float:
        return statistics.median(values) if values else 0.0

    metrics = {}
    for metric, span in SPAN_SECONDS.items():
        metrics[metric] = median([r["seconds"].get(span, 0.0) for r in rows])
    for metric, span in SPAN_CALLS.items():
        metrics[metric] = median([r["calls"].get(span, 0) for r in rows])
    metrics["exact.explored"] = median([r["count"].get("exact.min_scds", 0) for r in rows])
    metrics["exact.candidates_per_s"] = median([
        r["count"]["exact.min_scds"] / r["seconds"]["exact.min_scds"]
        if r["seconds"].get("exact.min_scds") else 0.0
        for r in rows
    ])
    metrics["cli.self_s"] = median([r["self"] for r in rows])
    metrics["trace.overhead_s"] = (
        median([t for t, f in zip(latencies, traced) if f])
        - median([t for t, f in zip(latencies, traced) if not f])
    )
    return metrics
