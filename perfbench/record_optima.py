"""Recompute the exact_scds optima with the repository's brute force.

Run from the root of the repository:

    python3 perfbench/record_optima.py

It rebuilds the fixed exact_scds pool, solves each graph with
``min_scds_naive`` from ``tests/bruteforce.py`` (definition-level
enumeration that shares no code with ``scds``) and rewrites
``perfbench/exact_optima.json``.  The optimum does not depend on vertex
labels, so it holds for every seed's relabelling of the pool.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from workloads import OPTIMA_PATH, exact_pool, pool_digest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from bruteforce import min_scds_naive  # noqa: E402


class AdjacencyGraph:
    """The three members of a graph that the brute force reads."""

    def __init__(self, n: int, edges: list[tuple[int, int]]):
        self.n = n
        self._edges = list(edges)
        self._adj = [[] for _ in range(n)]
        for u, v in edges:
            self._adj[u].append(v)
            self._adj[v].append(u)

    def neighbors(self, v: int) -> list[int]:
        return self._adj[v]

    def edges(self) -> list[tuple[int, int]]:
        return self._edges


def main() -> int:
    records = []
    for i, (n, edges) in enumerate(exact_pool()):
        start = time.perf_counter()
        size, _witness = min_scds_naive(AdjacencyGraph(n, edges))
        print(f"pool {i}: n={n} m={len(edges)} gamma_sc={size} "
              f"({time.perf_counter() - start:.1f} s)", file=sys.stderr, flush=True)
        records.append({"digest": pool_digest(n, edges), "gamma_sc": size, "m": len(edges), "n": n})
    OPTIMA_PATH.write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
