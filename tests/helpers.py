"""Shared graph builders for the test suite."""

from itertools import combinations

from scds import Graph
from scds.graph import is_connected


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, list(combinations(range(n), 2)))


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(p, q):
    return Graph(p + q, [(x, p + y) for x in range(p) for y in range(q)])


def all_graphs(n):
    """Every labeled graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    for emask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if emask >> i & 1]
        yield Graph(n, edges)


def connected_graphs(n, max_m=None):
    for g in all_graphs(n):
        if max_m is not None and g.m > max_m:
            continue
        if is_connected(g):
            yield g


def random_connected(n, rng, prob=0.5):
    """Seeded connected graph: resample edge coins until connected."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        edges = [p for p in pairs if rng.random() < prob]
        g = Graph(n, edges)
        if is_connected(g):
            return g


def random_connected_bipartite(p, q, rng, prob=0.6):
    """Seeded connected bipartite graph with left side 0..p-1."""
    pairs = [(x, p + y) for x in range(p) for y in range(q)]
    while True:
        edges = [e for e in pairs if rng.random() < prob]
        g = Graph(p + q, edges)
        if is_connected(g):
            return g


def sparse_connected(n, seed, extra_per_vertex=0.6):
    """Random tree plus a few extra edges; fast at large n."""
    import random

    rng = random.Random(seed)
    edges = set()
    perm = list(range(n))
    rng.shuffle(perm)
    for i in range(1, n):
        j = rng.randrange(i)
        u, v = perm[j], perm[i]
        edges.add((min(u, v), max(u, v)))
    for _ in range(int(extra_per_vertex * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, list(edges))
