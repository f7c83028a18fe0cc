"""Seeded instance generators.  All randomness flows from the seed; equal
seeds give byte-identical graphs on every platform."""

from __future__ import annotations

import random

from .graph import Graph


def random_connected_graph(n: int, extra_edge_prob: float = 0.3, seed: int = 0) -> Graph:
    """Random connected graph: permutation tree plus per-pair coin flips.

    A random permutation is drawn, each vertex after the first attaches to
    a uniformly random earlier one (a random recursive tree on permuted
    labels), then every non-tree pair (u, v), visited in lexicographic
    order, is added with probability ``extra_edge_prob``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    tree = set()
    for i in range(1, n):
        j = rng.randrange(i)
        u, v = perm[j], perm[i]
        tree.add((u, v) if u < v else (v, u))
    edges = list(tree)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in tree and rng.random() < extra_edge_prob:
                edges.append((u, v))
    return Graph(n, edges)


def random_chain_graph(p: int, q: int, seed: int = 0) -> Graph:
    """Random connected chain graph with left side 0..p-1, right side p..p+q-1.

    Left degrees are drawn uniformly from 1..q and sorted nondecreasing,
    with the largest forced to q so no right vertex is isolated; left
    vertex i is joined to the first d_i right vertices.  Right vertex p
    therefore has the largest right-side neighborhood.
    """
    if p < 1 or q < 1:
        raise ValueError("both sides must be nonempty")
    rng = random.Random(seed)
    degrees = sorted(rng.randint(1, q) for _ in range(p))
    degrees[-1] = q
    edges = [(x, p + y) for x, d in enumerate(degrees) for y in range(d)]
    return Graph(p + q, edges)
