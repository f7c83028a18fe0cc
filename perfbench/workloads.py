"""Seeded inputs for the four workloads.

This is the benchmark's own code and never imports ``scds``: a change to
the package's generators cannot move the inputs, and every generator here
is O(n + m) where ``scds.generate.random_connected_graph`` is Theta(n^2).
Within a workload every instance has the same size, so per-operation cost
varies with structure, not with n or m.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
OPTIMA_PATH = HERE / "exact_optima.json"

APPROX_N = 4000          # m = 3n exactly
APPROX_COUNT = 4
CHAIN_P = CHAIN_Q = 300  # m = p(q+1)/2 exactly
CHAIN_COUNT = 4
REJECT_CORE = 240        # |S| = core + 1; n = core + outside + 3
REJECT_OUTSIDE = 360
REJECT_COUNT = 4
EXACT_N = 20
# An odd pool puts the median operation inside one graph's samples, not
# between the samples of two graphs of different cost.
EXACT_POOL_EDGES = (26, 30, 34, 52, 58, 64, 70, 76, 82)


@dataclass
class Instance:
    """One input file plus the facts the output checks need about it."""

    n: int
    edges: list[tuple[int, int]]
    extra_args: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    words: list[str]        # CLI words before --input
    expect_code: int        # exit code of a correct operation
    tail_pct: int           # fixed percentile reported as latency_tail_s
    min_ops: int            # operations a run needs for that percentile
    instances: list[Instance]
    order: list[int]        # one round: every instance once, seed-shuffled


def graph_text(n: int, edges: list[tuple[int, int]]) -> str:
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def sparse_connected(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Random recursive tree on permuted labels plus uniform extra edges, m in total."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = {_pair(perm[rng.randrange(i)], perm[i]) for i in range(1, n)}
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add(_pair(u, v))
    return sorted(edges)


def relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(_pair(perm[u], perm[v]) for u, v in edges)


def chain_instance(rng: random.Random, p: int, q: int) -> Instance:
    """Connected chain graph with p left and q right vertices, randomly relabelled.

    The left degrees are 1, then p - 3 values uniform on 2..q-1, then q - 1
    and q, so every instance has exactly two pendants (one per side) and
    the same construction size.  The middle values are nudged by single
    steps to the fixed total p(q+1)/2 so every instance has the same edge
    count.  Left vertex i is joined to the first d_i right vertices before
    relabelling.
    """
    middle = [rng.randint(2, q - 1) for _ in range(p - 3)]
    diff = p * (q + 1) // 2 - (1 + sum(middle) + (q - 1) + q)
    while diff:
        i = rng.randrange(p - 3)
        if diff > 0 and middle[i] < q - 1:
            middle[i] += 1
            diff -= 1
        elif diff < 0 and middle[i] > 2:
            middle[i] -= 1
            diff += 1
    degrees = [1] + sorted(middle) + [q - 1, q]
    edges = [(x, p + y) for x, d in enumerate(degrees) for y in range(d)]
    return Instance(n=p + q, edges=relabel(rng, p + q, edges),
                    facts={"left_degrees": degrees, "q": q})


def reject_instance(rng: random.Random, core: int, outside: int) -> Instance:
    """A pair (G, S) whose first undefended vertex is known by construction.

    S is a core that induces a random Hamiltonian cycle plus ``core``
    chords, plus a vertex x adjacent to two core vertices.  Every original
    outside vertex has exactly three core neighbours (and some outside
    neighbours), so any core neighbour defends it.  The last three indices
    are x and its pendants a < b; a is the first undefended vertex.
    """
    labels = list(range(core + outside))
    rng.shuffle(labels)
    core_v, out_v = labels[:core], labels[core:]
    edges = {_pair(core_v[i], core_v[(i + 1) % core]) for i in range(core)}
    target = len(edges) + core
    while len(edges) < target:
        edges.add(_pair(*rng.sample(core_v, 2)))
    for u in out_v:
        edges.update(_pair(u, v) for v in rng.sample(core_v, 3))
    target = len(edges) + outside // 2
    while len(edges) < target:
        edges.add(_pair(*rng.sample(out_v, 2)))
    x = core + outside
    a, b = x + 1, x + 2
    edges.update(_pair(x, v) for v in rng.sample(core_v, 2))
    edges.update({(x, a), (x, b)})
    s = sorted(core_v + [x])
    return Instance(n=x + 3, edges=sorted(edges),
                    extra_args=["--set", ",".join(map(str, s))],
                    facts={"set": s, "pendant": a})


def exact_pool() -> list[tuple[int, list[tuple[int, int]]]]:
    """The fixed exact_scds graphs whose optima exact_optima.json records."""
    return [(EXACT_N, sparse_connected(random.Random(f"exact-pool:{i}"), EXACT_N, m))
            for i, m in enumerate(EXACT_POOL_EDGES)]


def pool_digest(n: int, edges) -> str:
    return hashlib.sha256(graph_text(n, edges).encode()).hexdigest()


def _recorded_optima() -> list[dict]:
    recorded = json.loads(OPTIMA_PATH.read_text())
    pool = exact_pool()
    if len(recorded) != len(pool):
        raise ValueError("exact_optima.json does not match the pool size; re-record it")
    for rec, (n, edges) in zip(recorded, pool):
        if rec["digest"] != pool_digest(n, edges):
            raise ValueError("exact_optima.json was recorded for other graphs; re-record it")
    return recorded


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "approx_sparse":
        instances = [Instance(n=APPROX_N, edges=sparse_connected(rng, APPROX_N, 3 * APPROX_N))
                     for _ in range(APPROX_COUNT)]
        wl = Workload(name, ["approx"], 0, 75, 40, instances, [])
    elif name == "exact_scds":
        # The seed orders the round but keeps the pool's labels: relabelling
        # moves the lexicographic enumeration's work, and the median
        # instance's explored count spread by 26% between seeds.
        instances = [Instance(n=n, edges=edges, facts={"optimum": rec["gamma_sc"]})
                     for (n, edges), rec in zip(exact_pool(), _recorded_optima())]
        wl = Workload(name, ["solve", "--problem", "scds"], 0, 75, 40, instances, [])
    elif name == "chain_dense":
        instances = [chain_instance(rng, CHAIN_P, CHAIN_Q) for _ in range(CHAIN_COUNT)]
        wl = Workload(name, ["check", "chain"], 0, 90, 100, instances, [])
    elif name == "verify_reject":
        instances = [reject_instance(rng, REJECT_CORE, REJECT_OUTSIDE) for _ in range(REJECT_COUNT)]
        wl = Workload(name, ["verify"], 1, 75, 40, instances, [])
    else:
        raise ValueError(f"unknown workload {name!r}")
    wl.order = list(range(len(wl.instances)))
    rng.shuffle(wl.order)
    return wl


WORKLOADS = ("approx_sparse", "exact_scds", "chain_dense", "verify_reject")
