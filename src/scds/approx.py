"""Greedy domination, greedy connected domination, and the two
approximation pipelines built from them.

``approx_scds`` first grows a connected dominating set, then dominates
whatever is left of the graph after removing it, and returns the union,
which is always a certified secure connected dominating set of size at
most (max degree + 1) times the optimum.  ``greedy_ds``, ``greedy_cds``
and stage two run one lazy-heap greedy, ``_greedy``; they differ only in
the vertices it may pick.  It works on the adjacency lists: a vertex's
gain is a counter of the undominated vertices in its closed
neighbourhood, decremented along N[w] when w gets dominated, so the
counts cost O(n + m) in all and no n-bit mask is ever formed.
``dom_set_approx`` answers the bounded domination question exactly when
possible and otherwise routes through the universal-vertex gadget and a
caller-supplied SCDS solver.

Tie-breaking everywhere is by smallest vertex index; the greedy seed is
the smallest maximum-degree vertex.  These are repo conventions, chosen
for reproducibility.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterable

from .certify import is_scds
from .exact import DEFAULT_BUDGET, _dominates, _min_subset, iter_bits
from .graph import DisconnectedGraphError, Graph, is_connected
from .reductions import dom_to_mscds_general, extract_ds_from_gadget


@dataclass(frozen=True)
class ApproxOutcome:
    """Pieces of the two-stage run: d_sc = d_c | d, plus the promised bound.

    ``ratio_bound`` is max degree + 1: a guarantee on |d_sc| relative to
    the (possibly unknown) optimum, not a measured ratio.
    """

    d_c: frozenset[int]
    d: frozenset[int]
    d_sc: frozenset[int]
    ratio_bound: int


def greedy_ds(g: Graph) -> frozenset[int]:
    """Greedy dominating set: repeatedly take the vertex covering the most
    still-uncovered closed-neighborhood vertices (smallest index on ties)."""
    return _greedy(g, bytearray(b"\x01") * g.n)


def greedy_cds(g: Graph) -> frozenset[int]:
    """Greedy connected dominating set by frontier growth.

    Seeds with the smallest maximum-degree vertex, then repeatedly adds the
    set-adjacent vertex newly dominating the most vertices until everything
    is dominated.  Requires a connected, nonempty graph.
    """
    if g.n == 0:
        raise ValueError("the empty graph has no connected dominating set")
    if not is_connected(g):
        raise DisconnectedGraphError("greedy CDS requires a connected graph")
    return _grow_cds(g)


def _grow_cds(g: Graph) -> frozenset[int]:
    """Frontier growth from the smallest maximum-degree vertex, on a graph
    already known to be connected and nonempty."""
    root = min(v for v in range(g.n) if g.degree(v) == g.max_degree)
    return _greedy(g, bytearray(b"\x01") * g.n, root)


def _greedy(g: Graph, undominated: bytearray, root: int | None = None) -> frozenset[int]:
    """Greedy domination of the vertices flagged in ``undominated``, which
    it consumes: pick the candidate newly dominating the most of them,
    smallest index on ties, until none is left.

    Without ``root`` the candidates are the flagged vertices, so this is
    greedy domination of the subgraph they induce.  With ``root`` only the
    root is a candidate at first and each pick admits its neighbours, so the
    picks stay connected (frontier growth).  ``gain[v]`` counts the flagged
    vertices of N[v].  Candidates enter with the upper bound degree + 1 and
    gains only fall, so a popped entry whose stored gain is current has the
    largest gain and the smallest index; a stale one is re-pushed at its
    current gain, or dropped at 0.
    """
    adj = g.adjacency()
    gain = [len(a) + 1 for a in adj]
    for w in range(g.n):
        if not undominated[w]:  # dominated already: it counts for no one
            gain[w] -= 1
            for x in adj[w]:
                gain[x] -= 1
    left = undominated.count(1)
    if root is None:
        heap = [(-len(adj[v]) - 1, v) for v in compress(range(g.n), undominated)]
    else:
        heap = [(-len(adj[root]) - 1, root)]
        entered = bytearray(g.n)
        entered[root] = 1
    heapq.heapify(heap)
    chosen = []
    while left:
        stored, v = heapq.heappop(heap)
        if gain[v] != -stored:
            if gain[v]:
                heapq.heappush(heap, (-gain[v], v))
            continue
        chosen.append(v)
        for w in (v, *adj[v]):
            if undominated[w]:
                undominated[w] = 0
                left -= 1
                gain[w] -= 1
                for x in adj[w]:
                    gain[x] -= 1
        if root is not None:
            for w in adj[v]:
                if not entered[w]:
                    entered[w] = 1
                    heapq.heappush(heap, (-len(adj[w]) - 1, w))
    return frozenset(chosen)


def approx_scds(g: Graph) -> ApproxOutcome:
    """Two-stage secure connected domination within a factor of max degree + 1.

    Stage one grows a connected dominating set d_c; stage two greedily
    dominates V - d_c, choosing only among those vertices, in place in ``g``
    (per component of the residual, which the greedy handles natively).
    Every vertex outside the union has all of its residual dominators
    available as defenders, so the union certifies.
    """
    if g.n == 0:
        raise ValueError("the empty graph has no secure connected dominating set")
    if not is_connected(g):
        raise DisconnectedGraphError("secure connected domination requires a connected graph")
    d_c = _grow_cds(g)
    residual = bytearray(b"\x01") * g.n
    for v in d_c:
        residual[v] = 0
    d = _greedy(g, residual)
    d_sc = d_c | d
    if is_scds(g, d_sc) is None:
        raise RuntimeError("stage union failed the security certification")
    return ApproxOutcome(d_c=d_c, d=d, d_sc=d_sc, ratio_bound=g.max_degree + 1)


def dom_set_approx(
    g: Graph,
    k: int,
    scds_solver: Callable[[Graph], Iterable[int]],
    *,
    budget: int = DEFAULT_BUDGET,
) -> frozenset[int]:
    """Dominating set via bounded exact search, else via the SCDS route.

    If some dominating set of size at most ``k`` exists (decided exactly by
    the exact oracles' enumerator, under the same budget), the smallest such
    set, lexicographically first, is returned.  Otherwise the universal-vertex
    gadget is built, ``scds_solver`` produces an SCDS of it, and its
    restriction to the original vertices, always a dominating set, is returned.
    """
    if k < 1:
        raise ValueError("threshold k must be at least 1")
    if not is_connected(g) or g.n == 0:
        raise DisconnectedGraphError("this routine requires a connected graph")
    found = _min_subset(g.n, (), _dominates(g), budget, most=k)
    if found is not None:
        return frozenset(iter_bits(found[0]))
    art = dom_to_mscds_general(g)
    return extract_ds_from_gadget(art, scds_solver(art.graph))
