"""Greedy domination, greedy connected domination, and the two
approximation pipelines built from them.

``approx_scds`` first grows a connected dominating set, then dominates
whatever is left of the graph after removing it, and returns the union,
which is always a certified secure connected dominating set of size at
most (max degree + 1) times the optimum.  ``dom_set_approx`` answers the
bounded domination question exactly when possible and otherwise routes
through the universal-vertex gadget and a caller-supplied SCDS solver.

Tie-breaking everywhere is by smallest vertex index; the greedy seed is
the smallest maximum-degree vertex.  These are repo conventions, chosen
for reproducibility.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable

from .certify import is_dominating_mask, is_scds
from .exact import DEFAULT_BUDGET, _min_subset
from .graph import (
    DisconnectedGraphError,
    Graph,
    is_connected,
    iter_bits,
    mask_from,
)
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
    return _greedy_dominate(g, g.full_mask)


def _greedy_dominate(g: Graph, undominated: int) -> frozenset[int]:
    """Greedy domination of the vertices in ``undominated``, choosing only
    among them, as :func:`greedy_ds` does on the subgraph they induce.

    A chosen vertex's gain counts only still-undominated vertices, which all
    lie inside the set, so gains equal those in the induced subgraph.  The
    heap is seeded with upper bounds (degree in ``g`` plus one) and gains
    only fall; a popped entry whose stored gain is current is therefore the
    largest gain with the smallest index, whatever the seeding.
    """
    heap = [(-g.degree(v) - 1, v) for v in iter_bits(undominated)]
    heapq.heapify(heap)
    chosen = []
    while undominated:
        stored, v = heapq.heappop(heap)
        gain = (g.closed_mask(v) & undominated).bit_count()
        if gain != -stored:
            if gain:
                heapq.heappush(heap, (-gain, v))
            continue
        chosen.append(v)
        undominated &= ~g.closed_mask(v)
    return frozenset(chosen)


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
    seed = min(v for v in range(g.n) if g.degree(v) == g.max_degree)
    chosen = [seed]
    members = 1 << seed
    dominated = g.closed_mask(seed)
    in_frontier = 0
    heap: list[tuple[int, int]] = []
    full = g.full_mask

    def open_frontier(v: int) -> None:
        nonlocal in_frontier
        for w in iter_bits(g.neighbor_mask(v) & ~members & ~in_frontier):
            gain = (g.closed_mask(w) & ~dominated).bit_count()
            if gain:
                heapq.heappush(heap, (-gain, w))
            in_frontier |= 1 << w

    open_frontier(seed)
    while dominated != full:
        stored, v = heapq.heappop(heap)
        gain = (g.closed_mask(v) & ~dominated).bit_count()
        if gain != -stored:
            if gain:
                heapq.heappush(heap, (-gain, v))
            continue
        chosen.append(v)
        members |= 1 << v
        dominated |= g.closed_mask(v)
        open_frontier(v)
    return frozenset(chosen)


def approx_scds(g: Graph) -> ApproxOutcome:
    """Two-stage secure connected domination within a factor of max degree + 1.

    Stage one grows a connected dominating set d_c; stage two greedily
    dominates the remaining vertices V - d_c, choosing only among them, which
    is greedy domination of the subgraph they induce (per component, which
    the greedy handles natively) done in place in ``g``.  Every vertex
    outside the union has all of its residual dominators available as
    defenders, so the union certifies.
    """
    if g.n == 0:
        raise ValueError("the empty graph has no secure connected dominating set")
    if not is_connected(g):
        raise DisconnectedGraphError("secure connected domination requires a connected graph")
    d_c = greedy_cds(g)
    d = _greedy_dominate(g, g.full_mask & ~mask_from(d_c))
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
    found = _min_subset(g.n, (), lambda m: is_dominating_mask(g, m), budget, most=k)
    if found is not None:
        return frozenset(iter_bits(found[0]))
    art = dom_to_mscds_general(g)
    return extract_ds_from_gadget(art, scds_solver(art.graph))
