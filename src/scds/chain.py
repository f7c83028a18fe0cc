"""Chain graphs: recognition by neighborhood containment, the linear-time
secure connected domination construction, and an optimality comparison
harness.

Recognition sorts each side by degree and tests the containment of each
consecutive pair of neighbourhoods on the adjacency lists, so it and the
construction's certification run in O(n + m) time and memory.

The constructed set is exposed as an *upper bound*, not as the optimum:
on complete bipartite instances such as K_{2,2} and K_{2,3} the exact
oracle finds a strictly smaller secure connected dominating set, so the
construction's minimality is demoted to a per-instance measured report
(:func:`chain_optimality_report`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .certify import is_scds
from .exact import DEFAULT_BUDGET, ExactResult, min_scds
from .graph import (
    Bipartition,
    DisconnectedGraphError,
    Graph,
    check_bipartition,
    is_connected,
    pendant_and_support,
    scds_forced,
)


@dataclass(frozen=True)
class ChainOrdering:
    """Left vertices with nested ascending neighborhoods, right descending."""

    x_order: tuple[int, ...]
    y_order: tuple[int, ...]


def _containment_ok(g: Graph, order: ChainOrdering) -> bool:
    """N(a) within N(b) for each consecutive pair a, b of ``x_order``, then
    N(b) within N(a) for each consecutive pair of ``y_order``: one set per
    pair, O(m) in all."""
    xs, ys = order.x_order, order.y_order
    adj = g.adjacency()
    for a, b in zip(xs, xs[1:]):
        if not set(adj[b]).issuperset(adj[a]):
            return False
    for a, b in zip(ys, ys[1:]):
        if not set(adj[a]).issuperset(adj[b]):
            return False
    return True


def chain_ordering(g: Graph, parts: Bipartition) -> ChainOrdering | None:
    """A verified chain ordering, or None when the graph is not a chain graph.

    Left vertices are sorted by (degree, index) ascending, right vertices
    by (degree, index) descending; the candidate is then containment
    checked neighborhood by neighborhood.
    """
    check_bipartition(g, parts)
    return _chain_ordering(g, parts)


def _chain_ordering(g: Graph, parts: Bipartition) -> ChainOrdering | None:  # for certified sides
    if not is_connected(g):
        raise DisconnectedGraphError("chain ordering requires a connected graph")
    xs = tuple(sorted(parts.left, key=lambda v: (g.degree(v), v)))
    ys = tuple(sorted(parts.right, key=lambda v: (g.degree(v), v), reverse=True))
    order = ChainOrdering(x_order=xs, y_order=ys)
    return order if _containment_ok(g, order) else None


def chain_scds_upper_bound(g: Graph, order: ChainOrdering) -> frozenset[int]:
    """The linear-time construction: {y_1, y_2, x_{p-1}, x_p} plus all pendants.

    Degenerate shapes (one side a single vertex, i.e. complete bipartite
    stars) return every vertex.  The output is certified secure on every
    call; it is an upper bound witness, not necessarily minimum.
    """
    if g.n:  # on the empty graph the construction's own error comes first
        if not _containment_ok(g, order):
            raise ValueError("ordering violates the neighborhood containment chain")
        if sorted(order.x_order + order.y_order) != list(range(g.n)):
            raise ValueError("ordering does not enumerate the two sides exactly")
    return _chain_scds_upper_bound(g, order)


def _chain_scds_upper_bound(g: Graph, order: ChainOrdering) -> frozenset[int]:  # for a verified order
    if g.n == 0:
        raise ValueError("the empty graph has no secure connected dominating set")
    p, q = len(order.x_order), len(order.y_order)
    if p == 1 or q == 1:
        out = frozenset(range(g.n))
    else:
        pendants, _ = pendant_and_support(g)
        xs, ys = order.x_order, order.y_order
        xset = frozenset(xs)
        # In a connected chain graph a pendant left vertex hangs on y_1 and
        # a pendant right vertex hangs on x_p.
        for v in pendants:
            anchor = g.neighbors(v)[0]
            expected = ys[0] if v in xset else xs[-1]
            if anchor != expected:
                raise RuntimeError("pendant attached off the chain extremes")
        out = frozenset({ys[0], ys[1], xs[-2], xs[-1]}) | pendants
    if is_scds(g, out) is None:
        raise RuntimeError("constructed set failed the security certification")
    return out


@dataclass(frozen=True)
class ChainOptimalityReport:
    """Side-by-side sizes: the construction versus the exact oracle."""

    construction_size: int
    exact_size: int
    gap: int
    exact: ExactResult


def chain_optimality_report(
    g: Graph, order: ChainOrdering, *, budget: int = DEFAULT_BUDGET
) -> ChainOptimalityReport:
    """Compare the construction against the exact optimum on one instance.

    The gap is always nonnegative (the construction is feasible).  Budget
    errors from the oracle propagate.
    """
    built = chain_scds_upper_bound(g, order)
    exact = min_scds(g, scds_forced(g), budget=budget)
    gap = len(built) - exact.size
    if gap < 0:
        raise RuntimeError("exact oracle exceeded a feasible construction")
    return ChainOptimalityReport(
        construction_size=len(built), exact_size=exact.size, gap=gap, exact=exact
    )
