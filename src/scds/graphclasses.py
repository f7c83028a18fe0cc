"""Structural validators for the graph classes the gadgets target.

Only *verification* lives here: elimination orderings are checked, tree
witnesses are checked, and chordal bipartiteness is probed by a bounded
chordless-cycle search.  Full recognition algorithms are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Bipartition, Graph, bipartition, check_bipartition, iter_bits, mask_from, reach_within


def _eliminates(g: Graph, order: Sequence[int], doubly: bool) -> bool:
    """The elimination loop behind :func:`check_peo` and :func:`check_dpeo`."""
    if sorted(order) != list(range(g.n)):
        raise ValueError("ordering is not a permutation of the vertices")
    remaining = g.full_mask
    for v in order:
        later_nbrs = g.neighbor_mask(v) & remaining
        for w in iter_bits(later_nbrs):
            if (later_nbrs & ~(1 << w)) & ~g.neighbor_mask(w):
                return False
        if doubly:  # some u in N[v] whose residual N[u] holds every residual N[w], w in N[v]
            closed = [g.closed_mask(w) & remaining for w in iter_bits(later_nbrs | 1 << v)]
            if not any(all(not cw & ~cu for cw in closed) for cu in closed):
                return False
        remaining &= ~(1 << v)
    return True


def check_peo(g: Graph, order: Sequence[int]) -> bool:
    """True iff ``order`` is a perfect elimination ordering.

    Each vertex must be simplicial (closed neighborhood a clique) in the
    subgraph induced by it and all later vertices.
    """
    return _eliminates(g, order, doubly=False)


def check_dpeo(g: Graph, order: Sequence[int]) -> bool:
    """True iff ``order`` is a doubly perfect elimination ordering.

    On top of the PEO condition, each vertex v must have a maximum neighbor
    u in the residual subgraph: N[w] within the residual is contained in
    N[u] for every residual neighbor w of v.
    """
    return _eliminates(g, order, doubly=True)


@dataclass(frozen=True)
class TreeWitness:
    """A tree on the left side of a bipartition, used as a convexity witness.

    ``tree`` is a graph on the same vertex universe as the host graph whose
    edges all lie inside the left part; restricted to that part it must be
    a spanning tree.  ``kind`` constrains the shape: ``star`` (one center
    adjacent to all others), ``comb`` (a backbone path with exactly one
    tooth per backbone vertex), or ``general``.
    """

    tree: Graph
    kind: str


def _check_witness_shape(w: TreeWitness, left: frozenset[int]) -> None:
    edges = w.tree.edges()
    for u, v in edges:
        if u not in left or v not in left:
            raise ValueError("tree witness has an edge outside the left part")
    p = len(left)
    if p == 0:
        raise ValueError("tree witness must span a nonempty left part")
    if len(edges) != p - 1 or max(left) >= w.tree.n or not _connected_within(w.tree, left):
        raise ValueError("tree witness does not span the left part as a tree")
    if w.kind == "star":
        if p > 2 and not any(w.tree.degree(c) == p - 1 for c in left):
            raise ValueError("tree witness is not a star")
    elif w.kind == "comb":
        if not _is_comb(w.tree, left):
            raise ValueError("tree witness is not a comb")
    elif w.kind != "general":
        raise ValueError(f"unknown tree witness kind: {w.kind!r}")


def _connected_within(tree: Graph, nodes: frozenset[int]) -> bool:
    node_mask = mask_from(nodes)
    return reach_within(tree, node_mask) == node_mask


def _is_comb(tree: Graph, left: frozenset[int]) -> bool:
    p = len(left)
    if p % 2:
        return False
    if p == 2:
        return True  # a single backbone vertex with its tooth
    leaves = {v for v in left if tree.degree(v) == 1}
    backbone = left - leaves
    if len(backbone) != p // 2:
        return False
    for b in backbone:
        if sum(1 for w in tree.neighbors(b) if w in leaves) != 1:
            return False
    # The backbone must induce a path.
    degs = [sum(1 for w in tree.neighbors(b) if w in backbone) for b in backbone]
    if any(d > 2 for d in degs) or degs.count(1) != 2:
        return False
    return _connected_within(tree, frozenset(backbone))


def validate_tree_convex(g: Graph, parts: Bipartition, witness: TreeWitness) -> bool:
    """True iff every right-vertex neighborhood induces a subtree of the witness.

    Raises ValueError if the witness itself is malformed (not spanning the
    left part, not a tree, or failing its declared shape).
    """
    check_bipartition(g, parts)
    _check_witness_shape(witness, parts.left)
    for b in sorted(parts.right):
        hood = frozenset(g.neighbors(b))
        if len(hood) <= 1:
            continue
        if not _connected_within(witness.tree, hood):
            return False
    return True


@dataclass(frozen=True)
class ChordalBipartiteVerdict:
    """Outcome of the bounded chordless-cycle search.

    ``passed`` means no chordless cycle of length 6..bound was found; this
    is a bounded check, not full recognition.  On failure ``cycle`` holds
    the first offending cycle in canonical search order.
    """

    passed: bool
    bound: int
    cycle: tuple[int, ...] | None


def chordal_bipartite_check_bounded(g: Graph, max_len: int = 8) -> ChordalBipartiteVerdict:
    """Search exhaustively for a chordless cycle of length 6..max_len.

    Requires a bipartite input and an even bound >= 6.
    """
    if max_len % 2 or max_len < 6:
        raise ValueError("max_len must be an even number >= 6")
    if bipartition(g) is None:
        raise ValueError("input graph is not bipartite")
    cycle = _find_chordless_cycle(g, max_len)
    return ChordalBipartiteVerdict(passed=cycle is None, bound=max_len, cycle=cycle)


def _find_chordless_cycle(g: Graph, max_len: int) -> tuple[int, ...] | None:
    # Paths [s, v1, ..., vk] with s the smallest cycle vertex, every vi > s,
    # consecutive vertices adjacent and non-consecutive ones not; vertices
    # beyond v1 must avoid s except for the closing edge.  Depth-first with
    # neighbors taken in ascending order, so the first hit is canonical.
    for s in range(g.n):
        smask = 1 << s
        for v1 in g.neighbors(s):
            if v1 < s:
                continue
            stack = [([s, v1], smask | (1 << v1), smask)]
            while stack:
                path, on_path, blocked = stack.pop()
                last = path[-1]
                # blocked = path minus its last vertex; a new vertex may not
                # be adjacent to any of it (s is special-cased: adjacency to
                # s closes the cycle).
                extensions = []
                for w in g.neighbors(last):
                    if w <= s or on_path >> w & 1:
                        continue
                    wmask = g.neighbor_mask(w)
                    if wmask & blocked & ~smask:
                        continue
                    if wmask & smask:
                        if len(path) + 1 >= 6:
                            return tuple(path + [w])
                        continue  # chord to s once the cycle closes later
                    if len(path) + 1 < max_len:
                        extensions.append(w)
                for w in reversed(extensions):
                    stack.append((path + [w], on_path | (1 << w), blocked | (1 << last)))
    return None
