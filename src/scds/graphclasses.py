"""Structural validators for the graph classes the gadgets target.

Only *verification* lives here: elimination orderings are checked, tree
witnesses are checked, and chordal bipartiteness is probed by a bounded
chordless-cycle search.  Full recognition algorithms are out of scope.
Every validator reads the adjacency lists in O(n + m) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Bipartition, Graph, bipartition, check_bipartition


def _eliminates(g: Graph, order: Sequence[int], doubly: bool) -> bool:
    """The elimination test behind :func:`check_peo` and :func:`check_dpeo`.

    A requirement owed[u][w] = t says that w, and every neighbour of w at
    position t or later, lies in N[u].  PEO (Rose, Tarjan & Lueker): v's
    later neighbours form a clique iff they lie in N[u] for u the earliest
    of them (t = n: w alone).  DPEO: some u in the residual N[v] has a
    residual N[u] holding the residual N[w] of each w in it; then every u of
    maximum size does, so one is owed with t the position of v.  A pair
    keeps its smallest t, as a containment that holds then holds later, and
    each u is checked once against a marker array.
    """
    if sorted(order) != list(range(g.n)):
        raise ValueError("ordering is not a permutation of the vertices")
    adj, n = g.adjacency(), g.n
    pos = [0] * n
    for t, v in enumerate(order):
        pos[v] = t
    owed: dict[int, dict[int, int]] = {}  # owed[u][w] = t
    left = [len(a) for a in adj]  # neighbours not yet eliminated
    for t, v in enumerate(order):
        later = [w for w in adj[v] if pos[w] > t]
        if later:
            due = owed.setdefault(min(later, key=pos.__getitem__), {})
            for w in later:
                due.setdefault(w, n)
        if doubly:
            hood = [v, *later]
            due = owed.setdefault(max(hood, key=lambda w: (left[w], pos[w])), {})
            for w in hood:
                due[w] = min(due.get(w, n), t)
            for w in adj[v]:
                left[w] -= 1
    mark = [-1] * n
    for u, due in owed.items():
        mark[u] = u
        for x in adj[u]:
            mark[x] = u
        for w, t in due.items():
            if mark[w] != u or t < n and any(mark[x] != u and pos[x] >= t for x in adj[w]):
                return False
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


def _check_witness_shape(w: TreeWitness, left: frozenset[int]) -> list[int]:
    """The witness tree's BFS parent pointers, once its shape is checked."""
    edges = w.tree.edges()
    for u, v in edges:
        if u not in left or v not in left:
            raise ValueError("tree witness has an edge outside the left part")
    p = len(left)
    if p == 0:
        raise ValueError("tree witness must span a nonempty left part")
    parent = None if len(edges) != p - 1 or max(left) >= w.tree.n else _parents(w.tree, left)
    if parent is None:
        raise ValueError("tree witness does not span the left part as a tree")
    if w.kind == "star":
        if p > 2 and not any(w.tree.degree(c) == p - 1 for c in left):
            raise ValueError("tree witness is not a star")
    elif w.kind == "comb":
        if not _is_comb(w.tree, left):
            raise ValueError("tree witness is not a comb")
    elif w.kind != "general":
        raise ValueError(f"unknown tree witness kind: {w.kind!r}")
    return parent


def _parents(tree: Graph, nodes: frozenset[int]) -> list[int] | None:
    """BFS parent pointers of ``tree`` from min(``nodes``), -1 at the root and
    off the search, or None if the search misses part of ``nodes``."""
    root = min(nodes)
    parent = [-1] * tree.n
    reached = [root]
    for v in reached:  # the list grows into the BFS order
        for w in tree.neighbors(v):
            if parent[w] < 0 and w != root:
                parent[w] = v
                reached.append(w)
    return parent if len(reached) == len(nodes) else None


def _connected_within(parent: list[int], nodes: frozenset[int]) -> bool:
    """Whether ``nodes`` induces a subtree of the tree with ``parent``
    pointers: a forest of child-parent edges, connected iff it has
    len(nodes) - 1 of them."""
    return sum(parent[v] in nodes for v in nodes) == len(nodes) - 1


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
    # The backbone must induce a path; a tree minus its leaves is connected.
    degs = [sum(1 for w in tree.neighbors(b) if w in backbone) for b in backbone]
    return all(d <= 2 for d in degs) and degs.count(1) == 2


def validate_tree_convex(g: Graph, parts: Bipartition, witness: TreeWitness) -> bool:
    """True iff every right-vertex neighborhood induces a subtree of the witness.

    Raises ValueError if the witness itself is malformed (not spanning the
    left part, not a tree, or failing its declared shape).
    """
    check_bipartition(g, parts)
    parent = _check_witness_shape(witness, parts.left)
    for b in sorted(parts.right):
        hood = frozenset(g.neighbors(b))
        if len(hood) <= 1:
            continue
        if not _connected_within(parent, hood):
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
    adj = g.adjacency()
    near = [0] * g.n  # near[w]: the neighbours of w in path[1:-1], kept on push and pop
    s_nbr = [-1] * g.n  # s_nbr[w] == s iff w is adjacent to s
    for s in range(g.n):
        if len(adj[s]) < 2 or adj[s][-2] < s:  # no two neighbours above s: no cycle is least at s
            continue
        for w in adj[s]:
            s_nbr[w] = s
        for v1 in adj[s]:
            if v1 < s:
                continue
            path, pending = [s, v1], [None]  # pending[i]: extensions of path[:i + 2] left to explore
            while pending:
                if pending[-1] is None:  # a new path: scan its last vertex's neighbours
                    extensions = []
                    for w in adj[path[-1]]:
                        if w <= s or near[w] or w in path:
                            continue
                        if s_nbr[w] == s:
                            if len(path) + 1 >= 6:
                                return tuple(path + [w])
                            continue  # chord to s once the cycle closes later
                        if len(path) + 1 < max_len:
                            extensions.append(w)
                    pending[-1] = iter(extensions)
                w = next(pending[-1], None)
                if w is not None:  # the last vertex joins path[1:-1]
                    for x in adj[path[-1]]:
                        near[x] += 1
                    path.append(w)
                    pending.append(None)
                else:
                    pending.pop()
                    path.pop()
                    if pending:
                        for x in adj[path[-1]]:
                            near[x] -= 1
    return None
