"""Definition-level brute-force oracles used to cross-check the package.

Everything here works on plain Python sets and follows the textbook
definitions directly.  Nothing is shared with the solvers in ``scds``:
these functions only read adjacency through ``Graph.neighbors`` and make
no use of bitmasks, pruning or certificates.  They are deliberately slow.
"""

from itertools import combinations

from scds.graph import Graph


def nbrs(g, v):
    return set(g.neighbors(v))


def closed(g, v):
    return nbrs(g, v) | {v}


def is_ds_naive(g, s):
    s = set(s)
    return all(v in s or nbrs(g, v) & s for v in range(g.n))


def reach_naive(g, s):
    """Vertices of the nonempty set s reachable from min(s) inside s."""
    start = min(s)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in g.neighbors(v):
            if w in s and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def induced_connected_naive(g, s):
    s = set(s)
    return bool(s) and reach_naive(g, s) == s


def is_cds_naive(g, s):
    s = set(s)
    return bool(s) and induced_connected_naive(g, s) and is_ds_naive(g, s)


def is_scds_naive(g, s):
    s = set(s)
    if not is_cds_naive(g, s):
        return False
    for u in range(g.n):
        if u in s:
            continue
        if not any(is_cds_naive(g, (s - {v}) | {u}) for v in nbrs(g, u) & s):
            return False
    return True


def defenders_naive(g, s, u):
    s = set(s)
    return {v for v in nbrs(g, u) & s if is_cds_naive(g, (s - {v}) | {u})}


def induced_subgraph(g, vertices):
    """Induced subgraph on ``vertices`` plus the position -> original map.

    The one helper here that builds a ``Graph`` rather than reading one.
    """
    keep = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(keep)}
    edges = []
    for i, v in enumerate(keep):
        for w in g.neighbors(v):
            if w in pos and pos[w] > i:
                edges.append((i, pos[w]))
    return Graph(len(keep), edges), tuple(keep)


def greedy_naive(g, undominated, root=None):
    """Greedy domination of the set ``undominated``, gains recomputed each step.

    Every step scores each unpicked candidate v by |N[v] & undominated| and
    picks the highest score, smallest index on ties, until nothing is left
    undominated.  Without ``root`` the candidates are the vertices of
    ``undominated``; with it, the root and then every neighbour of a
    picked vertex.
    """
    undominated = set(undominated)
    candidates = set(undominated) if root is None else {root}
    closed_nbhd = [closed(g, v) for v in range(g.n)]
    picked = set()
    while undominated:
        v = max(candidates - picked, key=lambda w: (len(closed_nbhd[w] & undominated), -w))
        picked.add(v)
        undominated -= closed_nbhd[v]
        if root is not None:
            candidates |= closed_nbhd[v]
    return frozenset(picked)


def is_chain_naive(g):
    """For a bipartite g: True iff it is 2K2-free, i.e. no two edges with
    four distinct ends induce just those two edges (Yannakakis: the chain
    graphs are exactly the 2K2-free bipartite graphs)."""
    for (a, b), (c, d) in combinations(g.edges(), 2):
        if len({a, b, c, d}) == 4 and not any(y in nbrs(g, x) for x in (a, b) for y in (c, d)):
            return False
    return True


def peo_naive(g, order):
    """True iff the neighbours of each vertex that come later in ``order``
    are pairwise adjacent."""
    for i, v in enumerate(order):
        later = nbrs(g, v) & set(order[i + 1:])
        if any(b not in nbrs(g, a) for a, b in combinations(later, 2)):
            return False
    return True


def dpeo_naive(g, order):
    """True iff ``order`` is a perfect elimination ordering in which every
    vertex v has a maximum neighbour: some u in the residual N[v] whose
    residual N[u] contains the residual N[w] of every w in the residual N[v]
    (residual: v and the vertices after it)."""
    if not peo_naive(g, order):
        return False
    for i, v in enumerate(order):
        residual = set(order[i:])
        hood = closed(g, v) & residual
        if not any(all(closed(g, w) & residual <= closed(g, u) for w in hood) for u in hood):
            return False
    return True


def chordless_cycles_naive(g, lengths):
    """The vertex sets of the induced cycles of g with a length in
    ``lengths``: k vertices that induce a connected 2-regular subgraph."""
    out = set()
    for k in lengths:
        for combo in combinations(range(g.n), k):
            s = set(combo)
            if all(len(nbrs(g, v) & s) == 2 for v in s) and induced_connected_naive(g, s):
                out.add(frozenset(s))
    return out


def first_failure_naive(g, s, problem):
    """(vertex, reason) explaining why s fails problem, or None if it passes.

    Undominated vertices first, then vertices of s that the search from
    min(s) inside s misses, then outside vertices without a defender; the
    smallest vertex of the first kind found.  The empty set on the empty
    graph fails cds and scds as (-1, "unknown").
    """
    s = set(s)
    for v in range(g.n):
        if v not in s and not nbrs(g, v) & s:
            return v, "undominated"
    if problem == "ds":
        return None
    if not s:
        return -1, "unknown"
    unreached = s - reach_naive(g, s)
    if unreached:
        return min(unreached), "disconnected"
    if problem == "cds":
        return None
    for u in range(g.n):
        if u not in s and not defenders_naive(g, s, u):
            return u, "undefended"
    return None


def _smallest(g, feasible):
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            if feasible(set(combo)):
                return k, combo
    return None


def min_ds_naive(g):
    return _smallest(g, lambda s: is_ds_naive(g, s))


def min_cds_naive(g):
    return _smallest(g, lambda s: is_cds_naive(g, s))


def min_scds_naive(g):
    return _smallest(g, lambda s: is_scds_naive(g, s))


def min_vc_naive(g):
    edges = g.edges()
    return _smallest(g, lambda s: all(u in s or v in s for u, v in edges))


def min_set_cover_naive(universe_size, family):
    universe = set(range(universe_size))
    for k in range(len(family) + 1):
        for combo in combinations(range(len(family)), k):
            covered = set()
            for j in combo:
                covered |= set(family[j])
            if covered >= universe:
                return k, combo
    return None
