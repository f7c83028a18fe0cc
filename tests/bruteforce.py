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
