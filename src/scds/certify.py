"""Certifiers for dominating, connected dominating, and secure connected
dominating sets, and the explanation of a rejection.

A set S is *dominating* if N[S] = V, a *connected dominating set* (CDS) if
additionally S is nonempty and G[S] is connected, and a *secure connected
dominating set* (SCDS) if every outside vertex u has a *defender*: an
adjacent v in S such that (S - {v}) | {u} is again a CDS.

``verdict`` is the one decision for a vertex set; ``is_dominating``,
``is_cds`` and ``is_scds`` return its answer.  A passing set gets the
certificate (scds) or None (ds, cds); a :class:`SecurityCertificate` maps
every outside vertex to its smallest-index defender, so certificates are
deterministic and replayable.  A failing set gets the first
:class:`Failure` that applies: ``undominated``, the smallest vertex outside
N[S]; for cds and scds ``disconnected``, the smallest vertex of S that a
traversal of G[S] from min(S) misses; for scds ``undefended``, the smallest
outside vertex with no defender, found by the defender loop that builds
certificates.  The empty set on the empty graph has no vertex to blame:
``Failure(-1, "unknown")``.

``verdict`` reads the adjacency lists in O(n + m) memory and never forms
an n-bit mask:

* the union of the closed neighbourhoods of S, one set, decides
  domination; only then, with n <= |N[S]|, does one scan of the
  neighbourhoods of S in ascending order list for every vertex w its
  dominators doms[w] = N[w] & S, sorted.  A single entry is w's private
  dominator, so crit[v] lists the vertices that only v dominates.  For v in
  S, doms[v] is v's adjacency in G[S] (plus v); for u outside S it lists
  u's candidate defenders;
* one lowpoint DFS of G[S] from min(S), over those lists, finds the
  vertices of S it misses, and for each v the DFS subtrees that removing v
  separates from the rest of G[S];
* v defends u iff the swap keeps domination, i.e. crit[v] lies in N[u]
  (tested against a marker array that flags N[u]), and keeps connectivity,
  i.e. u has a neighbour in every piece of G[S] - v (u's neighbour DFS
  times are bisected into v's sorted separated intervals).

The exact oracle sends its candidates that dominate and connect to the
same dominator lists, DFS and defender loop.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

from .graph import Graph


@dataclass(frozen=True)
class SecurityCertificate:
    """Per-outside-vertex defender assignment proving a set is an SCDS.

    ``defended`` maps each vertex u outside the set to a defender v inside
    it; replaying ``is_cds`` on (set - {v}) | {u} must succeed for every
    entry.
    """

    defended: dict[int, int]


@dataclass(frozen=True)
class Failure:
    """The vertex to blame for a rejected set and the reason it fails."""

    vertex: int
    reason: str


def _members(g: Graph, s: Iterable[int]) -> list[int]:
    """The vertices of ``s`` in ascending order, each checked to be in range."""
    members = set()
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
        members.add(v)
    return sorted(members)


def is_dominating(g: Graph, s: Iterable[int]) -> bool:
    """True iff the closed neighborhood of ``s`` covers every vertex."""
    return verdict(g, s, "ds") is None


def is_cds(g: Graph, s: Iterable[int]) -> bool:
    """True iff ``s`` is nonempty, induces a connected subgraph, and dominates."""
    return verdict(g, s, "cds") is None


def is_scds(g: Graph, s: Iterable[int]) -> SecurityCertificate | None:
    """Certificate if ``s`` is a secure connected dominating set, else None.

    The whole vertex set of a connected graph always certifies (vacuously,
    with an empty defender map).
    """
    out = verdict(g, s, "scds")
    return out if isinstance(out, SecurityCertificate) else None


def _dominators(g: Graph, members: list[int]) -> list[list[int]]:
    """doms[w] = N[w] & S in ascending order, for S = ``members`` (ascending).
    S must dominate, so the n lists cost O(|N[S]|)."""
    adj = g.adjacency()
    doms: list[list[int]] = [[] for _ in range(g.n)]
    for v in members:
        doms[v].append(v)
        for w in adj[v]:
            doms[w].append(v)
    return doms


def _swap_structure(doms: list[list[int]], root: int):
    """Lowpoint DFS of G[S] from ``root``; for v in S, ``doms[v]`` lists
    N[v] & S in ascending order, so it is v's adjacency in G[S] plus v.

    Returns (tin, sep): tin[v] is v's discovery time, -1 for a vertex the
    search never reaches, and sep[v] lists in ascending order the
    [tin, tout) intervals of the DFS subtrees that removing v separates
    from the rest of G[S].
    """
    tin = [-1] * len(doms)
    low = tin[:]
    sep: dict[int, list[tuple[int, int]]] = {}
    tin[root] = low[root] = 0
    timer = 1
    stack = [(root, -1, iter(doms[root]))]
    while stack:
        v, parent, nbrs = stack[-1]
        for w in nbrs:
            if tin[w] < 0:
                tin[w] = low[w] = timer
                timer += 1
                stack.append((w, v, iter(doms[w])))
                break
            if tin[w] < low[v] and w != parent:
                low[v] = tin[w]
        else:
            stack.pop()
            if parent >= 0:
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if low[v] >= tin[parent]:
                    sep.setdefault(parent, []).append((tin[v], timer))
    return tin, sep


def _reconnects(tins: list[int], pieces, is_root: bool) -> bool:
    """Whether a vertex u whose neighbours in S have the sorted DFS times
    ``tins`` (v's among them) touches every piece of G[S] - v: each interval
    in ``pieces`` and, unless v is the root, the rest of S - v."""
    if len(pieces) >= len(tins):  # each piece needs a neighbour other than v
        return False
    inside = 0
    for lo, hi in pieces:
        a = bisect_left(tins, lo)
        b = bisect_left(tins, hi, a)
        if a == b:
            return False
        inside += b - a
    return is_root or inside + 1 < len(tins)


def _defend(g: Graph, doms: list[list[int]], tin: list[int], sep, root: int):
    """Smallest-index defenders of the outside vertices of a CDS S in
    increasing order, and the first of them with none (-1 if none lacks one);
    ``doms`` is from :func:`_dominators`, and ``tin``, ``sep`` and ``root`` are
    the DFS of :func:`_swap_structure`, which reaches all of S."""
    adj = g.adjacency()
    crit: dict[int, list[int]] = {}  # v -> the vertices that only v dominates
    for w, dw in enumerate(doms):
        if len(dw) == 1:
            crit.setdefault(dw[0], []).append(w)
    mark = [-1] * g.n  # mark[x] == u iff x lies in N[u], once N[u] is flagged
    defended: dict[int, int] = {}
    for u, vs in enumerate(doms):
        if tin[u] >= 0:  # u is in S
            continue
        tins = sorted([tin[v] for v in vs])
        for v in vs:  # ascending, so the defender is smallest-index
            private = crit.get(v)
            if private:
                if mark[u] != u:  # flag N[u] on its first test
                    mark[u] = u
                    for x in adj[u]:
                        mark[x] = u
                if any(mark[x] != u for x in private):
                    continue
            if _reconnects(tins, sep.get(v, ()), v == root):
                defended[u] = v
                break
        else:
            return defended, u
    return defended, -1


def verdict(g: Graph, s: Iterable[int], problem: str) -> SecurityCertificate | Failure | None:
    """Decide the ``ds``, ``cds`` or ``scds`` check on ``s`` once: a
    :class:`SecurityCertificate` (scds) or None (ds, cds) if it passes, its
    :class:`Failure` if not; precedence and tie-breaks as in the module
    docstring."""
    if problem not in ("ds", "cds", "scds"):
        raise ValueError(f"unknown problem {problem!r}")
    members = _members(g, s)
    adj = g.adjacency()
    covered = set(members).union(*map(adj.__getitem__, members))  # N[S]
    if len(covered) < g.n:
        return Failure(next(w for w in range(g.n) if w not in covered), "undominated")
    if problem == "ds":
        return None
    if not members:
        return Failure(-1, "unknown")
    doms = _dominators(g, members)
    tin, sep = _swap_structure(doms, members[0])
    if tin.count(-1) > g.n - len(members):  # the search missed a vertex of S
        return Failure(next(v for v in members if tin[v] < 0), "disconnected")
    if problem == "cds":
        return None
    defended, undefended = _defend(g, doms, tin, sep, members[0])
    return Failure(undefended, "undefended") if undefended >= 0 else SecurityCertificate(defended)
