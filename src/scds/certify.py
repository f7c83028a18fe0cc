"""Certifiers for dominating, connected dominating, and secure connected
dominating sets, and the explanation of a rejection.

A set S is *dominating* if N[S] = V, a *connected dominating set* (CDS) if
additionally S is nonempty and G[S] is connected, and a *secure connected
dominating set* (SCDS) if every outside vertex u has a *defender*: an
adjacent v in S such that (S - {v}) | {u} is again a CDS.

``is_scds`` returns a :class:`SecurityCertificate` mapping every outside
vertex to its smallest-index defender, so certificates are deterministic
and replayable.  The swap test is evaluated exactly but without rebuilding
the world per swap:

* domination after the swap fails iff v privately dominates some vertex
  that u does not cover, so per defender we test one precomputed
  "privately dominated" mask against N[u];
* connectivity after the swap holds iff u has a neighbor in every
  component of G[S] - v, read off a single DFS of G[S] with articulation
  (lowpoint) information.

``verdict`` decides a set once: it returns the certificate (scds) or None
(ds, cds) for a passing set, and otherwise the first :class:`Failure` that
applies: ``undominated``, the smallest vertex outside N[S]; for cds and
scds ``disconnected``, the smallest vertex of S that a traversal of G[S]
from min(S) misses; for scds ``undefended``, the smallest outside vertex
with no defender, found by the defender loop that builds certificates.
The empty set on the empty graph has no vertex to blame:
``Failure(-1, "unknown")``.
An explanation costs about one ``is_scds``, never a CDS check per swap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Graph, iter_bits, reach_within


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


def _validated_mask(g: Graph, s: Iterable[int]) -> int:
    mask = 0
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
        mask |= 1 << v
    return mask


def _dominated(g: Graph, smask: int) -> int:
    """N[S] = S | N(S) as a mask."""
    nm = g.neighbor_masks()
    covered = smask
    for v in iter_bits(smask):
        covered |= nm[v]
    return covered


def is_dominating_mask(g: Graph, smask: int) -> bool:
    return _dominated(g, smask) == g.full_mask


def is_cds_mask(g: Graph, smask: int) -> bool:
    # The empty set is never a CDS, including on the empty graph.
    return bool(smask) and reach_within(g, smask) == smask and is_dominating_mask(g, smask)


def is_dominating(g: Graph, s: Iterable[int]) -> bool:
    """True iff the closed neighborhood of ``s`` covers every vertex."""
    return is_dominating_mask(g, _validated_mask(g, s))


def is_cds(g: Graph, s: Iterable[int]) -> bool:
    """True iff ``s`` is nonempty, induces a connected subgraph, and dominates."""
    return is_cds_mask(g, _validated_mask(g, s))


def _swap_structure(g: Graph, smask: int):
    """DFS data for swap connectivity plus private-domination masks.

    Requires G[smask] to be connected and nonempty.  Returns
    (crit, tin, sep, root) where crit[v] is the mask of vertices whose only
    dominator in S is v, and sep[v] lists the [tin, tout) intervals of the
    DFS subtrees that removing v separates from the rest of G[S].
    """
    nm = g.neighbor_masks()
    crit: dict[int, int] = {}
    for w in range(g.n):
        dom = (nm[w] | 1 << w) & smask
        if dom and not dom & (dom - 1):
            v = dom.bit_length() - 1
            crit[v] = crit.get(v, 0) | (1 << w)

    root = (smask & -smask).bit_length() - 1
    tin: dict[int, int] = {}
    low: dict[int, int] = {}
    sep: dict[int, list[tuple[int, int]]] = {}
    timer = 0
    stack: list[tuple[int, int]] = [(root, -1)]
    nbr_iter = {}
    while stack:
        v, parent = stack[-1]
        if v not in tin:
            tin[v] = low[v] = timer
            timer += 1
            nbr_iter[v] = iter_bits(nm[v] & smask)
        pushed = False
        for w in nbr_iter[v]:
            if w == parent:
                continue
            if w in tin:
                if tin[w] < low[v]:
                    low[v] = tin[w]
            else:
                stack.append((w, v))
                pushed = True
                break
        if not pushed:
            stack.pop()
            if parent != -1:
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if low[v] >= tin[parent]:
                    sep.setdefault(parent, []).append((tin[v], timer))
    return crit, tin, sep, root


def _defender_ok(smask, crit, sep, root, u_closed, v, u_nbr_tins) -> bool:
    # Domination: every vertex privately dominated by v must lie in N[u].
    if crit.get(v, 0) & ~u_closed:
        return False
    if not smask & (smask - 1):  # |S| == 1: the swap leaves the singleton {u}
        return True
    # Connectivity: u must touch every piece of G[S] - v.
    ranges = sep.get(v, ())
    unhit = len(ranges)
    hit = [False] * unhit
    touches_rest = False
    for tw, w in u_nbr_tins:
        if w == v:
            continue
        for i, (lo, hi) in enumerate(ranges):
            if lo <= tw < hi:
                if not hit[i]:
                    hit[i] = True
                    unhit -= 1
                break
        else:
            touches_rest = True
    if unhit:
        return False
    if v != root and not touches_rest:
        return False
    return True


def _defend(g: Graph, smask: int) -> tuple[dict[int, int], int]:
    """Smallest-index defenders of the outside vertices of the CDS ``smask``
    in increasing order, and the first of them with none (-1 if none lacks one)."""
    crit, tin, sep, root = _swap_structure(g, smask)
    nm = g.neighbor_masks()
    defended: dict[int, int] = {}
    for u in iter_bits(g.full_mask & ~smask):
        candidates = nm[u] & smask
        u_closed = nm[u] | 1 << u
        u_nbr_tins = [(tin[w], w) for w in iter_bits(candidates)]
        for v in iter_bits(candidates):  # ascending, so the defender is smallest-index
            if _defender_ok(smask, crit, sep, root, u_closed, v, u_nbr_tins):
                defended[u] = v
                break
        else:
            return defended, u
    return defended, -1


def is_scds_mask(g: Graph, smask: int) -> SecurityCertificate | None:
    if not is_cds_mask(g, smask):
        return None
    defended, undefended = _defend(g, smask)
    return None if undefended >= 0 else SecurityCertificate(defended=defended)


def is_scds(g: Graph, s: Iterable[int]) -> SecurityCertificate | None:
    """Certificate if ``s`` is a secure connected dominating set, else None.

    The whole vertex set of a connected graph always certifies (vacuously,
    with an empty defender map).
    """
    return is_scds_mask(g, _validated_mask(g, s))


def verdict(g: Graph, s: Iterable[int], problem: str) -> SecurityCertificate | Failure | None:
    """Decide the ``ds``, ``cds`` or ``scds`` check on ``s`` once: a
    :class:`SecurityCertificate` (scds) or None (ds, cds) if it passes, its
    :class:`Failure` if not; precedence and tie-breaks as in the module
    docstring."""
    if problem not in ("ds", "cds", "scds"):
        raise ValueError(f"unknown problem {problem!r}")
    smask = _validated_mask(g, s)
    undominated = g.full_mask & ~_dominated(g, smask)
    if undominated:
        return Failure((undominated & -undominated).bit_length() - 1, "undominated")
    if problem == "ds":
        return None
    if not smask:
        return Failure(-1, "unknown")
    unreached = smask & ~reach_within(g, smask)
    if unreached:
        return Failure((unreached & -unreached).bit_length() - 1, "disconnected")
    if problem == "cds":
        return None
    defended, undefended = _defend(g, smask)
    return Failure(undefended, "undefended") if undefended >= 0 else SecurityCertificate(defended)
