"""Gadget constructors, forward witness builders and converse extractors.

Every constructor returns a :class:`ReductionArtifact` holding the gadget
graph, a label map from vertex index to the gadget's conventional vertex
name, the size-parameter offset (a target-size threshold l relates to the
source threshold k by l = k + offset), a structural witness where the
target graph class has one, and the set of vertices provably contained in
every optimum (pendants plus supports, or cut vertices), which makes the
desk-scale exact oracles feasible.

Index layout is fixed and documented per constructor: source vertices
first (where they survive), then new vertices in a stated order, so label
maps and golden files are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .certify import is_dominating, is_scds
from .exact import SetCoverInstance
from .graph import (
    Bipartition,
    DisconnectedGraphError,
    Graph,
    check_bipartition,
    is_connected,
)
from .graphclasses import TreeWitness

Witness = Union[tuple[int, ...], TreeWitness, None]


@dataclass(frozen=True)
class ReductionArtifact:
    kind: str
    graph: Graph
    labels: dict[int, str]
    param_offset: int
    forced: frozenset[int]
    witness: Witness
    source: Union[Graph, SetCoverInstance]


def _require_connected(g: Graph, what: str) -> None:
    if g.n == 0:
        raise ValueError(f"{what} requires a nonempty graph")
    if not is_connected(g):
        raise DisconnectedGraphError(f"{what} requires a connected graph")


def _require_kind(art: ReductionArtifact, kind: str) -> None:
    if art.kind != kind:
        raise ValueError(f"artifact kind {art.kind!r}, expected {kind!r}")


def _require_scds(art: ReductionArtifact, s: Iterable[int]) -> frozenset[int]:
    s = frozenset(s)
    if is_scds(art.graph, s) is None:
        raise ValueError("input set is not a secure connected dominating set of the gadget")
    return s


def _bipartite_source(
    g: Graph, parts: Bipartition, what: str, left_letter: str, right_letter: str
) -> tuple[list[int], list[int], list[tuple[int, int]], dict[int, str]]:
    """The checks and vertex data every bipartite-source gadget starts from.

    Requires ``g`` connected and ``parts`` a bipartition of it; returns the
    sorted left and right sides, the source edges, and labels naming the
    i-th vertex of each side ``<letter>_i``.
    """
    _require_connected(g, what)
    check_bipartition(g, parts)
    left, right = sorted(parts.left), sorted(parts.right)
    labels = {v: f"{left_letter}_{i + 1}" for i, v in enumerate(left)}
    labels.update({v: f"{right_letter}_{i + 1}" for i, v in enumerate(right)})
    return left, right, g.edges(), labels


# ---------------------------------------------------------------------------
# set cover -> doubly chordal graph


def setcover_to_doubly_chordal(inst: SetCoverInstance) -> ReductionArtifact:
    """Element vertices x_i, subset vertices c_j, a hub p and a pendant q.

    Edges: x_i ~ c_j for i in C_j; the subset vertices plus p form a
    clique; p is adjacent to every x_i; q hangs on p.  The identity
    ordering (x's, c's, p, q) is a doubly perfect elimination ordering.
    Covers of size k correspond to secure connected dominating sets of
    size k + 2.
    """
    n, m = inst.universe_size, len(inst.family)
    if n < 1:
        raise ValueError("set-cover reduction requires a nonempty universe")
    if not inst.is_feasible():
        raise ValueError("infeasible instance: the family does not cover the universe")
    p = n + m
    q = n + m + 1
    edges: list[tuple[int, int]] = []
    for j, subset in enumerate(inst.family):
        edges.extend((i, n + j) for i in sorted(subset))
    for a in range(m):
        for b in range(a + 1, m):
            edges.append((n + a, n + b))
    edges.extend((n + j, p) for j in range(m))
    edges.extend((i, p) for i in range(n))
    edges.append((p, q))
    labels = {i: f"x_{i + 1}" for i in range(n)}
    labels.update({n + j: f"c_{j + 1}" for j in range(m)})
    labels[p] = "p"
    labels[q] = "q"
    return ReductionArtifact(
        kind="setcover-dc",
        graph=Graph(n + m + 2, edges),
        labels=labels,
        param_offset=2,
        forced=frozenset({p, q}),
        witness=tuple(range(n + m + 2)),
        source=inst,
    )


def extract_set_cover(art: ReductionArtifact, s: Iterable[int]) -> tuple[int, ...]:
    """Read a cover of size <= |s| - 2 off an SCDS of the set-cover gadget.

    Subset vertices inside s are taken as is; each element vertex inside s
    is replaced by the smallest-index subset containing it.
    """
    _require_kind(art, "setcover-dc")
    s = _require_scds(art, s)
    inst: SetCoverInstance = art.source  # type: ignore[assignment]
    n = inst.universe_size
    chosen = {j for j in range(len(inst.family)) if (n + j) in s}
    for i in range(n):
        if i in s:
            chosen.add(min(j for j, subset in enumerate(inst.family) if i in subset))
    covered: set[int] = set()
    for j in chosen:
        covered |= inst.family[j]
    if len(covered) != n:
        raise RuntimeError("extracted subfamily does not cover the universe")
    if len(chosen) > len(s) - 2:
        raise RuntimeError("extracted cover exceeds the size bound")
    return tuple(sorted(chosen))


# ---------------------------------------------------------------------------
# domination (bipartite) -> star convex bipartite


def dom_to_star_convex(g: Graph, parts: Bipartition) -> ReductionArtifact:
    """Append a_x, a_y, b_x, b_y; a_x covers the right side, b_x the left.

    New edges: a_x ~ every right vertex, b_x ~ every left vertex, plus
    a_x ~ b_x, a_x ~ b_y, b_x ~ a_y (so a_y and b_y are pendants and a_x,
    b_x their supports).  The star centered at a_x over the left side plus
    a_y witnesses star convexity.  Dominating sets of size k correspond to
    secure connected dominating sets of size k + 4.
    """
    left, right, edges, labels = _bipartite_source(g, parts, "star-convex reduction", "a", "b")
    n = g.n
    a_x, a_y, b_x, b_y = n, n + 1, n + 2, n + 3
    edges += [(a_x, b) for b in right]
    edges += [(b_x, a) for a in left]
    edges += [(a_x, b_x), (a_x, b_y), (b_x, a_y)]
    labels.update({a_x: "a_x", a_y: "a_y", b_x: "b_x", b_y: "b_y"})
    star = Graph(n + 4, [(a_x, a) for a in left] + [(a_x, a_y)])
    return ReductionArtifact(
        kind="star-convex",
        graph=Graph(n + 4, edges),
        labels=labels,
        param_offset=4,
        forced=frozenset({a_x, a_y, b_x, b_y}),
        witness=TreeWitness(tree=star, kind="star"),
        source=g,
    )


# ---------------------------------------------------------------------------
# domination (bipartite) -> comb convex bipartite


def dom_to_comb_convex(g: Graph, parts: Bipartition) -> ReductionArtifact:
    """Append p primed pairs (a'_i, b'_i), a hub b_x and pendants a_x, a_y.

    With p the size of the left part: every primed a'_i is adjacent to the
    whole right side and to its private pendant b'_i; b_x is adjacent to
    all left vertices, all primed a'_i, and the pendants a_x, a_y.  The
    comb with backbone (a'_{p+1}, ..., a'_{2p}, a_x) and one tooth per
    backbone vertex witnesses comb convexity.  Dominating sets of size k
    correspond to secure connected dominating sets of size k + 2p + 3.
    """
    left, right, edges, labels = _bipartite_source(g, parts, "comb-convex reduction", "a", "b")
    n = g.n
    p = len(left)
    if p < 1:
        raise ValueError("comb-convex reduction requires a nonempty left side")
    prime_a = [n + i for i in range(p)]
    prime_b = [n + p + i for i in range(p)]
    a_x, a_y, b_x = n + 2 * p, n + 2 * p + 1, n + 2 * p + 2
    edges += [(pa, b) for pa in prime_a for b in right]
    edges += [(prime_a[i], prime_b[i]) for i in range(p)]
    edges += [(a, b_x) for a in left]
    edges += [(pa, b_x) for pa in prime_a]
    edges += [(a_x, b_x), (a_y, b_x)]
    labels.update({prime_a[i]: f"a'_{p + 1 + i}" for i in range(p)})
    labels.update({prime_b[i]: f"b'_{p + 1 + i}" for i in range(p)})
    labels.update({a_x: "a_x", a_y: "a_y", b_x: "b_x"})
    comb_edges = [(prime_a[i], prime_a[i + 1]) for i in range(p - 1)]
    comb_edges.append((prime_a[p - 1], a_x))
    comb_edges += [(prime_a[i], left[i]) for i in range(p)]
    comb_edges.append((a_x, a_y))
    comb = Graph(n + 2 * p + 3, comb_edges)
    return ReductionArtifact(
        kind="comb-convex",
        graph=Graph(n + 2 * p + 3, edges),
        labels=labels,
        param_offset=2 * p + 3,
        forced=frozenset(prime_a) | frozenset(prime_b) | {a_x, a_y, b_x},
        witness=TreeWitness(tree=comb, kind="comb"),
        source=g,
    )


# ---------------------------------------------------------------------------
# vertex cover -> chordal bipartite

# Index layout of the chordal-bipartite gadget.  Source vertex i owns the
# block 9i .. 9i + 8, named in _BLOCK order.  Source edge e = (i, j), in
# g.edges() order, owns 9n + 8e .. 9n + 8e + 7: p_ij, q_ij, r_ij, s_ij, then
# p_ji, q_ji, r_ji, s_ji.  t = 9n + 8m and u = t + 1 end the range.  The
# forced part is everything but x_i, y_i and z_i.
_BLOCK = ("a", "b", "z", "d", "f", "x", "y", "c", "e")
_X, _Y, _Z = _BLOCK.index("x"), _BLOCK.index("y"), _BLOCK.index("z")


def _vb(i: int, off: int) -> int:
    return 9 * i + off


def vc_to_chordal_bipartite(g: Graph) -> ReductionArtifact:
    """Chordal bipartite gadget: 9 vertices per source vertex, 8 per edge.

    Vertex block i is a two-row ladder fragment: bottom path
    a_i-b_i-z_i-d_i-f_i, top path x_i-y_i-c_i-e_i, rungs (b_i,x_i),
    (z_i,y_i), (d_i,c_i).  Each source edge (i,j) adds two 4-vertex
    attachments: p_ij-q_ij hanging off x_i with r_ij-s_ij hanging off y_j
    (joined by p_ij~r_ij), and the mirror-image one for (j,i).  On top of
    that, x_i and z_i are adjacent to every y_j, and two global vertices t
    (adjacent to all y's) and u (adjacent to all x's and z's) are joined by
    an edge.  Vertex covers of size k correspond to secure connected
    dominating sets of size 7n + 8m + k + 2.

    The source must have at least one edge.  An edgeless source is a
    vacuous cover instance, and its empty cover breaks the witness recipe:
    with no y_i selected, t is reachable only through u, so the x_i have
    no defender (the target size is still optimal there, but this witness
    shape is not secure).
    """
    _require_connected(g, "chordal-bipartite reduction")
    if g.m == 0:
        raise ValueError("chordal-bipartite reduction requires a source with an edge")
    n, m = g.n, g.m
    t = 9 * n + 8 * m
    u = t + 1
    ys = [_vb(j, _Y) for j in range(n)]
    edges: list[tuple[int, int]] = [(t, u)]
    labels = {t: "t", u: "u"}
    for i in range(n):
        a, b, z, d, f, x, y, c, e_ = (_vb(i, off) for off in range(9))
        edges += [(a, b), (b, z), (z, d), (d, f), (x, y), (y, c), (c, e_)]
        edges += [(b, x), (z, y), (d, c), (x, u), (z, u), (y, t)]
        edges += [(x, w) for w in ys] + [(z, w) for w in ys]
        labels.update({_vb(i, off): f"{name}_{i + 1}" for off, name in enumerate(_BLOCK)})
    for e, (i, j) in enumerate(g.edges()):
        first = 9 * n + 8 * e
        pij, qij, rij, sij, pji, qji, rji, sji = range(first, first + 8)
        edges += [(_vb(i, _X), pij), (pij, qij), (_vb(j, _Y), rij), (rij, sij), (pij, rij)]
        edges += [(_vb(j, _X), pji), (pji, qji), (_vb(i, _Y), rji), (rji, sji), (pji, rji)]
        ij, ji = f"{i + 1}{j + 1}", f"{j + 1}{i + 1}"
        names = [f"{c}_{ij}" for c in "pqrs"] + [f"{c}_{ji}" for c in "pqrs"]
        labels.update(zip(range(first, first + 8), names))
    fixed = [off for off in range(9) if off not in (_X, _Y, _Z)]
    forced = frozenset(_vb(i, off) for i in range(n) for off in fixed)
    return ReductionArtifact(
        kind="chordal-bipartite",
        graph=Graph(u + 1, edges),
        labels=labels,
        param_offset=7 * n + 8 * m + 2,
        forced=forced | frozenset(range(9 * n, u + 1)),
        witness=None,
        source=g,
    )


def scds_from_vertex_cover(art: ReductionArtifact, vc: Iterable[int]) -> frozenset[int]:
    """Certified SCDS of size exactly 7n + 8m + |vc| + 2 from a vertex cover.

    Takes the forced part (a..f of every block, every edge-attachment
    vertex, t and u), x_i and y_i for covered i, and z_i for uncovered i.
    """
    _require_kind(art, "chordal-bipartite")
    src: Graph = art.source  # type: ignore[assignment]
    vc = frozenset(vc)
    for v in vc:
        if not 0 <= v < src.n:
            raise ValueError(f"vertex {v} out of range for the source graph")
    if any(i not in vc and j not in vc for i, j in src.edges()):
        raise ValueError("input set is not a vertex cover of the source graph")
    s = set(art.forced)
    for i in range(src.n):
        s.update((_vb(i, _X), _vb(i, _Y)) if i in vc else (_vb(i, _Z),))
    out = frozenset(s)
    assert len(out) == art.param_offset + len(vc)
    if is_scds(art.graph, out) is None:
        raise RuntimeError("constructed set failed the security certification")
    return out


def extract_vertex_cover(art: ReductionArtifact, s: Iterable[int]) -> frozenset[int]:
    """Vertex cover {i : x_i and y_i in s} after pair normalization.

    When exactly one of x_i, y_i is present, the pair is completed by
    trading z_i in; the normalized set is re-certified and the extractor
    errors out rather than guessing if anything fails.
    """
    _require_kind(art, "chordal-bipartite")
    s = _require_scds(art, s)
    src: Graph = art.source  # type: ignore[assignment]
    work = set(s)
    for i in range(src.n):
        x, y, z = _vb(i, _X), _vb(i, _Y), _vb(i, _Z)
        if (x in work) != (y in work):
            if z not in work:
                raise ValueError(f"cannot normalize the x/y pair of source vertex {i}")
            work.discard(z)
            work.add(y if x in work else x)
    if is_scds(art.graph, work) is None:
        raise ValueError("pair normalization broke the security certificate")
    cover = frozenset(i for i in range(src.n) if _vb(i, _X) in work and _vb(i, _Y) in work)
    if any(i not in cover and j not in cover for i, j in src.edges()):
        raise ValueError("extracted set is not a vertex cover of the source graph")
    if len(cover) > len(s) - art.param_offset:
        raise ValueError("extracted cover exceeds the size bound")
    return cover


# ---------------------------------------------------------------------------
# domination -> secure connected domination (approximation-preserving)


def dom_to_mscds_general(g: Graph) -> ReductionArtifact:
    """Append a universal vertex w and a pendant z on w; offset 2."""
    _require_connected(g, "general inapproximability gadget")
    n = g.n
    w, z = n, n + 1
    edges = g.edges() + [(v, w) for v in range(n)] + [(w, z)]
    labels = {v: f"v_{v + 1}" for v in range(n)}
    labels.update({w: "w", z: "z"})
    return ReductionArtifact(
        kind="inapprox-general",
        graph=Graph(n + 2, edges),
        labels=labels,
        param_offset=2,
        forced=frozenset({w, z}),
        witness=None,
        source=g,
    )


def dom_to_mscds_bipartite(g: Graph, parts: Bipartition) -> ReductionArtifact:
    """Bipartiteness-preserving variant: side hubs w_1, z_1 plus pendants.

    z_1 is adjacent to the whole left side, w_1 to the whole right side;
    w_2 hangs on w_1, z_2 on z_1, and w_1 ~ z_1 ties the hubs together.
    Offset 4; the gadget stays bipartite with sides left + {w_1, z_2} and
    right + {z_1, w_2}.
    """
    what = "bipartite inapproximability gadget"
    left, right, edges, labels = _bipartite_source(g, parts, what, "x", "y")
    n = g.n
    w1, w2, z1, z2 = n, n + 1, n + 2, n + 3
    edges += [(x, z1) for x in left]
    edges += [(y, w1) for y in right]
    edges += [(w1, w2), (z1, z2), (w1, z1)]
    labels.update({w1: "w_1", w2: "w_2", z1: "z_1", z2: "z_2"})
    return ReductionArtifact(
        kind="inapprox-bipartite",
        graph=Graph(n + 4, edges),
        labels=labels,
        param_offset=4,
        forced=frozenset({w1, w2, z1, z2}),
        witness=None,
        source=g,
    )


# The gadgets that keep the source vertices at their indices, so an SCDS of
# the gadget meets the source in a dominating set of it.
_DS_GADGETS = ("star-convex", "comb-convex", "inapprox-general", "inapprox-bipartite", "apx-deg4")


def extract_ds_from_gadget(art: ReductionArtifact, s: Iterable[int]) -> frozenset[int]:
    """Intersect an SCDS of a domination gadget with the source vertices.

    Covers the star-convex, comb-convex, both inapproximability and the
    bounded-degree gadgets; the result dominates the source graph.
    """
    if art.kind not in _DS_GADGETS:
        raise ValueError(f"artifact kind {art.kind!r} is not a domination gadget")
    s = _require_scds(art, s)
    src: Graph = art.source  # type: ignore[assignment]
    out = s & frozenset(range(src.n))
    if not is_dominating(src, out):
        raise RuntimeError("extracted set does not dominate the source graph")
    return out


# ---------------------------------------------------------------------------
# domination with max degree 3 -> secure connected domination, max degree 4


def dom3_to_mscds_apx(g: Graph) -> ReductionArtifact:
    """Constant-blowup gadget for degree-3 sources: a spine of x's plus pendants.

    Each source vertex v_i gets a private x_i (adjacent to v_i) carrying a
    pendant y_i; consecutive x's are joined into a path, so the gadget has
    maximum degree 4 and 3n vertices.  Minimum dominating sets of the
    source and minimum secure connected dominating sets of the gadget
    differ by exactly 2n.
    """
    _require_connected(g, "bounded-degree gadget")
    if g.max_degree > 3:
        raise ValueError("bounded-degree gadget requires maximum degree at most 3")
    n = g.n
    edges = g.edges()
    edges += [(i, n + i) for i in range(n)]
    edges += [(n + i, 2 * n + i) for i in range(n)]
    edges += [(n + i, n + i + 1) for i in range(n - 1)]
    labels = {v: f"v_{v + 1}" for v in range(n)}
    labels.update({n + i: f"x_{i + 1}" for i in range(n)})
    labels.update({2 * n + i: f"y_{i + 1}" for i in range(n)})
    return ReductionArtifact(
        kind="apx-deg4",
        graph=Graph(3 * n, edges),
        labels=labels,
        param_offset=2 * n,
        forced=frozenset(range(n, 3 * n)),
        witness=None,
        source=g,
    )


# ---------------------------------------------------------------------------
# GC family: trivial secure connected domination, hard domination


def gc_graph(g: Graph) -> ReductionArtifact:
    """Hang a private path v_i - x_i - a_i ending in a triangle per vertex.

    For each source vertex v_i, add x_i adjacent to v_i and to a_i, where
    {a_i, b_i, c_i} forms a triangle.  The gadget has 5n vertices; its
    secure connected domination number is exactly 4n, while dominating
    sets transfer with offset n.
    """
    _require_connected(g, "GC construction")
    n = g.n
    edges = g.edges()
    for i in range(n):
        x, a, b, c = n + i, 2 * n + i, 3 * n + i, 4 * n + i
        edges += [(i, x), (x, a), (a, b), (a, c), (b, c)]
    labels = {v: f"v_{v + 1}" for v in range(n)}
    for i in range(n):
        labels[n + i] = f"x_{i + 1}"
        labels[2 * n + i] = f"a_{i + 1}"
        labels[3 * n + i] = f"b_{i + 1}"
        labels[4 * n + i] = f"c_{i + 1}"
    # v_i, x_i, a_i are cut vertices (v_i is a pendant instead when n == 1),
    # so they sit inside every connected dominating set.
    return ReductionArtifact(
        kind="gc",
        graph=Graph(5 * n, edges),
        labels=labels,
        param_offset=n,
        forced=frozenset(range(3 * n)),
        witness=None,
        source=g,
    )


def gc_canonical_scds(art: ReductionArtifact) -> frozenset[int]:
    """The certified optimum-size set: all v's, x's, a's and b's (4n vertices)."""
    _require_kind(art, "gc")
    src: Graph = art.source  # type: ignore[assignment]
    out = frozenset(range(4 * src.n))
    if is_scds(art.graph, out) is None:
        raise RuntimeError("canonical set failed the security certification")
    return out


def gc_ds_transfer(art: ReductionArtifact, d: Iterable[int], direction: str) -> frozenset[int]:
    """Move dominating sets across the GC construction.

    ``to-gadget``: add every a_i (size grows by n).  ``from-gadget``:
    replace each x_i by v_i and drop the triangle vertices.
    """
    _require_kind(art, "gc")
    src: Graph = art.source  # type: ignore[assignment]
    n = src.n
    d = frozenset(d)
    if direction == "to-gadget":
        if not is_dominating(src, d):
            raise ValueError("input set does not dominate the source graph")
        out = d | frozenset(range(2 * n, 3 * n))
        if not is_dominating(art.graph, out):
            raise RuntimeError("transfer failed to dominate the gadget")
        return out
    if direction == "from-gadget":
        if not is_dominating(art.graph, d):
            raise ValueError("input set does not dominate the gadget")
        swapped = {(v - n) if n <= v < 2 * n else v for v in d}
        out = frozenset(v for v in swapped if v < n)
        if not is_dominating(src, out):
            raise RuntimeError("transfer failed to dominate the source")
        return out
    raise ValueError(f"unknown direction {direction!r}")
