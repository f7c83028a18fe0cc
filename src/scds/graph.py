"""Immutable simple undirected graphs plus the vertex-set plumbing every
solver shares.

Vertices are dense 0-based indices; vertex subsets cross API boundaries as
``frozenset`` objects.  The text file format is documented on
:func:`parse_graph`.  A :class:`Graph` is its sorted adjacency tuples,
built in O(n + m) time and memory, and every function here stays linear.
Only the exact oracle uses bitmasks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable


class GraphFormatError(ValueError):
    """A graph text file could not be parsed."""


class DisconnectedGraphError(ValueError):
    """A connected graph was required but the input is disconnected."""


class Graph:
    """Simple undirected graph, immutable after construction.

    ``n`` is the vertex count, ``m`` the edge count.  Adjacency lists are
    strictly increasing tuples and symmetric; no self-loops or duplicate
    edges survive construction.  Instances are safe to share across threads.
    """

    __slots__ = ("n", "m", "_adj", "_maxdeg")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        # a set is made on a vertex's first edge: an isolated vertex costs one pointer
        nbrs: list[set[int] | None] = [None] * n
        for u, v in edges:
            if u > v:
                u, v = v, u
            if u < 0 or v >= n:
                raise ValueError(f"edge endpoint out of range: ({u},{v}) with n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            s = nbrs[u]
            if s is None:
                nbrs[u] = {v}
            else:
                s.add(v)
            s = nbrs[v]
            if s is None:
                nbrs[v] = {u}
            else:
                s.add(u)
        adj = tuple(tuple(sorted(s)) if s else () for s in nbrs)
        self.n = n
        self.m = sum(map(len, adj)) // 2
        self._adj = adj
        self._maxdeg = max(map(len, adj), default=0)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The sorted adjacency tuples by vertex; fetch once, then index."""
        return self._adj

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    @property
    def max_degree(self) -> int:
        return self._maxdeg

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            for v in self._adj[u]:
                if v > u:
                    out.append((u, v))
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Bipartition:
    """Two-coloring witness: every edge runs between ``left`` and ``right``."""

    left: frozenset[int]
    right: frozenset[int]


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0 (true for n <= 1)."""
    if g.n <= 1:
        return True
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        for w in g.neighbors(stack.pop()):
            if not seen[w]:
                seen[w] = True
                reached += 1
                stack.append(w)
    return reached == g.n


def pendant_and_support(g: Graph) -> tuple[frozenset[int], frozenset[int]]:
    """Degree-1 vertices and the set of their (unique) neighbors."""
    pendants = frozenset(v for v in range(g.n) if g.degree(v) == 1)
    supports = frozenset(g.neighbors(v)[0] for v in pendants)
    return pendants, supports


def scds_forced(g: Graph) -> frozenset[int]:
    """Pendants and supports when n >= 3 (every SCDS of a connected graph
    then contains them, so the exact oracle may force them), else nothing."""
    if g.n < 3:
        return frozenset()
    pendants, supports = pendant_and_support(g)
    return pendants | supports


def bipartition(g: Graph) -> Bipartition | None:
    """Deterministic 2-coloring, or None if the graph has an odd cycle.

    Vertex 0 (and the smallest vertex of every further component) goes left.
    One BFS over the adjacency lists decides: every edge is scanned from
    both ends, so a coloring found without a same-colored edge is valid.
    """
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    left = frozenset(v for v in range(g.n) if color[v] == 0)
    return Bipartition(left=left, right=frozenset(range(g.n)) - left)


def check_bipartition(g: Graph, parts: Bipartition) -> None:
    """Raise ValueError unless ``parts`` is a valid bipartition of ``g``; a
    fault of the sides comes before an edge inside the left, then the right."""
    placed = [False] * g.n
    for v in (*parts.left, *parts.right):
        if 0 <= v < g.n:
            placed[v] = True
    # n vertices placed by n entries in all: none repeats or is out of range
    if not all(placed) or len(parts.left) + len(parts.right) != g.n:
        raise ValueError("bipartition sides must partition the vertex set")
    if any(not parts.left.isdisjoint(g.neighbors(v)) for v in parts.left):
        raise ValueError("an edge lies inside the left side of the bipartition")
    # with no edge inside the left side, its degrees count the edges between the sides
    if sum(map(g.degree, parts.left)) != g.m:
        raise ValueError("an edge lies inside the right side of the bipartition")


_COUNT_WORDS = {2: "two", 3: "three"}


def read_header(
    text: str, names: str, noun: str, error: type[ValueError]
) -> tuple[list[int], list[tuple[int, str]]]:
    """The header counts of a counted text format and its data lines.

    Lines beginning ``#`` and blank lines are skipped.  The first data line
    is the header: one nonnegative integer per name in ``names`` (``"n m"``,
    ``"n m k"``), the second of which counts the ``noun`` lines that must
    follow.  Returns the header values and the remaining lines as
    (line number, stripped text); every fault raises ``error``.
    """
    data = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        data.append((lineno, line))
    if not data:
        raise error(f"missing header line '{names}'")
    lineno, header = data[0]
    fields = header.split()
    arity = len(names.split())
    if len(fields) != arity:
        raise error(f"line {lineno}: header must be '{names}'")
    try:
        counts = [int(f) for f in fields]
    except ValueError as exc:
        raise error(f"line {lineno}: header must be {_COUNT_WORDS[arity]} integers") from exc
    if min(counts) < 0:
        raise error(f"line {lineno}: negative counts in header")
    if len(data) - 1 != counts[1]:
        raise error(f"expected {counts[1]} {noun} lines, found {len(data) - 1}")
    return counts, data[1:]


MAX_VERTICES = 10**7  # so a short header cannot cost gigabytes; Graph() itself has no cap


def parse_graph(text: str) -> Graph:
    """Parse the canonical text format.

    Lines beginning ``#`` are comments.  The first data line is ``n m``;
    exactly ``m`` data lines ``u v`` follow.  Readers accept edges in any
    order and orientation; duplicates, self-loops, out-of-range endpoints
    and n above :data:`MAX_VERTICES` are errors.
    """
    (n, m), lines = read_header(text, "n m", "edge", GraphFormatError)
    if n > MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} exceeds the limit {MAX_VERTICES}")
    edges = []
    for lineno, line in lines:
        fields = line.split()
        if len(fields) != 2:
            raise GraphFormatError(f"line {lineno}: edge line must be 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: edge endpoints must be integers") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {lineno}: endpoint out of range")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop")
        edges.append((u, v))
    g = Graph(n, edges)
    if g.m != m:
        raise GraphFormatError("duplicate edge")
    return g


def format_graph(g: Graph) -> str:
    """Canonical text form: 'n m' then edges 'u v' (u < v) in lexicographic order."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_graph(g))
