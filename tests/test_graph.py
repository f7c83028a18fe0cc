import random
import tracemalloc

import pytest

from bruteforce import induced_subgraph, reach_naive
from helpers import all_graphs, complete, cycle, path, star
from scds import Graph, GraphFormatError, bipartition, is_connected, pendant_and_support
from scds.graph import (
    check_bipartition,
    format_graph,
    mask_from,
    parse_graph,
    reach_within,
    scds_forced,
)


def test_constructor_p3():
    g = path(3)
    assert [g.degree(v) for v in range(3)] == [1, 2, 1]
    assert g.m == 2


def test_constructor_c4():
    g = cycle(4)
    assert g.max_degree == 2
    assert g.m == 4


def test_constructor_dedups():
    # oracle: insert normalized pairs into a set and compare
    raw = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 0)]
    expected = {tuple(sorted(e)) for e in raw}
    g = Graph(4, raw)
    assert g.m == len(expected)
    assert set(g.edges()) == expected
    # independent of input order
    g2 = Graph(4, list(reversed(raw)))
    assert g == g2


def test_constructor_errors():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(-1, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_adjacency_invariants_random():
    rng = random.Random(0)
    for _ in range(40):
        n = rng.randint(1, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for p in pairs if rng.random() < 0.4]
        g = Graph(n, edges)
        for u, v in g.edges():
            assert v in g.neighbors(u) and u in g.neighbors(v)
        for v in range(n):
            nbrs = g.neighbors(v)
            assert list(nbrs) == sorted(set(nbrs))
        assert sum(g.degree(v) for v in range(n)) == 2 * g.m
        assert g.max_degree == max((g.degree(v) for v in range(n)), default=0)


def test_is_connected():
    assert is_connected(path(3))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
    # C4 minus one edge: breadth-first oracle agrees
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = [w for v in frontier for w in g.neighbors(v) if w not in seen]
        seen.update(nxt)
        frontier = nxt
    assert is_connected(g) == (len(seen) == 4) == True  # noqa: E712
    assert is_connected(Graph(1, []))
    assert is_connected(Graph(0, []))


def test_masks_match_adjacency():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, [p for p in pairs if rng.random() < 0.4])
        for v in range(n):
            assert g.neighbor_mask(v) == mask_from(g.neighbors(v))
            assert g.closed_mask(v) == g.neighbor_mask(v) | 1 << v
    # the first mask call may be either accessor
    assert path(3).closed_mask(0) == 0b011


def test_edgeless_header_parses_and_rejects_in_linear_memory():
    # 20000 isolated vertices: one n-bit row or mask per vertex would take 50 MB
    tracemalloc.start()
    try:
        g = parse_graph("20000 0\n")
        assert (g.n, g.m, g.max_degree) == (20000, 0, 0)
        assert not is_connected(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_pendant_and_support():
    assert pendant_and_support(path(3)) == (frozenset({0, 2}), frozenset({1}))
    assert pendant_and_support(cycle(4)) == (frozenset(), frozenset())
    assert pendant_and_support(star(4)) == (frozenset({1, 2, 3, 4}), frozenset({0}))


def test_scds_forced():
    assert scds_forced(path(2)) == frozenset()  # n < 3: both vertices are pendants
    assert scds_forced(path(4)) == frozenset(range(4))
    assert scds_forced(star(3)) == frozenset(range(4))
    assert scds_forced(cycle(5)) == frozenset()


def test_reach_within_matches_naive_search():
    assert reach_within(path(4), 0) == 0
    assert reach_within(path(4), mask_from({0, 1, 3})) == mask_from({0, 1})
    assert reach_within(path(4), mask_from({1, 2, 3})) == mask_from({1, 2, 3})
    for g in all_graphs(4):
        for mask in range(1, 1 << g.n):
            s = {v for v in range(g.n) if mask >> v & 1}
            assert reach_within(g, mask) == mask_from(reach_naive(g, s))


def test_pendant_has_unique_neighbor_in_supports():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for p in pairs if rng.random() < 0.3]
        g = Graph(n, edges)
        pendants, supports = pendant_and_support(g)
        for v in pendants:
            assert g.degree(v) == 1
            assert g.neighbors(v)[0] in supports


def test_bipartition():
    parts = bipartition(cycle(4))
    assert (parts.left, parts.right) == (frozenset({0, 2}), frozenset({1, 3}))
    assert bipartition(complete(3)) is None
    parts = bipartition(cycle(6))
    assert (parts.left, parts.right) == (frozenset({0, 2, 4}), frozenset({1, 3, 5}))


def test_bipartition_certifies_by_edge_scan():
    for g in all_graphs(5):
        parts = bipartition(g)
        two_colorable = any(
            all((c >> u & 1) != (c >> v & 1) for u, v in g.edges()) for c in range(1 << g.n)
        )
        assert (parts is None) != two_colorable
        if parts is None:
            continue
        assert 0 in parts.left or g.n == 0
        for u, v in g.edges():
            assert (u in parts.left) != (v in parts.left)
        check_bipartition(g, parts)  # must not raise


def test_bipartition_builds_no_masks():
    for g in (cycle(6), complete(3), Graph(3, [])):
        bipartition(g)
        assert not hasattr(g, "_nmask")


def test_check_bipartition_rejects_bad_parts():
    from scds.graph import Bipartition

    g = path(3)
    with pytest.raises(ValueError):
        check_bipartition(g, Bipartition(frozenset({0, 1}), frozenset({2})))
    with pytest.raises(ValueError):
        check_bipartition(g, Bipartition(frozenset({0}), frozenset({2})))


def test_induced_subgraph():
    g = cycle(5)
    sub, back = induced_subgraph(g, [1, 2, 4])
    assert sub.n == 3 and back == (1, 2, 4)
    assert sub.edges() == [(0, 1)]  # only 1-2 survives


def test_format_parse_roundtrip():
    g = Graph(4, [(2, 3), (0, 1), (1, 2)])
    text = format_graph(g)
    assert text == "4 3\n0 1\n1 2\n2 3\n"
    assert parse_graph(text) == g


def test_parse_accepts_any_order_and_comments():
    text = "# a comment\n4 3\n2 3\n\n1 0\n# another\n2 1\n"
    g = parse_graph(text)
    assert g == Graph(4, [(0, 1), (1, 2), (2, 3)])


def test_parse_errors():
    for bad in (
        "",
        "# only comments\n",
        "2\n",
        "2 1\n",               # missing edge line
        "2 1\n0 1\n0 1\n",     # extra edge line
        "2 2\n0 1\n1 0\n",     # duplicate edge after normalization
        "2 1\n0 2\n",          # out of range
        "2 1\n1 1\n",          # self-loop
        "2 1\n0 x\n",
        "x y\n0 1\n",
    ):
        with pytest.raises(GraphFormatError):
            parse_graph(bad)
