import pytest

from bruteforce import is_chain_naive, min_scds_naive
from helpers import complete_bipartite, connected_graphs, cycle, path, star
from scds import (
    ChainOrdering,
    DisconnectedGraphError,
    Graph,
    bipartition,
    chain_optimality_report,
    chain_ordering,
    chain_scds_upper_bound,
    is_scds,
    random_chain_graph,
)
from scds.graph import Bipartition


def _ordering(g):
    parts = bipartition(g)
    assert parts is not None
    return chain_ordering(g, parts)


def test_recognition_examples():
    assert _ordering(complete_bipartite(2, 3)) is not None
    assert _ordering(cycle(6)) is None
    order = _ordering(path(4))
    assert order == ChainOrdering(x_order=(0, 2), y_order=(1, 3))


def test_recognition_matches_2k2_freeness_exhaustively():
    chains = others = 0
    for n in range(1, 7):
        for g in connected_graphs(n):
            parts = bipartition(g)
            if parts is None:
                continue
            is_chain = chain_ordering(g, parts) is not None
            assert is_chain == is_chain_naive(g), g.edges()
            chains += is_chain
            others += not is_chain
    assert chains > 100 and others > 100  # both answers are exercised


def test_recognition_requires_connected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        chain_ordering(g, bipartition(g))


def test_construction_degenerate_star():
    g = star(3)  # one side is a single vertex
    order = _ordering(g)
    assert chain_scds_upper_bound(g, order) == frozenset(range(4))


def test_construction_rejects_empty_graph():
    g = Graph(0, [])
    order = _ordering(g)  # the empty graph is trivially a chain graph
    assert order == ChainOrdering(x_order=(), y_order=())
    with pytest.raises(ValueError, match="^the empty graph has no secure connected dominating set$"):
        chain_scds_upper_bound(g, order)


def test_construction_k23():
    g = complete_bipartite(2, 3)
    order = _ordering(g)
    out = chain_scds_upper_bound(g, order)
    # y-order is (4, 3, 2) under the descending sort, x-order is (0, 1)
    assert out == frozenset({0, 1, 3, 4})
    assert len(out) == 4
    assert is_scds(g, out) is not None


def test_construction_staircase_all_vertices():
    # left degrees 1,2,3 over three right vertices: both fringe vertices are
    # pendants, so the construction returns everything
    g = Graph(6, [(0, 3), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5)])
    order = _ordering(g)
    assert chain_scds_upper_bound(g, order) == frozenset(range(6))


def test_construction_rejects_bad_ordering():
    g = complete_bipartite(2, 3)
    with pytest.raises(ValueError):
        chain_scds_upper_bound(g, ChainOrdering(x_order=(0, 1), y_order=(2, 3)))
    g2 = Graph(6, [(0, 3), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5)])
    with pytest.raises(ValueError):
        chain_scds_upper_bound(g2, ChainOrdering(x_order=(2, 1, 0), y_order=(3, 4, 5)))


def test_reports_confirm_the_two_gaps():
    # independent oracle first: the exact optimum of both complete bipartite
    # instances is 3, strictly below the size-4 construction
    k22 = complete_bipartite(2, 2)
    k23 = complete_bipartite(2, 3)
    assert min_scds_naive(k22)[0] == 3
    assert min_scds_naive(k23)[0] == 3
    for g in (k22, k23):
        rep = chain_optimality_report(g, _ordering(g))
        assert (rep.construction_size, rep.exact_size, rep.gap) == (4, 3, 1)


def test_report_gap_zero_on_pendant_saturated():
    g = path(4)
    rep = chain_optimality_report(g, _ordering(g))
    assert (rep.construction_size, rep.exact_size, rep.gap) == (4, 4, 0)


def test_generated_chain_graphs_certify():
    for seed in range(10):
        g = random_chain_graph(3 + seed, 4 + seed, seed=seed)
        p = 3 + seed
        parts = Bipartition(frozenset(range(p)), frozenset(range(p, g.n)))
        order = chain_ordering(g, parts)
        assert order is not None
        out = chain_scds_upper_bound(g, order)
        assert is_scds(g, out) is not None
        rep = chain_optimality_report(g, order)
        assert rep.gap >= 0
