import random

import pytest

from bruteforce import greedy_naive, induced_subgraph, min_ds_naive
from helpers import (
    all_graphs,
    complete,
    connected_graphs,
    cycle,
    path,
    random_connected,
    sparse_connected,
    star,
)
from scds import (
    BudgetExceededError,
    DisconnectedGraphError,
    Graph,
    approx_scds,
    dom_set_approx,
    greedy_cds,
    greedy_ds,
    is_cds,
    is_dominating,
    is_scds,
    min_ds,
    min_scds,
)
from scds.graph import is_connected


def approx_solver(g):
    return approx_scds(g).d_sc


def test_greedy_ds_examples():
    assert greedy_ds(star(4)) == frozenset({0})
    assert greedy_ds(path(3)) == frozenset({1})
    out = greedy_ds(cycle(6))
    assert out == frozenset({0, 3})
    assert is_dominating(cycle(6), out) and len(out) <= 3


def test_greedy_ds_is_dominating_on_anything():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for p in pairs if rng.random() < 0.3]
        g = Graph(n, edges)  # possibly disconnected
        assert is_dominating(g, greedy_ds(g))
    assert greedy_ds(Graph(0, [])) == frozenset()


def test_greedy_cds_examples():
    assert greedy_cds(complete(4)) == frozenset({0})
    assert greedy_cds(path(5)) == frozenset({1, 2, 3})
    assert greedy_cds(cycle(4)) == frozenset({0, 1})
    with pytest.raises(DisconnectedGraphError):
        greedy_cds(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        greedy_cds(Graph(0, []))
    assert greedy_cds(Graph(1, [])) == frozenset({0})


def test_greedy_cds_output_is_cds():
    rng = random.Random(8)
    for _ in range(40):
        g = random_connected(rng.randint(1, 9), rng)
        out = greedy_cds(g)
        assert is_cds(g, out)
        assert out == greedy_cds(g)  # deterministic


def _assert_greedy_matches_reference(g):
    everything = set(range(g.n))
    assert greedy_ds(g) == greedy_naive(g, everything)
    if g.n == 0 or not is_connected(g):
        return
    root = min(v for v in range(g.n) if g.degree(v) == g.max_degree)
    assert greedy_cds(g) == greedy_naive(g, everything, root)
    out = approx_scds(g)
    assert out.d == greedy_naive(g, everything - out.d_c)


def test_greedy_matches_definition_exhaustively():
    for n in range(6):
        for g in all_graphs(n):
            _assert_greedy_matches_reference(g)


def test_greedy_matches_definition_on_sparse_graphs():
    rng = random.Random(31)
    for seed in range(200):
        _assert_greedy_matches_reference(sparse_connected(rng.randint(2, 300), seed))


def test_approx_scds_examples():
    out = approx_scds(complete(3))
    assert (out.d_c, out.d, out.d_sc) == (frozenset({0}), frozenset({1}), frozenset({0, 1}))
    assert out.ratio_bound == 3
    out = approx_scds(path(3))
    assert (out.d_c, out.d_sc) == (frozenset({1}), frozenset({0, 1, 2}))
    out = approx_scds(star(4))
    assert out.d_sc == frozenset(range(5))
    with pytest.raises(DisconnectedGraphError):
        approx_scds(Graph(4, [(0, 1), (2, 3)]))


def test_approx_scds_invariants():
    rng = random.Random(14)
    for _ in range(40):
        g = random_connected(rng.randint(1, 9), rng)
        out = approx_scds(g)
        assert out.d_sc == out.d_c | out.d
        assert out.d.isdisjoint(out.d_c)
        assert len(out.d_sc) <= g.n
        assert is_scds(g, out.d_sc) is not None
        assert out.ratio_bound == g.max_degree + 1
        gamma_sc = min_scds(g).size
        assert len(out.d_sc) <= out.ratio_bound * gamma_sc


def test_residual_dominated_per_component():
    # removing the first-stage set splits the rest into two components
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (5, 6), (2, 6)])
    out = approx_scds(g)
    rest = frozenset(range(7)) - out.d_c
    for v in rest:
        assert v in out.d or any(w in out.d for w in g.neighbors(v) if w in rest)


def test_stage_two_matches_greedy_on_induced_subgraph():
    # oracle: the stage-two set is greedy_ds on the induced residual subgraph,
    # mapped back to the original labels
    rng = random.Random(23)
    graphs = [sparse_connected(rng.randint(20, 200), seed) for seed in range(12)]
    graphs += [random_connected(rng.randint(2, 40), rng, prob=0.15) for _ in range(12)]
    split = 0
    for g in graphs:
        out = approx_scds(g)
        rest = sorted(frozenset(range(g.n)) - out.d_c)
        sub, back = induced_subgraph(g, rest)
        assert out.d == frozenset(back[i] for i in greedy_ds(sub))
        split += not is_connected(sub)
    assert split >= 5  # many residuals fall apart into several components


def test_approx_scds_tiny_residuals():
    out = approx_scds(Graph(1, []))  # residual empty
    assert (out.d_c, out.d, out.d_sc, out.ratio_bound) == (
        frozenset({0}), frozenset(), frozenset({0}), 1)
    out = approx_scds(star(1))  # residual is the single leaf
    assert (out.d_c, out.d, out.d_sc) == (frozenset({0}), frozenset({1}), frozenset({0, 1}))
    out = approx_scds(star(5))  # residual is five one-vertex components
    assert (out.d_c, out.d) == (frozenset({0}), frozenset(range(1, 6)))


def test_dom_set_approx_direct_branch():
    assert dom_set_approx(path(3), 1, approx_solver) == frozenset({1})
    assert dom_set_approx(complete(4), 1, approx_solver) == frozenset({0})
    # optimal when the direct branch fires
    rng = random.Random(17)
    for _ in range(10):
        g = random_connected(rng.randint(2, 7), rng)
        k = min_ds(g).size
        assert len(dom_set_approx(g, k, approx_solver)) == k
    # whenever the bounded search succeeds it returns the brute-force witness:
    # the smallest dominating set, lexicographically first among ties
    for n in range(1, 6):
        for g in connected_graphs(n):
            gamma, witness = min_ds_naive(g)
            for k in range(gamma, n + 2):
                assert dom_set_approx(g, k, approx_solver) == frozenset(witness)


def test_dom_set_approx_gadget_branch():
    c5 = cycle(5)
    d = dom_set_approx(c5, 1, approx_solver)
    assert is_dominating(c5, d)
    d = dom_set_approx(star(4), 1, lambda g: frozenset(range(g.n)))
    assert d == frozenset({0})  # direct branch: the center dominates


def test_dom_set_approx_errors():
    with pytest.raises(ValueError):
        dom_set_approx(path(3), 0, approx_solver)
    with pytest.raises(DisconnectedGraphError):
        dom_set_approx(Graph(4, [(0, 1), (2, 3)]), 1, approx_solver)
    with pytest.raises(BudgetExceededError):
        dom_set_approx(random_connected(12, random.Random(0)), 6, approx_solver, budget=10)
    with pytest.raises(ValueError):
        # a solver that returns garbage is rejected
        dom_set_approx(cycle(5), 1, lambda g: frozenset({0}))


def test_dom_set_approx_budget_boundary():
    # sizes 0..6 out of 12 vertices: 1 + 12 + 66 + 220 + 495 + 792 + 924 = 2510
    g = random_connected(12, random.Random(0))
    assert is_dominating(g, dom_set_approx(g, 6, approx_solver, budget=2510))
    with pytest.raises(BudgetExceededError) as info:
        dom_set_approx(g, 6, approx_solver, budget=2509)
    assert str(info.value) == "free-choice space 2510 exceeds budget 2509"
