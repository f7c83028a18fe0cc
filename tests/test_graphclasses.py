import itertools
import random

import pytest

from bruteforce import chordless_cycles_naive, closed, dpeo_naive, nbrs, peo_naive
from helpers import all_graphs, complete, cycle, path
from scds import (
    Graph,
    SetCoverInstance,
    TreeWitness,
    bipartition,
    check_dpeo,
    check_peo,
    chordal_bipartite_check_bounded,
    setcover_to_doubly_chordal,
    validate_tree_convex,
    vc_to_chordal_bipartite,
)
from scds.graph import Bipartition


def test_check_peo_examples():
    k3 = complete(3)
    for order in itertools.permutations(range(3)):
        assert check_peo(k3, order)
    c4 = cycle(4)
    for order in itertools.permutations(range(4)):
        assert not check_peo(c4, order)
    assert check_peo(path(4), (0, 3, 1, 2))
    assert not check_peo(path(4), (1, 0, 2, 3))


def test_check_dpeo_examples():
    k3 = complete(3)
    for order in itertools.permutations(range(3)):
        assert check_dpeo(k3, order)
    c4 = cycle(4)
    for order in itertools.permutations(range(4)):
        assert not check_dpeo(c4, order)


def test_setcover_gadget_ordering_is_dpeo():
    inst = SetCoverInstance(3, (frozenset({0, 1}), frozenset({1, 2})))
    art = setcover_to_doubly_chordal(inst)
    assert check_dpeo(art.graph, art.witness)


def test_dpeo_implies_peo():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(1, 6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for p in pairs if rng.random() < 0.5]
        g = Graph(n, edges)
        order = list(range(n))
        rng.shuffle(order)
        if check_dpeo(g, order):
            assert check_peo(g, order)


def test_non_permutation_is_rejected():
    with pytest.raises(ValueError):
        check_peo(path(3), (0, 1))
    with pytest.raises(ValueError):
        check_dpeo(path(3), (0, 0, 2))


def test_validate_tree_convex_star_and_path():
    c6 = cycle(6)
    parts = bipartition(c6)
    path_tree = Graph(6, [(0, 2), (2, 4)])
    assert not validate_tree_convex(c6, parts, TreeWitness(path_tree, "general"))
    # K_{2,3}-ish: a star over {0,2,4} centered anywhere is convex for C6? no -
    # use a genuinely convex instance instead: P4 with a path tree on {0,2}
    p4 = path(4)
    pparts = bipartition(p4)
    tree = Graph(4, [(0, 2)])
    assert validate_tree_convex(p4, pparts, TreeWitness(tree, "star"))


def test_validate_tree_convex_witness_errors():
    c6 = cycle(6)
    parts = bipartition(c6)
    not_spanning = Graph(6, [(0, 2)])
    with pytest.raises(ValueError):
        validate_tree_convex(c6, parts, TreeWitness(not_spanning, "general"))
    off_side = Graph(6, [(0, 1), (0, 3)])
    with pytest.raises(ValueError):
        validate_tree_convex(c6, parts, TreeWitness(off_side, "general"))
    star_claim = Graph(6, [(0, 2), (2, 4)])
    with pytest.raises(ValueError):
        validate_tree_convex(c6, parts, TreeWitness(star_claim, "comb"))
    with pytest.raises(ValueError):
        validate_tree_convex(c6, parts, TreeWitness(star_claim, "banana"))


def test_comb_shape_recognition():
    # P4 over a 4-vertex left side is a comb (backbone = middle two)
    left = frozenset({0, 1, 2, 3})
    g = Graph(8, [(0, 4), (1, 4), (2, 4), (3, 4)])  # host, unused shape
    host_parts = Bipartition(left, frozenset({4, 5, 6, 7}))
    comb = Graph(8, [(0, 1), (1, 2), (2, 3)])
    assert validate_tree_convex(g, host_parts, TreeWitness(comb, "comb"))
    non_comb = Graph(8, [(0, 1), (0, 2), (0, 3)])  # star, no 1-tooth split
    with pytest.raises(ValueError):
        validate_tree_convex(g, host_parts, TreeWitness(non_comb, "comb"))


def test_chordal_bipartite_examples():
    c6 = cycle(6)
    verdict = chordal_bipartite_check_bounded(c6, 6)
    assert not verdict.passed and verdict.cycle == (0, 1, 2, 3, 4, 5)
    chorded = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    assert chordal_bipartite_check_bounded(chorded, 6).passed
    art = vc_to_chordal_bipartite(Graph(2, [(0, 1)]))
    assert chordal_bipartite_check_bounded(art.graph, 8).passed


def test_chordal_bipartite_monotone_and_errors():
    chorded = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    assert chordal_bipartite_check_bounded(chorded, 8).passed
    assert chordal_bipartite_check_bounded(chorded, 6).passed
    c8 = cycle(8)
    assert not chordal_bipartite_check_bounded(c8, 8).passed
    assert chordal_bipartite_check_bounded(c8, 6).passed  # no 6-cycle in C8
    with pytest.raises(ValueError):
        chordal_bipartite_check_bounded(cycle(6), 7)
    with pytest.raises(ValueError):
        chordal_bipartite_check_bounded(cycle(6), 4)
    with pytest.raises(ValueError):
        chordal_bipartite_check_bounded(complete(3), 6)


def _elimination_order(g, rng):
    """A seeded order that is often a (doubly) perfect elimination ordering:
    each step takes a random residual vertex with a maximum neighbour if one
    is simplicial, else a random simplicial one, else any."""
    residual, order = set(range(g.n)), []
    while residual:
        simplicial, doubly = [], []
        for v in sorted(residual):
            hood = closed(g, v) & residual
            if all(b in nbrs(g, a) for a, b in itertools.combinations(hood - {v}, 2)):
                simplicial.append(v)
                if any(all(closed(g, w) & residual <= closed(g, u) for w in hood) for u in hood):
                    doubly.append(v)
        v = rng.choice(doubly or simplicial or sorted(residual))
        order.append(v)
        residual.remove(v)
    return order


def test_elimination_checks_match_definition():
    for n in range(5):  # every graph and every order
        for g in all_graphs(n):
            for order in itertools.permutations(range(n)):
                assert check_peo(g, order) == peo_naive(g, order), (g.edges(), order)
                assert check_dpeo(g, order) == dpeo_naive(g, order), (g.edges(), order)
    rng = random.Random(22)
    seen = set()
    for _ in range(300):
        n = rng.randint(5, 8)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, [e for e in pairs if rng.random() < rng.choice((0.3, 0.6, 0.85))])
        for order in (rng.sample(range(n), n), _elimination_order(g, rng)):
            peo, dpeo = check_peo(g, order), check_dpeo(g, order)
            assert (peo, dpeo) == (peo_naive(g, order), dpeo_naive(g, order)), (g.edges(), order)
            seen.add((peo, dpeo))
    assert seen == {(False, False), (True, False), (True, True)}


def _assert_matches_induced_cycles(g, max_len):
    found = chordal_bipartite_check_bounded(g, max_len)
    cycles = chordless_cycles_naive(g, range(6, max_len + 1, 2))
    assert found.passed == (not cycles) and found.bound == max_len, (g.edges(), max_len)
    if found.cycle is not None:
        c = found.cycle
        assert frozenset(c) in cycles and len(c) == len(set(c))  # induced, of an allowed length
        assert all(c[i - 1] in nbrs(g, c[i]) for i in range(len(c)))  # in cycle order
        assert c[0] == min(c)
    return found.cycle is not None


def test_chordal_bipartite_check_matches_induced_cycles():
    found = 0
    for p in range(1, 7):  # every p x q biadjacency matrix with p + q <= 7
        for q in range(1, 8 - p):
            pairs = [(x, p + y) for x in range(p) for y in range(q)]
            for emask in range(1 << len(pairs)):
                g = Graph(p + q, [pairs[i] for i in range(len(pairs)) if emask >> i & 1])
                found += _assert_matches_induced_cycles(g, 8)
    assert found > 300
    found = 0
    rng = random.Random(22)
    for _ in range(150):  # seeded bipartite graphs up to n = 12, vertices relabelled
        p = rng.randint(2, 6)
        q = rng.randint(2, 12 - p)
        label = rng.sample(range(p + q), p + q)
        edges = [(label[x], label[p + y]) for x in range(p) for y in range(q) if rng.random() < 0.45]
        found += _assert_matches_induced_cycles(Graph(p + q, edges), rng.choice((6, 8, 10, 12)))
    assert found > 15
