import random

import pytest

from bruteforce import (
    min_cds_naive,
    min_ds_naive,
    min_scds_naive,
    min_set_cover_naive,
    min_vc_naive,
    reach_naive,
)
from helpers import all_graphs, complete, connected_graphs, cycle, path, random_connected
from scds import (
    BudgetExceededError,
    DisconnectedGraphError,
    Graph,
    SetCoverInstance,
    is_cds,
    is_dominating,
    is_scds,
    min_cds,
    min_ds,
    min_scds,
    min_set_cover,
    min_vertex_cover,
    pendant_and_support,
)
from scds.exact import (
    SetCoverFormatError,
    _neighbor_masks,
    format_set_cover,
    iter_bits,
    mask_from,
    parse_set_cover,
    reach_within,
)


def test_min_ds_examples():
    assert min_ds(path(3)).witness == (1,)
    assert min_ds(cycle(4)).size == 2
    assert min_ds(cycle(5)).size == 2
    assert min_ds(cycle(5)).witness == (0, 2)


def test_min_cds_examples():
    assert min_cds(path(5)).witness == (1, 2, 3)
    assert min_cds(complete(4)).size == 1
    assert min_cds(cycle(5)).size == 3
    with pytest.raises(DisconnectedGraphError):
        min_cds(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        min_cds(Graph(0, []))


def test_min_scds_examples():
    assert min_scds(path(3), {0, 1, 2}).size == 3
    assert min_scds(cycle(4)).size == 3
    assert min_scds(cycle(5)).size == 4
    for n in range(1, 5):
        assert min_scds(complete(n)).size == 1
    with pytest.raises(DisconnectedGraphError):
        min_scds(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        min_scds(path(3), {5})


def test_min_scds_forced_prunes_but_preserves_optimum():
    rng = random.Random(21)
    for _ in range(25):
        g = random_connected(rng.randint(3, 7), rng)
        pendants, supports = pendant_and_support(g)
        unconstrained = min_scds(g)
        pruned = min_scds(g, pendants | supports)
        assert pruned.size == unconstrained.size
        assert pruned.witness == unconstrained.witness
        assert pruned.explored <= unconstrained.explored


def test_min_vertex_cover_examples():
    assert min_vertex_cover(path(3)).witness == (1,)
    assert min_vertex_cover(cycle(5)).size == 3
    assert min_vertex_cover(complete(4)).size == 3


def test_min_set_cover_examples():
    inst = SetCoverInstance(2, (frozenset({0}), frozenset({1}), frozenset({0, 1})))
    res = min_set_cover(inst)
    assert (res.size, res.witness) == (1, (2,))
    inst = SetCoverInstance(3, (frozenset({0, 1}), frozenset({1, 2})))
    assert min_set_cover(inst).size == 2
    inst = SetCoverInstance(4, (frozenset({0, 1}), frozenset({2, 3}),
                                frozenset({0, 2}), frozenset({1, 3})))
    res = min_set_cover(inst)
    assert (res.size, res.witness) == (2, (0, 1))
    with pytest.raises(ValueError):
        min_set_cover(SetCoverInstance(2, (frozenset({0}),)))


def test_set_cover_instance_validation():
    with pytest.raises(ValueError):
        SetCoverInstance(2, (frozenset({0, 5}),))
    with pytest.raises(ValueError):
        SetCoverInstance(-1, ())


def test_solvers_match_bruteforce():
    rng = random.Random(9)
    graphs = list(connected_graphs(4)) + [random_connected(n, rng) for n in (5, 5, 6, 6)]
    for g in graphs:
        assert (min_ds(g).size, min_ds(g).witness) == min_ds_naive(g)
        assert (min_cds(g).size, min_cds(g).witness) == min_cds_naive(g)
        assert (min_scds(g).size, min_scds(g).witness) == min_scds_naive(g)
        assert (min_vertex_cover(g).size, min_vertex_cover(g).witness) == min_vc_naive(g)


def test_set_cover_matches_bruteforce():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        family = [frozenset(e for e in range(n) if rng.random() < 0.5) for _ in range(m)]
        inst = SetCoverInstance(n, tuple(family))
        if not inst.is_feasible():
            continue
        size, witness = min_set_cover_naive(n, family)[0], min_set_cover_naive(n, family)[1]
        res = min_set_cover(inst)
        assert (res.size, res.witness) == (size, witness)


def test_witnesses_verify_and_size_chain():
    rng = random.Random(31)
    for _ in range(20):
        g = random_connected(rng.randint(2, 7), rng)
        ds = min_ds(g)
        cds = min_cds(g)
        scds = min_scds(g)
        assert is_dominating(g, ds.witness)
        assert is_cds(g, cds.witness)
        assert is_scds(g, scds.witness) is not None
        assert ds.size <= cds.size <= scds.size <= g.n


def test_no_smaller_feasible_set_exists():
    import itertools

    rng = random.Random(77)
    for _ in range(8):
        g = random_connected(rng.randint(3, 7), rng)
        pendants, supports = pendant_and_support(g)
        forced = pendants | supports
        best = min_scds(g, forced)
        if best.size > len(forced):
            free = sorted(set(range(g.n)) - forced)
            for combo in itertools.combinations(free, best.size - len(forced) - 1):
                assert is_scds(g, forced | set(combo)) is None


def test_budget_guard():
    g = random_connected(8, random.Random(1))
    with pytest.raises(BudgetExceededError):
        min_scds(g, budget=2 ** 6)
    min_ds(g, budget=2 ** 8)
    # forcing shrinks the free space under the same budget, and the space is
    # exactly 2**free: a budget of 2**free runs, one less refuses
    p7 = path(7)
    pendants, supports = pendant_and_support(p7)
    forced = pendants | supports
    assert forced == frozenset({0, 1, 5, 6})  # 3 vertices stay free
    with pytest.raises(BudgetExceededError):
        min_scds(p7, budget=2 ** 3)
    assert min_scds(p7, forced, budget=2 ** 3).witness == tuple(range(7))
    with pytest.raises(BudgetExceededError) as info:
        min_scds(p7, forced, budget=2 ** 3 - 1)
    assert str(info.value) == "free-choice space 2**3 exceeds budget 7"


def test_determinism():
    g = random_connected(6, random.Random(2))
    a = min_scds(g)
    b = min_scds(g)
    assert a == b


def test_explored_counts():
    # P3 with everything forced: single candidate
    assert min_scds(path(3), {0, 1, 2}).explored == 1
    g = cycle(4)
    r = min_scds(g)
    # 1 (empty) + 4 (singletons) + 6 (pairs) + ordered triples until (0,1,2)
    assert r.explored == 12


def test_set_cover_text_roundtrip():
    inst = SetCoverInstance(3, (frozenset({0, 2}), frozenset({1}), frozenset()))
    text = format_set_cover(inst, 2)
    assert text == "3 3 2\n2 0 2\n1 1\n0\n"
    parsed, k = parse_set_cover("# c\n" + text)
    assert parsed == inst and k == 2
    for bad in ("", "1 1\n", "1 1 1\n2 0\n", "1 2 1\n1 0\n", "1 1 1\n1 9\n", "1 1 1\nx\n"):
        with pytest.raises(SetCoverFormatError):
            parse_set_cover(bad)


def test_masks_match_adjacency():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, [p for p in pairs if rng.random() < 0.4])
        nm = _neighbor_masks(g)
        assert [{w for w in range(n) if nm[v] >> w & 1} for v in range(n)] == [
            set(g.neighbors(v)) for v in range(n)]
        assert [tuple(iter_bits(m)) for m in nm] == [g.neighbors(v) for v in range(n)]
    assert _neighbor_masks(path(3)) == (0b010, 0b101, 0b010)


def test_reach_within_matches_naive_search():
    nm = _neighbor_masks(path(4))
    assert reach_within(nm, 0) == 0
    assert reach_within(nm, mask_from({0, 1, 3})) == mask_from({0, 1})
    assert reach_within(nm, mask_from({1, 2, 3})) == mask_from({1, 2, 3})
    for g in all_graphs(4):
        nm = _neighbor_masks(g)
        for mask in range(1, 1 << g.n):
            s = {v for v in range(g.n) if mask >> v & 1}
            assert reach_within(nm, mask) == mask_from(reach_naive(g, s))
