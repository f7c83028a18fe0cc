"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its stated time budget.  Run with ``pytest tests/test_acceptance.py -v``
to see one line per criterion.
"""

import itertools
import random
import time

from bruteforce import defenders_naive, min_scds_naive
from helpers import (
    complete,
    connected_graphs,
    cycle,
    path,
    random_connected,
    random_connected_bipartite,
    sparse_connected,
    star,
)
from scds import (
    Graph,
    SetCoverInstance,
    approx_scds,
    bipartition,
    chain_optimality_report,
    chain_ordering,
    chain_scds_upper_bound,
    check_dpeo,
    chordal_bipartite_check_bounded,
    dom3_to_mscds_apx,
    dom_set_approx,
    dom_to_comb_convex,
    dom_to_mscds_bipartite,
    dom_to_mscds_general,
    dom_to_star_convex,
    extract_ds_from_gadget,
    gc_canonical_scds,
    gc_graph,
    is_connected,
    is_dominating,
    is_scds,
    min_ds,
    min_scds,
    min_set_cover,
    min_vertex_cover,
    pendant_and_support,
    random_chain_graph,
    scds_from_vertex_cover,
    setcover_to_doubly_chordal,
    extract_vertex_cover,
    validate_tree_convex,
    vc_to_chordal_bipartite,
)
from scds.cli import main
from scds.graph import Bipartition


def _passed(num, started, budget_s, detail):
    elapsed = time.monotonic() - started
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget ({elapsed:.1f}s)"
    print(f"criterion {num:02d} PASS ({elapsed:.1f}s) - {detail}")


def _prop1_forced(g):
    if g.n < 3:
        return frozenset()
    pendants, supports = pendant_and_support(g)
    return pendants | supports


def _oriented_parts(art):
    parts = bipartition(art.graph)
    tree_nodes = {v for e in art.witness.tree.edges() for v in e}
    if tree_nodes & parts.right:
        parts = Bipartition(left=parts.right, right=parts.left)
    return parts


def test_criterion_01_named_graph_oracle_values():
    started = time.monotonic()
    cases = [
        (path(3), 3), (cycle(4), 3), (cycle(5), 4),
        (complete(2), 1), (complete(3), 1), (complete(4), 1),
        (star(4), 5),
    ]
    for g, expected in cases:
        t0 = time.monotonic()
        assert min_scds(g).size == expected
        assert min_scds_naive(g)[0] == expected
        assert time.monotonic() - t0 < 1.0
    _passed(1, started, 30, "7 named instances agree across both oracles")


def test_criterion_02_pendant_support_proposition():
    started = time.monotonic()
    rng = random.Random(2024)
    violations = 0
    for _ in range(200):
        n = rng.randint(3, 9)
        g = random_connected(n, rng, prob=rng.choice([0.25, 0.4, 0.6]))
        blocked = _prop1_forced(g)
        gamma = min_scds(g).size
        for combo in itertools.combinations(range(n), gamma):
            s = frozenset(combo)
            if is_scds(g, s) is None:
                continue
            if not blocked <= s:
                violations += 1
            for u in range(n):
                if u not in s and defenders_naive(g, s, u) & blocked:
                    violations += 1
    assert violations == 0
    _passed(2, started, 300, "200 graphs, every minimum set and defender conforms")


def test_criterion_03_setcover_equivalence_exhaustive():
    started = time.monotonic()
    checked = 0
    for n in range(1, 4):
        subsets = [frozenset(s) for r in range(n + 1)
                   for s in itertools.combinations(range(n), r)]
        for m in range(1, 4):
            for family in itertools.product(subsets, repeat=m):
                inst = SetCoverInstance(n, tuple(family))
                if not inst.is_feasible():
                    continue
                art = setcover_to_doubly_chordal(inst)
                cover = min_set_cover(inst)
                best = min_scds(art.graph, art.forced)
                assert best.size == cover.size + 2
                assert check_dpeo(art.graph, art.witness)
                checked += 1
    assert checked > 400
    _passed(3, started, 120, f"{checked} feasible instances, offset exactly 2, DPEO holds")


def test_criterion_04_star_convex_equivalence():
    started = time.monotonic()
    for i in range(50):
        rng = random.Random(51_000 + i)
        p = rng.randint(1, 6)
        q = rng.randint(1, 7 - p)
        g = random_connected_bipartite(p, q, rng)
        parts = Bipartition(frozenset(range(p)), frozenset(range(p, p + q)))
        art = dom_to_star_convex(g, parts)
        assert min_scds(art.graph, art.forced).size == min_ds(g).size + 4
        assert validate_tree_convex(art.graph, _oriented_parts(art), art.witness)
    _passed(4, started, 600, "50 bipartite sources, offset exactly 4, star witness valid")


def test_criterion_05_comb_convex_equivalence():
    started = time.monotonic()
    checked = 0
    for p in (1, 2):
        for q in (1, 2, 3):
            pairs = [(x, p + y) for x in range(p) for y in range(q)]
            for emask in range(1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if emask >> i & 1]
                g = Graph(p + q, edges)
                if not is_connected(g):
                    continue
                parts = Bipartition(frozenset(range(p)), frozenset(range(p, p + q)))
                art = dom_to_comb_convex(g, parts)
                assert min_scds(art.graph, art.forced).size == min_ds(g).size + 2 * p + 3
                assert validate_tree_convex(art.graph, _oriented_parts(art), art.witness)
                checked += 1
    assert checked >= 20
    _passed(5, started, 600, f"{checked} bipartite sources, offset exactly 2p+3, comb valid")


def test_criterion_06_chordal_bipartite_certified_construction():
    started = time.monotonic()
    checked = 0
    for n in range(1, 5):
        for g in connected_graphs(n, max_m=4):
            if g.m == 0:
                # the single-vertex source is outside the reduction's domain:
                # its cover is empty, and with no y_i selected the quoted
                # witness set is not secure (x_1 has no defender), even
                # though the size identity itself still holds; see
                # test_edgeless_source_excluded_but_size_identity_holds.
                continue
            art = vc_to_chordal_bipartite(g)
            best_vc = min_vertex_cover(g)
            s = scds_from_vertex_cover(art, set(best_vc.witness))
            assert len(s) == 7 * g.n + 8 * g.m + best_vc.size + 2
            assert extract_vertex_cover(art, s) == frozenset(best_vc.witness)
            assert bipartition(art.graph) is not None
            if g.n == 2 and g.m == 1:
                assert chordal_bipartite_check_bounded(art.graph, 8).passed
            checked += 1
    assert checked == 36
    _passed(6, started, 300, f"{checked} sources with edges, certified at 7n+8m+k+2, exact round-trips")


def test_criterion_07_approximation_bound():
    started = time.monotonic()
    rng = random.Random(777)
    for _ in range(200):
        n = rng.randint(1, 10)
        g = random_connected(n, rng, prob=rng.choice([0.25, 0.45, 0.7]))
        out = approx_scds(g)  # certifies internally
        gamma_sc = min_scds(g).size
        assert len(out.d_sc) <= (g.max_degree + 1) * gamma_sc
    for i, n in enumerate(range(1000, 10001, 1000)):
        g = sparse_connected(n, seed=9000 + i)
        t0 = time.monotonic()
        out = approx_scds(g)
        assert time.monotonic() - t0 < 10.0
        assert len(out.d_sc) <= g.n
    _passed(7, started, 600, "200 oracle-checked graphs plus 10 large instances under 10s each")


def test_criterion_08_apx_gadget_equality():
    started = time.monotonic()
    checked = 0
    for n in range(1, 5):
        for g in connected_graphs(n):
            if g.max_degree > 3:
                continue
            art = dom3_to_mscds_apx(g)
            gamma = min_ds(g).size
            gamma_sc = min_scds(art.graph, art.forced).size
            assert gamma_sc == gamma + 2 * g.n
            assert art.graph.max_degree <= 4
            assert 4 * gamma >= g.n          # minimum dominating sets are large
            assert gamma_sc <= 9 * gamma     # the constant-factor relation
            checked += 1
    assert checked == 44
    _passed(8, started, 300, f"{checked} degree-3 sources, offset exactly 2n, constants hold")


def test_criterion_09_gc_family():
    started = time.monotonic()
    sources = [g for n in range(1, 4) for g in connected_graphs(n)]
    sources.append(Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))
    for g in sources:
        art = gc_graph(g)
        assert min_scds(art.graph, art.forced).size == 4 * g.n
        assert min_ds(art.graph).size == min_ds(g).size + g.n
        canonical = gc_canonical_scds(art)
        assert len(canonical) == 4 * g.n
        assert is_scds(art.graph, canonical) is not None
    _passed(9, started, 600, f"{len(sources)} sources, secure optimum 4n and domination offset n")


def test_criterion_10_inapproximability_gadgets():
    started = time.monotonic()
    for i in range(30):
        rng = random.Random(31_000 + i)
        n = rng.randint(2, 8)
        g = random_connected(n, rng, prob=0.4)
        gamma = min_ds(g).size
        art = dom_to_mscds_general(g)
        best = min_scds(art.graph, art.forced)
        assert best.size <= gamma + 2
        extracted = extract_ds_from_gadget(art, set(best.witness))
        assert is_dominating(g, extracted)
        assert len(extracted) <= best.size - 2
        k = rng.randint(1, 3)
        d = dom_set_approx(g, k, lambda h: approx_scds(h).d_sc)
        assert is_dominating(g, d)
        # bipartite variant on a bipartite source
        p = rng.randint(1, 4)
        q = rng.randint(1, 4)
        bg = random_connected_bipartite(p, q, rng)
        parts = Bipartition(frozenset(range(p)), frozenset(range(p, p + q)))
        bart = dom_to_mscds_bipartite(bg, parts)
        assert bipartition(bart.graph) is not None
        assert min_scds(bart.graph, bart.forced).size <= min_ds(bg).size + 4
    _passed(10, started, 300, "30 rounds of general +2, bipartite +4 and valid extractions")


def test_criterion_11_chain_module():
    started = time.monotonic()
    for seed in range(500):
        if seed % 25 == 0:
            p, q = (1000, 1000) if seed % 50 == 0 else (1700, 300)
        else:
            p = 1 + (seed * 7) % 60
            q = 1 + (seed * 11) % 60
        t0 = time.monotonic()
        g = random_chain_graph(p, q, seed=seed)
        parts = Bipartition(frozenset(range(p)), frozenset(range(p, p + q)))
        order = chain_ordering(g, parts)
        assert order is not None
        built = chain_scds_upper_bound(g, order)  # certifies internally
        assert built
        assert time.monotonic() - t0 < 1.0
    # independent oracle confirms the two derived gaps before they are asserted
    k22 = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    k23 = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert min_scds_naive(k22)[0] == 3
    assert min_scds_naive(k23)[0] == 3
    gaps = {}
    for p in range(1, 8):
        for q in range(1, 9 - p):
            for tail in itertools.combinations_with_replacement(range(1, q + 1), p - 1):
                degrees = list(tail) + [q]
                edges = [(x, p + y) for x, d in enumerate(degrees) for y in range(d)]
                g = Graph(p + q, edges)
                parts = Bipartition(frozenset(range(p)), frozenset(range(p, p + q)))
                order = chain_ordering(g, parts)
                assert order is not None
                rep = chain_optimality_report(g, order)
                assert rep.gap >= 0
                pendants, supports = pendant_and_support(g)
                # pendant-saturated instances are tight, but only where the
                # pendant/support forcing applies (three or more vertices)
                if g.n >= 3 and pendants | supports == frozenset(range(g.n)):
                    assert rep.gap == 0
                gaps[(p, q, tuple(degrees))] = rep
    assert (gaps[(2, 2, (2, 2))].construction_size, gaps[(2, 2, (2, 2))].exact_size) == (4, 3)
    assert (gaps[(2, 3, (3, 3))].construction_size, gaps[(2, 3, (3, 3))].exact_size) == (4, 3)
    _passed(11, started, 600, "500 certified constructions; exhaustive reports incl. both gaps")


def test_criterion_12_cli_determinism(tmp_path, capsys):
    started = time.monotonic()
    from scds import save_graph

    save_graph(path(3), tmp_path / "p3.graph")
    save_graph(cycle(4), tmp_path / "c4.graph")
    (tmp_path / "sc.txt").write_text("2 3 1\n1 0\n1 1\n2 0 1\n")

    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    commands = [
        ("solve", "--input", str(tmp_path / "c4.graph")),
        ("solve", "--problem", "vc", "--input", str(tmp_path / "c4.graph")),
        ("solve", "--problem", "setcover", "--input", str(tmp_path / "sc.txt")),
        ("verify", "--input", str(tmp_path / "c4.graph"), "--set", "0,1,2"),
        ("approx", "--input", str(tmp_path / "c4.graph")),
        ("gen", "chain", "--p", "4", "--q", "4", "--seed", "9"),
        ("gen", "random", "--n", "8", "--seed", "9"),
        ("gen", "gc", "--input", str(tmp_path / "p3.graph")),
        ("check", "dpeo", "--input", str(tmp_path / "p3.graph"), "--order", "0,2,1"),
        ("check", "chain", "--input", str(tmp_path / "p3.graph")),
        ("check", "chordal-bipartite", "--input", str(tmp_path / "c4.graph"), "--max-len", "6"),
        ("bench", "--count", "5", "--n", "8", "--seed", "11"),
    ]
    for argv in commands:
        first = run(*argv)
        second = run(*argv)
        assert first == second, f"nondeterministic output for {argv}"
    # reduce: file outputs must be byte-identical across runs
    run("reduce", "gc", "--input", str(tmp_path / "p3.graph"), "--out", str(tmp_path / "r1"))
    run("reduce", "gc", "--input", str(tmp_path / "p3.graph"), "--out", str(tmp_path / "r2"))
    assert (tmp_path / "r1.graph").read_bytes() == (tmp_path / "r2.graph").read_bytes()
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    # bench: one worker and eight workers agree byte for byte
    _, serial = run("bench", "--count", "6", "--n", "8", "--seed", "3", "--jobs", "1")
    _, threaded = run("bench", "--count", "6", "--n", "8", "--seed", "3", "--jobs", "8")
    assert serial == threaded
    _passed(12, started, 300, "all commands byte-identical across runs and worker counts")
