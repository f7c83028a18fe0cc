import pytest

from helpers import complete, cycle, path, star
from scds import (
    DisconnectedGraphError,
    Graph,
    SetCoverInstance,
    bipartition,
    chordal_bipartite_check_bounded,
    dom3_to_mscds_apx,
    dom_to_comb_convex,
    dom_to_mscds_bipartite,
    dom_to_mscds_general,
    dom_to_star_convex,
    extract_ds_from_gadget,
    extract_set_cover,
    extract_vertex_cover,
    gc_canonical_scds,
    gc_ds_transfer,
    gc_graph,
    is_connected,
    is_dominating,
    is_scds,
    min_ds,
    min_scds,
    min_vertex_cover,
    pendant_and_support,
    scds_from_vertex_cover,
    setcover_to_doubly_chordal,
    validate_tree_convex,
    vc_to_chordal_bipartite,
)
from scds.graph import Bipartition


def _gadget_parts_for(art):
    """Bipartition of the gadget oriented so the witness tree spans the left."""
    parts = bipartition(art.graph)
    assert parts is not None
    tree_nodes = {v for e in art.witness.tree.edges() for v in e}
    if tree_nodes & parts.right:
        parts = Bipartition(left=parts.right, right=parts.left)
    return parts


EDGE = Graph(2, [(0, 1)])


# --- set cover -------------------------------------------------------------

def test_setcover_gadget_shape_and_equivalence():
    inst = SetCoverInstance(2, (frozenset({0}), frozenset({1}), frozenset({0, 1})))
    art = setcover_to_doubly_chordal(inst)
    assert art.graph.n == 7 and art.param_offset == 2
    assert art.labels == {0: "x_1", 1: "x_2", 2: "c_1", 3: "c_2", 4: "c_3", 5: "p", 6: "q"}
    assert art.forced == frozenset({5, 6})
    assert is_connected(art.graph)
    best = min_scds(art.graph, art.forced)
    from scds import min_set_cover

    assert best.size == min_set_cover(inst).size + 2 == 3
    assert best.witness == (4, 5, 6)
    assert extract_set_cover(art, set(best.witness)) == (2,)


def test_setcover_single_element():
    art = setcover_to_doubly_chordal(SetCoverInstance(1, (frozenset({0}),)))
    assert art.graph.n == 4
    assert min_scds(art.graph, art.forced).size == 3


def test_setcover_extract_handles_element_vertices():
    inst = SetCoverInstance(2, (frozenset({0}), frozenset({1}), frozenset({0, 1})))
    art = setcover_to_doubly_chordal(inst)
    # an SCDS that keeps an element vertex: replacement picks its subset
    s = {0, 2, 4, 5, 6}
    assert is_scds(art.graph, s) is not None
    cover = extract_set_cover(art, s)
    assert set().union(*(inst.family[j] for j in cover)) == {0, 1}
    assert len(cover) <= len(s) - 2


def test_setcover_errors():
    inst = SetCoverInstance(2, (frozenset({0}), frozenset({1}), frozenset({0, 1})))
    art = setcover_to_doubly_chordal(inst)
    with pytest.raises(ValueError):
        extract_set_cover(art, {5, 6})  # not an SCDS
    with pytest.raises(ValueError):
        setcover_to_doubly_chordal(SetCoverInstance(2, (frozenset({0}),)))
    with pytest.raises(ValueError):
        setcover_to_doubly_chordal(SetCoverInstance(0, ()))


# --- star convex -----------------------------------------------------------

def test_star_gadget_single_edge():
    art = dom_to_star_convex(EDGE, bipartition(EDGE))
    assert art.graph.n == 6 and art.param_offset == 4
    assert art.forced == frozenset({2, 3, 4, 5})
    assert min_scds(art.graph, art.forced).size == min_ds(EDGE).size + 4 == 5
    assert validate_tree_convex(art.graph, _gadget_parts_for(art), art.witness)


def test_star_gadget_p4_and_roundtrip():
    g = path(4)
    art = dom_to_star_convex(g, bipartition(g))
    best = min_scds(art.graph, art.forced)
    assert best.size == min_ds(g).size + 4 == 6
    extracted = extract_ds_from_gadget(art, set(best.witness))
    assert is_dominating(g, extracted)
    assert extract_ds_from_gadget(art, range(art.graph.n)) == frozenset(range(4))
    with pytest.raises(ValueError):
        extract_ds_from_gadget(art, set(range(4)))  # not an SCDS


def test_star_gadget_rejects_bad_input():
    with pytest.raises(ValueError):
        dom_to_star_convex(complete(3), Bipartition(frozenset({0}), frozenset({1, 2})))
    with pytest.raises(DisconnectedGraphError):
        g = Graph(4, [(0, 1), (2, 3)])
        dom_to_star_convex(g, bipartition(g))


# --- comb convex -----------------------------------------------------------

def test_comb_gadget_single_edge():
    art = dom_to_comb_convex(EDGE, bipartition(EDGE))
    assert art.graph.n == 7 and art.param_offset == 2 * 1 + 3
    assert min_scds(art.graph, art.forced).size == 1 + 5 == 6
    assert validate_tree_convex(art.graph, _gadget_parts_for(art), art.witness)


def test_comb_gadget_p4_and_roundtrip():
    g = path(4)
    art = dom_to_comb_convex(g, bipartition(g))
    assert art.graph.n == 11 and art.param_offset == 7
    best = min_scds(art.graph, art.forced)
    assert best.size == min_ds(g).size + 7 == 9
    assert validate_tree_convex(art.graph, _gadget_parts_for(art), art.witness)
    extracted = extract_ds_from_gadget(art, set(best.witness))
    assert is_dominating(g, extracted)
    assert extract_ds_from_gadget(art, range(art.graph.n)) == frozenset(range(4))
    with pytest.raises(ValueError):
        extract_ds_from_gadget(art, art.forced)


# --- chordal bipartite -----------------------------------------------------

def test_chordal_bipartite_single_edge():
    art = vc_to_chordal_bipartite(EDGE)
    g = art.graph
    assert g.n == 28 and art.param_offset == 7 * 2 + 8 * 1 + 2
    parts = bipartition(g)
    assert parts is not None
    inv = {lab: idx for idx, lab in art.labels.items()}
    side1 = {inv[f"{t}_{i}"] for t in ("x", "z", "a", "c", "f") for i in (1, 2)}
    side1 |= {inv["q_12"], inv["q_21"], inv["r_12"], inv["r_21"], inv["t"]}
    side2 = {inv[f"{t}_{i}"] for t in ("y", "b", "d", "e") for i in (1, 2)}
    side2 |= {inv["p_12"], inv["p_21"], inv["s_12"], inv["s_21"], inv["u"]}
    assert {parts.left, parts.right} == {frozenset(side1), frozenset(side2)}
    assert chordal_bipartite_check_bounded(g, 8).passed


def test_chordal_bipartite_witness_and_roundtrip():
    art = vc_to_chordal_bipartite(EDGE)
    s = scds_from_vertex_cover(art, {0})
    assert len(s) == 25
    assert is_scds(art.graph, s) is not None
    assert extract_vertex_cover(art, s) == frozenset({0})
    sv = frozenset(range(art.graph.n))
    assert extract_vertex_cover(art, sv) == frozenset({0, 1})
    with pytest.raises(ValueError):
        scds_from_vertex_cover(art, set())  # not a cover
    with pytest.raises(ValueError):
        extract_vertex_cover(art, art.forced)  # not an SCDS


def test_chordal_bipartite_triangle():
    g = complete(3)
    art = vc_to_chordal_bipartite(g)
    vc = min_vertex_cover(g)
    s = scds_from_vertex_cover(art, set(vc.witness))
    assert len(s) == 7 * 3 + 8 * 3 + vc.size + 2 == 49
    assert extract_vertex_cover(art, s) == frozenset(vc.witness)


def test_chordal_bipartite_figure_instance():
    g = Graph(4, [(0, 1), (0, 2), (2, 3)])
    art = vc_to_chordal_bipartite(g)
    assert art.graph.n == 9 * 4 + 8 * 3 + 2 == 62


def test_edgeless_source_excluded_but_size_identity_holds():
    # A source without edges is a vacuous cover instance and is rejected:
    # its empty cover selects no y_i, leaving t reachable only through u,
    # so the witness recipe is insecure.  The target-size identity itself
    # still holds, shown here on the hand-built gadget for the one-vertex
    # source: gamma_sc = 9 = 7*1 + 8*0 + 0 + 2.
    with pytest.raises(ValueError):
        vc_to_chordal_bipartite(Graph(1, []))
    # 0=a 1=b 2=z 3=d 4=f 5=x 6=y 7=c 8=e 9=t 10=u
    gadget = Graph(11, [
        (0, 1), (1, 2), (2, 3), (3, 4),
        (5, 6), (6, 7), (7, 8),
        (1, 5), (2, 6), (3, 7),
        (5, 10), (2, 10), (6, 9), (9, 10),
    ])
    pend, supp = pendant_and_support(gadget)
    assert min_scds(gadget, pend | supp).size == 9
    recipe = {0, 1, 2, 3, 4, 7, 8, 9, 10}  # blocks + z_1 + t + u, size 9
    assert is_scds(gadget, recipe) is None


def test_chordal_bipartite_oracle_confirms_single_edge():
    # the pendant/support forcing alone leaves 2^8 candidates here, so the
    # optimum is in reach: it matches 7n + 8m + k* + 2 exactly
    art = vc_to_chordal_bipartite(EDGE)
    best = min_scds(art.graph, art.forced - frozenset({art.graph.n - 2, art.graph.n - 1}))
    assert best.size == 25


# --- inapproximability gadgets ---------------------------------------------

def test_general_gadget():
    for g, expect in ((path(3), 3), (complete(4), 3), (cycle(5), 4)):
        art = dom_to_mscds_general(g)
        assert art.graph.n == g.n + 2
        got = min_scds(art.graph, art.forced).size
        assert got == expect
        assert got <= min_ds(g).size + 2
    art = dom_to_mscds_general(path(3))
    best = min_scds(art.graph, art.forced)
    extracted = extract_ds_from_gadget(art, set(best.witness))
    assert is_dominating(path(3), extracted)
    assert len(extracted) <= best.size - 2


def test_bipartite_gadget():
    art = dom_to_mscds_bipartite(EDGE, bipartition(EDGE))
    assert art.graph.n == 6
    assert bipartition(art.graph) is not None
    assert min_scds(art.graph, art.forced).size <= min_ds(EDGE).size + 4
    c4 = cycle(4)
    art = dom_to_mscds_bipartite(c4, bipartition(c4))
    assert bipartition(art.graph) is not None
    assert min_scds(art.graph, art.forced).size <= min_ds(c4).size + 4
    p4 = path(4)
    art = dom_to_mscds_bipartite(p4, bipartition(p4))
    assert bipartition(art.graph) is not None


# --- bounded-degree gadget ---------------------------------------------------

def test_apx_gadget_values():
    art = dom3_to_mscds_apx(EDGE)
    assert art.graph.n == 6
    assert min_scds(art.graph, art.forced).size == min_ds(EDGE).size + 4 == 5
    p3 = path(3)
    art = dom3_to_mscds_apx(p3)
    assert min_scds(art.graph, art.forced).size == min_ds(p3).size + 6 == 7
    assert art.graph.max_degree <= 4


def test_apx_gadget_degree_audit():
    c4 = cycle(4)
    art = dom3_to_mscds_apx(c4)
    assert art.graph.max_degree == 4
    x_inner = c4.n + 1  # an x vertex with two spine neighbors
    assert art.graph.degree(x_inner) == 4


def test_apx_gadget_roundtrip_and_errors():
    art = dom3_to_mscds_apx(path(3))
    best = min_scds(art.graph, art.forced)
    extracted = extract_ds_from_gadget(art, set(best.witness))
    assert is_dominating(path(3), extracted)
    assert len(extracted) <= best.size - 2 * 3
    assert extract_ds_from_gadget(art, range(art.graph.n)) == frozenset(range(3))
    with pytest.raises(ValueError):
        extract_ds_from_gadget(art, art.forced)
    with pytest.raises(ValueError):
        dom3_to_mscds_apx(star(4))  # max degree 4 > 3


# --- GC family ---------------------------------------------------------------

def test_gc_values():
    art = gc_graph(EDGE)
    assert art.graph.n == 10
    assert min_scds(art.graph, art.forced).size == 8
    single = gc_graph(Graph(1, []))
    assert min_scds(single.graph, single.forced).size == 4
    assert gc_canonical_scds(art) == frozenset(range(8))


def test_gc_domination_transfer():
    art = gc_graph(EDGE)
    assert min_ds(art.graph).size == min_ds(EDGE).size + 2
    up = gc_ds_transfer(art, {0}, "to-gadget")
    assert up == frozenset({0, 4, 5}) and is_dominating(art.graph, up)
    assert gc_ds_transfer(art, up, "from-gadget") == frozenset({0})
    with pytest.raises(ValueError):
        gc_ds_transfer(art, set(), "to-gadget")
    with pytest.raises(ValueError):
        gc_ds_transfer(art, {0}, "sideways")


def test_gc_wrong_kind_rejected():
    art = dom_to_mscds_general(path(3))
    with pytest.raises(ValueError):
        gc_canonical_scds(art)
