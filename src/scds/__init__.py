"""Secure connected domination in graphs: certifiers, exact desk-scale
oracles, a (max degree + 1)-factor approximation, chain-graph machinery,
and the full family of hardness gadget constructions with witness builders
and solution extractors."""

from .approx import ApproxOutcome, approx_scds, approx_scds_solver, dom_set_approx, greedy_cds, greedy_ds
from .certify import (
    Failure,
    SecurityCertificate,
    defenders_of,
    first_failure,
    is_cds,
    is_dominating,
    is_scds,
    verdict,
)
from .chain import (
    ChainOrdering,
    ChainOptimalityReport,
    chain_optimality_report,
    chain_ordering,
    chain_scds_upper_bound,
)
from .exact import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    ExactResult,
    SetCoverFormatError,
    SetCoverInstance,
    format_set_cover,
    load_set_cover,
    min_cds,
    min_ds,
    min_scds,
    min_set_cover,
    min_vertex_cover,
    parse_set_cover,
)
from .generate import random_chain_graph, random_connected_graph
from .graph import (
    Bipartition,
    DisconnectedGraphError,
    Graph,
    GraphFormatError,
    bipartition,
    format_graph,
    format_vertex_set,
    induced_subgraph,
    is_connected,
    load_graph,
    parse_graph,
    pendant_and_support,
    save_graph,
)
from .graphclasses import (
    ChordalBipartiteVerdict,
    TreeWitness,
    check_dpeo,
    check_peo,
    chordal_bipartite_check_bounded,
    validate_tree_convex,
)
from .reductions import (
    ReductionArtifact,
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
    scds_from_vertex_cover,
    setcover_to_doubly_chordal,
    vc_to_chordal_bipartite,
)

__all__ = [
    "ApproxOutcome", "approx_scds", "approx_scds_solver", "dom_set_approx",
    "greedy_cds", "greedy_ds",
    "Failure", "SecurityCertificate", "defenders_of", "first_failure", "is_cds",
    "is_dominating", "is_scds", "verdict",
    "ChainOrdering", "ChainOptimalityReport", "chain_optimality_report",
    "chain_ordering", "chain_scds_upper_bound",
    "DEFAULT_BUDGET", "BudgetExceededError", "ExactResult",
    "SetCoverFormatError", "SetCoverInstance", "format_set_cover",
    "load_set_cover", "min_cds", "min_ds", "min_scds", "min_set_cover",
    "min_vertex_cover", "parse_set_cover",
    "random_chain_graph", "random_connected_graph",
    "Bipartition", "DisconnectedGraphError", "Graph", "GraphFormatError",
    "bipartition", "format_graph", "format_vertex_set", "induced_subgraph",
    "is_connected", "load_graph", "parse_graph", "pendant_and_support",
    "save_graph",
    "ChordalBipartiteVerdict", "TreeWitness", "check_dpeo", "check_peo",
    "chordal_bipartite_check_bounded", "validate_tree_convex",
    "ReductionArtifact", "dom3_to_mscds_apx", "dom_to_comb_convex",
    "dom_to_mscds_bipartite", "dom_to_mscds_general", "dom_to_star_convex",
    "extract_ds_from_gadget", "extract_set_cover", "extract_vertex_cover",
    "gc_canonical_scds", "gc_ds_transfer", "gc_graph",
    "scds_from_vertex_cover", "setcover_to_doubly_chordal",
    "vc_to_chordal_bipartite",
]
