"""Command-line front end.

Commands: solve, verify, approx, reduce, gen, check, bench.  All outputs
are deterministic for fixed inputs, seeds and budgets: JSON objects are
key-sorted, lists are sorted, bench rows are ordered by seed regardless of
worker count.

Exit codes: 0 success, 1 negative verification, 2 parse/input error,
3 budget exceeded, 4 violated precondition (e.g. disconnected input).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial

from .approx import approx_scds
from .certify import Failure, verdict
from .chain import _chain_ordering, _chain_scds_upper_bound
from .exact import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    SetCoverFormatError,
    load_set_cover,
    min_cds,
    min_ds,
    min_scds,
    min_set_cover,
    min_vertex_cover,
)
from .generate import random_chain_graph, random_connected_graph
from .graph import (
    Bipartition,
    DisconnectedGraphError,
    Graph,
    GraphFormatError,
    bipartition,
    format_graph,
    load_graph,
    scds_forced,
)
from .graphclasses import TreeWitness, check_dpeo, check_peo, chordal_bipartite_check_bounded, validate_tree_convex
from .reductions import (
    _CB_SIZE,
    dom3_to_mscds_apx,
    dom_to_comb_convex,
    dom_to_mscds_bipartite,
    dom_to_mscds_general,
    dom_to_star_convex,
    gc_graph,
    setcover_to_doubly_chordal,
    vc_to_chordal_bipartite,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_PRECONDITION = 4


class CliInputError(ValueError):
    """Bad command-line input (malformed sets, orders, or indices)."""


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _parse_indices(text: str, n: int, what: str) -> list[int]:
    try:
        values = [int(f) for f in text.split(",") if f.strip() != ""]
    except ValueError as exc:
        raise CliInputError(f"{what} must be comma-separated integers") from exc
    for v in values:
        if not 0 <= v < n:
            raise CliInputError(f"{what} index {v} out of range for n={n}")
    return values


def _require_bipartite(g: Graph) -> Bipartition:
    parts = bipartition(g)
    if parts is None:
        raise ValueError("input graph is not bipartite")
    return parts


# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    if args.problem == "setcover":
        inst, _k = load_set_cover(args.input)
        res = min_set_cover(inst, budget=args.budget)
    else:
        g = load_graph(args.input)
        if args.problem == "ds":
            res = min_ds(g, budget=args.budget)
        elif args.problem == "cds":
            res = min_cds(g, budget=args.budget)
        elif args.problem == "vc":
            res = min_vertex_cover(g, budget=args.budget)
        else:
            res = min_scds(g, scds_forced(g), budget=args.budget)
    _emit({
        "explored": res.explored,
        "problem": args.problem,
        "size": res.size,
        "witness": list(res.witness),
    })
    return EXIT_OK


def cmd_verify(args) -> int:
    g = load_graph(args.input)
    s = frozenset(_parse_indices(args.set, g.n, "--set"))
    out = verdict(g, s, args.problem)
    if isinstance(out, Failure):
        _emit({"failing_vertex": out.vertex, "problem": args.problem, "reason": out.reason})
        return EXIT_NEGATIVE
    payload = {"problem": args.problem, "set": sorted(s)}
    if out is not None:
        payload["defenders"] = {str(u): str(v) for u, v in sorted(out.defended.items())}
    _emit(payload)
    return EXIT_OK


def cmd_approx(args) -> int:
    g = load_graph(args.input)
    out = approx_scds(g)
    _emit({
        "bound": out.ratio_bound,
        "d": sorted(out.d),
        "d_c": sorted(out.d_c),
        "d_sc": sorted(out.d_sc),
        "delta": g.max_degree,
    })
    return EXIT_OK


# ---------------------------------------------------------------------------


# reduce's graph gadgets in help order, after setcover-dc, which reads a set-cover file
_GRAPH_REDUCTIONS = {
    "star-convex": lambda g: dom_to_star_convex(g, _require_bipartite(g)),
    "comb-convex": lambda g: dom_to_comb_convex(g, _require_bipartite(g)),
    "chordal-bipartite": vc_to_chordal_bipartite,
    "inapprox-general": dom_to_mscds_general,
    "inapprox-bipartite": lambda g: dom_to_mscds_bipartite(g, _require_bipartite(g)),
    "apx-deg4": dom3_to_mscds_apx,
    "gc": gc_graph,
}


def _build_artifact(kind: str, args):
    if kind == "setcover-dc":
        inst, _k = load_set_cover(args.input)
        return setcover_to_doubly_chordal(inst)
    return _GRAPH_REDUCTIONS[kind](load_graph(args.input))


def _witness_payload(witness):
    if witness is None:
        return None
    if isinstance(witness, TreeWitness):
        return {"kind": witness.kind, "tree_edges": [list(e) for e in witness.tree.edges()]}
    return {"ordering": list(witness)}


def _sidecar_payload(art) -> dict:
    param = {"offset": art.param_offset}
    if art.kind == "chordal-bipartite":
        param["affine"] = {
            **_CB_SIZE,
            "source_m": art.source.m,
            "source_n": art.source.n,
        }
    return {
        "forced": sorted(art.forced),
        "kind": art.kind,
        "labels": {str(i): art.labels[i] for i in sorted(art.labels)},
        "param": param,
        "witness": _witness_payload(art.witness),
    }


def cmd_reduce(args) -> int:
    art = _build_artifact(args.kind, args)
    graph_path = args.out + ".graph"
    sidecar_path = args.out + ".json"
    with open(graph_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_graph(art.graph))
    with open(sidecar_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(_sidecar_payload(art), sort_keys=True, indent=2) + "\n")
    _emit({"graph": graph_path, "sidecar": sidecar_path})
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.generator == "chain":
        g = random_chain_graph(args.p, args.q, args.seed)
    elif args.generator == "random":
        g = random_connected_graph(args.n, args.edge_prob, args.seed)
    else:  # gc
        g = gc_graph(load_graph(args.input)).graph
    text = format_graph(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_check(args) -> int:
    g = load_graph(args.input)
    if args.checker in ("peo", "dpeo"):
        order = _parse_indices(args.order, g.n, "--order")
        if sorted(order) != list(range(g.n)):
            raise CliInputError("--order must be a permutation of all vertices")
        ok = check_peo(g, order) if args.checker == "peo" else check_dpeo(g, order)
        _emit({"check": args.checker, "ok": ok})
        return EXIT_OK if ok else EXIT_NEGATIVE
    if args.checker == "tree-convex":
        parts = _require_bipartite(g)
        if args.side == "right":
            parts = Bipartition(left=parts.right, right=parts.left)
        witness = TreeWitness(tree=load_graph(args.tree), kind=args.kind)
        ok = validate_tree_convex(g, parts, witness)
        _emit({"check": "tree-convex", "ok": ok})
        return EXIT_OK if ok else EXIT_NEGATIVE
    if args.checker == "chordal-bipartite":
        probe = chordal_bipartite_check_bounded(g, args.max_len)
        payload = {"bound": probe.bound, "check": "chordal-bipartite", "ok": probe.passed}
        if probe.cycle is not None:
            payload["cycle"] = list(probe.cycle)
        _emit(payload)
        return EXIT_OK if probe.passed else EXIT_NEGATIVE
    # chain recognition; bipartition certifies its sides and the ordering is verified
    parts = bipartition(g)
    order = None if parts is None else _chain_ordering(g, parts)
    if order is None:
        _emit({"chain": False, "check": "chain"})
        return EXIT_NEGATIVE
    built = _chain_scds_upper_bound(g, order)
    _emit({
        "chain": True,
        "check": "chain",
        "upper_bound_set": sorted(built),
        "x_order": list(order.x_order),
        "y_order": list(order.y_order),
    })
    return EXIT_OK


# ---------------------------------------------------------------------------


def _bench_row(seed: int, n: int, prob: float, budget: int):
    g = random_connected_graph(n, prob, seed)
    out = approx_scds(g)
    try:
        gamma = str(min_scds(g, scds_forced(g), budget=budget).size)
    except BudgetExceededError:
        gamma = ""
    return (seed, g.n, g.m, g.max_degree, gamma, len(out.d_sc), g.max_degree + 1)


def cmd_bench(args) -> int:
    seeds = list(range(args.seed, args.seed + args.count))
    bench_row = partial(_bench_row, n=args.n, prob=args.edge_prob, budget=args.budget)
    if args.jobs > 1 and len(seeds) > 1:
        # Imported here: the process-pool modules add about 15 ms to the
        # start-up of every other command.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        workers = min(args.jobs, len(seeds))
        # spawn, not fork: the caller (a test runner, an embedding program) may hold threads
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            rows = list(pool.map(bench_row, seeds))
    else:
        rows = [bench_row(s) for s in seeds]
    rows.sort(key=lambda r: r[0])
    lines = ["seed,n,m,delta,gamma_sc,approx_size,bound"]
    lines += [",".join(str(f) for f in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------


@cache  # built once per process: in-process callers run main many times
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scds",
        description="Secure connected domination: solvers, certifiers, gadgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact minimum solver")
    p.add_argument("--problem", choices=["ds", "cds", "scds", "vc", "setcover"], default="scds")
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="certify a vertex set")
    p.add_argument("--problem", choices=["ds", "cds", "scds"], default="scds")
    p.add_argument("--input", required=True)
    p.add_argument("--set", required=True, help="comma-separated vertex indices")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("approx", help="two-stage secure connected domination")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("reduce", help="build a hardness gadget")
    p.add_argument("kind", choices=["setcover-dc", *_GRAPH_REDUCTIONS])
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="output prefix (.graph and .json)")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("gen", help="seeded instance generators")
    gsub = p.add_subparsers(dest="generator", required=True)
    pc = gsub.add_parser("chain")
    pc.add_argument("--p", type=int, required=True)
    pc.add_argument("--q", type=int, required=True)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_gen)
    pr = gsub.add_parser("random")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--edge-prob", dest="edge_prob", type=float, default=0.3)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--out")
    pr.set_defaults(func=cmd_gen)
    pg = gsub.add_parser("gc")
    pg.add_argument("--input", required=True)
    pg.add_argument("--out")
    pg.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="graph-class validators")
    csub = p.add_subparsers(dest="checker", required=True)
    for name in ("peo", "dpeo"):
        pp = csub.add_parser(name)
        pp.add_argument("--input", required=True)
        pp.add_argument("--order", required=True)
        pp.set_defaults(func=cmd_check)
    pt = csub.add_parser("tree-convex")
    pt.add_argument("--input", required=True)
    pt.add_argument("--tree", required=True)
    pt.add_argument("--side", choices=["left", "right"], default="left")
    pt.add_argument("--kind", choices=["star", "comb", "general"], default="general")
    pt.set_defaults(func=cmd_check)
    pb = csub.add_parser("chordal-bipartite")
    pb.add_argument("--input", required=True)
    pb.add_argument("--max-len", dest="max_len", type=int, default=8)
    pb.set_defaults(func=cmd_check)
    ph = csub.add_parser("chain")
    ph.add_argument("--input", required=True)
    ph.set_defaults(func=cmd_check)

    p = sub.add_parser("bench", help="seeded benchmark sweep (CSV)")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--edge-prob", dest="edge_prob", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (GraphFormatError, SetCoverFormatError, CliInputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DisconnectedGraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
