"""Independent checks of the CLI's outputs.

Every check works from the benchmark's own adjacency sets and the
definitions; nothing here imports ``scds``.  A check raises
:class:`CheckFailed` with the reason.  :func:`corruptions` builds outputs
that are wrong by construction; the run feeds them to the same checks and
stops if one is accepted, so a check that has stopped looking is caught.
"""

from __future__ import annotations

from workloads import Instance


class CheckFailed(Exception):
    """An output is wrong."""


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def _connected(adj, s: set[int]) -> bool:
    """True iff s is nonempty and G[s] is connected (breadth-first search)."""
    if not s:
        return False
    start = min(s)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w in s and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == len(s)


def _undominated(adj, s: set[int], universe) -> list[int]:
    """Vertices of ``universe`` neither in s nor adjacent to s."""
    return [v for v in universe if v not in s and not adj[v] & s]


def is_cds(adj, s: set[int]) -> bool:
    return _connected(adj, s) and not _undominated(adj, s, range(len(adj)))


def has_defender(adj, s: set[int], u: int) -> bool:
    """Some neighbour v of u in s leaves (s - {v}) | {u} a connected dominating set."""
    return any(is_cds(adj, (s - {v}) | {u}) for v in adj[u] & s)


def is_scds(adj, s: set[int]) -> bool:
    return is_cds(adj, s) and all(has_defender(adj, s, u) for u in range(len(adj)) if u not in s)


def _vertex_list(out: dict, key: str, n: int) -> set[int]:
    values = out.get(key)
    _require(isinstance(values, list) and all(isinstance(v, int) for v in values),
             f"{key} is not a list of vertices")
    _require(values == sorted(set(values)), f"{key} is not strictly increasing")
    _require(all(0 <= v < n for v in values), f"{key} names a vertex out of range")
    return set(values)


def _pendants_and_supports(adj) -> set[int]:
    out = set()
    for v, nbrs in enumerate(adj):
        if len(nbrs) == 1:
            out.add(v)
            out |= nbrs
    return out


def paper_chain_size(left_degrees: list[int], q: int) -> int:
    """Size of {y1, y2, x_{p-1}, x_p} plus all pendants, from the degree sequence."""
    p = len(left_degrees)
    if p == 1 or q == 1:
        return p + q
    right_degrees = [sum(1 for d in left_degrees if d >= j) for j in range(1, q + 1)]
    pendants = left_degrees.count(1) + right_degrees.count(1)
    named_pendants = (left_degrees[-2] == 1) + (right_degrees[1] == 1)
    return 4 + pendants - named_pendants


def check_approx(inst: Instance, adj, code: int, out: dict) -> None:
    """d_c is a CDS, d dominates G - d_c, d_sc = d_c | d: d_sc is secure."""
    _require(code == 0, f"exit code {code}")
    d_c, d, d_sc = (_vertex_list(out, key, inst.n) for key in ("d_c", "d", "d_sc"))
    _require(_connected(adj, d_c), "d_c does not induce a connected subgraph")
    _require(not _undominated(adj, d_c, range(inst.n)), "d_c does not dominate G")
    _require(not d & d_c, "d meets d_c")
    rest = set(range(inst.n)) - d_c
    _require(not _undominated(adj, d, rest), "d does not dominate G - d_c")
    _require(d_sc == d_c | d, "d_sc is not d_c | d")
    delta = max(len(nbrs) for nbrs in adj)
    _require(out.get("delta") == delta, f"delta {out.get('delta')}, expected {delta}")
    _require(out.get("bound") == delta + 1, f"bound {out.get('bound')}, expected {delta + 1}")


def check_exact(inst: Instance, adj, code: int, out: dict) -> None:
    """The witness is an SCDS of the recorded optimum size holding pendants and supports."""
    _require(code == 0, f"exit code {code}")
    _require(out.get("problem") == "scds", "problem is not scds")
    witness = _vertex_list(out, "witness", inst.n)
    _require(len(witness) == out.get("size"), "size is not the witness length")
    _require(is_scds(adj, witness), "witness is not a secure connected dominating set")
    _require(_pendants_and_supports(adj) <= witness, "witness misses a pendant or support")
    optimum = inst.facts["optimum"]
    _require(out["size"] == optimum, f"size {out['size']}, recorded optimum {optimum}")


def check_chain(inst: Instance, adj, code: int, out: dict) -> None:
    """Orders are the two sides with nested neighbourhoods; the set is a small SCDS."""
    _require(code == 0, f"exit code {code}")
    _require(out.get("chain") is True, "not recognised as a chain graph")
    xs, ys = out.get("x_order"), out.get("y_order")
    _require(isinstance(xs, list) and isinstance(ys, list), "orders missing")
    _require(sorted(xs + ys) == list(range(inst.n)), "orders do not partition the vertices")
    for side in (xs, ys):
        members = set(side)
        _require(all(not adj[v] & members for v in side), "an edge lies inside one side")
    _require(all(adj[a] <= adj[b] for a, b in zip(xs, xs[1:])), "x_order neighbourhoods not ascending")
    _require(all(adj[a] >= adj[b] for a, b in zip(ys, ys[1:])), "y_order neighbourhoods not descending")
    built = _vertex_list(out, "upper_bound_set", inst.n)
    _require(is_scds(adj, built), "upper_bound_set is not a secure connected dominating set")
    bound = paper_chain_size(inst.facts["left_degrees"], inst.facts["q"])
    _require(len(built) <= bound, f"upper_bound_set has {len(built)} vertices, construction gives {bound}")


def check_verify(inst: Instance, adj, code: int, out: dict) -> None:
    """The set is rejected at its first undefended vertex, the gadget pendant."""
    _require(code == 1, f"exit code {code}")
    _require(out.get("problem") == "scds", "problem is not scds")
    _require(out.get("reason") == "undefended", f"reason {out.get('reason')!r}")
    s = set(inst.facts["set"])
    vertex = out.get("failing_vertex")
    _require(isinstance(vertex, int) and 0 <= vertex < inst.n and vertex not in s,
             "failing_vertex is not a vertex outside the set")
    _require(is_cds(adj, s), "the set is not a CDS, so the first failure is not a defence")
    _require(not has_defender(adj, s, vertex), f"failing vertex {vertex} has a defender")
    for u in range(vertex):
        if u not in s:
            _require(has_defender(adj, s, u), f"vertex {u} before the failing vertex has no defender")
    _require(vertex == inst.facts["pendant"], "failing_vertex is not the first gadget pendant")


CHECKS = {
    "approx_sparse": check_approx,
    "exact_scds": check_exact,
    "chain_dense": check_chain,
    "verify_reject": check_verify,
}


def corruptions(workload: str, inst: Instance, adj, out: dict) -> list[tuple[str, dict]]:
    """Outputs that are wrong by construction, derived from a correct one."""
    bad = []
    if workload == "approx_sparse":
        bad.append(("vertex dropped from d_c", {**out, "d_c": out["d_c"][1:]}))
        d_c = set(out["d_c"])
        for w in range(len(adj)):
            dominators = (adj[w] | {w}) & d_c
            if len(dominators) == 1:
                (v,) = dominators
                bad.append(("sole dominator dropped from d_c and d_sc", {
                    **out,
                    "d_c": [x for x in out["d_c"] if x != v],
                    "d_sc": [x for x in out["d_sc"] if x != v],
                }))
                break
    elif workload == "exact_scds":
        # Every SCDS of a graph with n >= 3 holds all pendants and supports.
        witness = set(out["witness"])
        forced = sorted(_pendants_and_supports(adj) & witness)
        if forced and len(adj) >= 3:
            newcomer = min(set(range(len(adj))) - witness)
            swapped = sorted((witness - {forced[0]}) | {newcomer})
            bad.append(("witness with one vertex swapped", {**out, "witness": swapped}))
    elif workload == "chain_dense":
        xs = list(out["x_order"])
        if adj[xs[0]] != adj[xs[-1]]:
            xs[0], xs[-1] = xs[-1], xs[0]
            bad.append(("x_order with two vertices exchanged", {**out, "x_order": xs}))
    elif workload == "verify_reject":
        # By construction a + 1 is undefended too and every original outside
        # vertex, the smallest one included, is defended.
        vertex = out["failing_vertex"]
        bad.append(("later undefended vertex", {**out, "failing_vertex": vertex + 1}))
        first_outside = min(set(range(inst.n)) - set(inst.facts["set"]))
        bad.append(("defended vertex", {**out, "failing_vertex": first_outside}))
    return bad
