"""Brute-force optimal solvers: the ground truth at desk scale.

All solvers enumerate candidate sets in increasing cardinality and, within
a cardinality, in lexicographic order of the free part, so the first
feasible set found is the minimum and, among minima, the lexicographically
smallest witness.  A budget on the candidate-space size (default 2**26)
keeps the oracles honest about their scale.

Candidates are bitmasks, bit ``v`` for vertex ``v``; no other module forms
them.  Each search builds the table of N(v) masks once, and its
per-candidate tests read it (``is_cds_mask`` tests connectivity first,
since most candidates fail there).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Iterator

from .certify import SecurityCertificate, _defend, _dominators, _swap_structure
from .graph import DisconnectedGraphError, Graph, is_connected, read_header

DEFAULT_BUDGET = 1 << 26


class BudgetExceededError(RuntimeError):
    """The candidate space is larger than the configured budget."""


class SetCoverFormatError(ValueError):
    """A set-cover text file could not be parsed."""


@dataclass(frozen=True)
class ExactResult:
    """Optimum value, canonical witness, and the number of candidates examined."""

    size: int
    witness: tuple[int, ...]
    explored: int


@dataclass(frozen=True)
class SetCoverInstance:
    universe_size: int
    family: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.universe_size < 0:
            raise ValueError("universe size must be nonnegative")
        object.__setattr__(self, "family", tuple(frozenset(s) for s in self.family))
        for j, subset in enumerate(self.family):
            for e in subset:
                if not 0 <= e < self.universe_size:
                    raise ValueError(f"subset {j} contains out-of-universe element {e}")

    def is_feasible(self) -> bool:
        covered: set[int] = set()
        for subset in self.family:
            covered |= subset
        return len(covered) == self.universe_size


def mask_from(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _neighbor_masks(g: Graph) -> tuple[int, ...]:
    """The N(v) masks by v: Θ(n²) bits, built once per search."""
    return tuple(map(mask_from, g.adjacency()))


def reach_within(nm: tuple[int, ...], mask: int) -> int:
    """The vertices of ``mask`` reachable from its smallest one inside the
    subgraph it induces; G[mask] is connected iff that is all of ``mask``."""
    seen = frontier = mask & -mask
    while frontier:
        grown = 0
        for v in iter_bits(frontier):
            grown |= nm[v]
        frontier = grown & mask & ~seen
        seen |= frontier
    return seen


def is_dominating_mask(nm: tuple[int, ...], full: int, smask: int) -> bool:
    """Whether N[S] = S | N(S) is ``full`` = (1 << n) - 1."""
    covered = smask
    for v in iter_bits(smask):
        covered |= nm[v]
    return covered == full


def _dominates(g: Graph) -> Callable[[int], bool]:
    """The domination test of :func:`min_ds` and ``dom_set_approx``."""
    nm, full = _neighbor_masks(g), (1 << g.n) - 1
    return lambda smask: is_dominating_mask(nm, full, smask)


def is_cds_mask(nm: tuple[int, ...], full: int, smask: int) -> bool:
    # The empty set is never a CDS, including on the empty graph.
    return bool(smask) and reach_within(nm, smask) == smask and is_dominating_mask(nm, full, smask)


def is_scds_mask(g: Graph, nm: tuple[int, ...], full: int, smask: int) -> SecurityCertificate | None:
    if not is_cds_mask(nm, full, smask):
        return None
    members = list(iter_bits(smask))
    doms = _dominators(g, members)
    defended, undefended = _defend(g, doms, *_swap_structure(doms, members[0]), members[0])
    return None if undefended >= 0 else SecurityCertificate(defended)


def _min_subset(
    items: int,
    forced: Iterable[int],
    feasible: Callable[[int], bool],
    budget: int,
    *,
    most: int | None = None,
) -> tuple[int, int] | None:
    """Smallest superset-of-forced mask over ``range(items)`` passing ``feasible``.

    A candidate adds at most ``most`` free items (no cap if None), so the
    space is the sum of C(free, j) for j <= cap, which is 2**free uncapped.
    Returns (mask, explored) or None if nothing is feasible.
    """
    forced_set = set(forced)
    free = [i for i in range(items) if i not in forced_set]
    cap = len(free) if most is None else min(most, len(free))
    if cap == len(free):
        space, shown = 1 << cap, f"2**{cap}"
    else:
        space = shown = sum(comb(len(free), j) for j in range(cap + 1))
    if space > budget:
        raise BudgetExceededError(f"free-choice space {shown} exceeds budget {budget}")
    base = mask_from(forced_set)
    explored = 0
    for k in range(cap + 1):
        for combo in combinations(free, k):
            mask = base | mask_from(combo)
            explored += 1
            if feasible(mask):
                return mask, explored
    return None


def _as_result(mask: int, explored: int) -> ExactResult:
    witness = tuple(iter_bits(mask))
    return ExactResult(size=len(witness), witness=witness, explored=explored)


def min_ds(g: Graph, *, budget: int = DEFAULT_BUDGET) -> ExactResult:
    """Minimum dominating set."""
    found = _min_subset(g.n, (), _dominates(g), budget)
    assert found is not None  # V always dominates
    return _as_result(*found)


def min_cds(g: Graph, *, budget: int = DEFAULT_BUDGET) -> ExactResult:
    """Minimum connected dominating set; requires a connected, nonempty graph."""
    if g.n == 0:
        raise ValueError("the empty graph has no connected dominating set")
    if not is_connected(g):
        raise DisconnectedGraphError("minimum CDS requires a connected graph")
    nm, full = _neighbor_masks(g), (1 << g.n) - 1
    found = _min_subset(g.n, (), lambda m: is_cds_mask(nm, full, m), budget)
    assert found is not None  # V is a CDS of a connected graph
    return _as_result(*found)


def min_scds(
    g: Graph,
    forced: Iterable[int] = (),
    *,
    budget: int = DEFAULT_BUDGET,
) -> ExactResult:
    """Minimum secure connected dominating set among supersets of ``forced``.

    The solver only restricts the search; it is the caller's claim that
    every optimum contains ``forced`` (pendants and supports for n >= 3,
    cut vertices, or reduction-specific arguments).  With an empty forced
    set the result is the unconstrained optimum.
    """
    if g.n == 0:
        raise ValueError("the empty graph has no secure connected dominating set")
    if not is_connected(g):
        raise DisconnectedGraphError("minimum SCDS requires a connected graph")
    forced = frozenset(forced)
    for v in forced:
        if not 0 <= v < g.n:
            raise ValueError(f"forced vertex {v} out of range for n={g.n}")
    nm, full = _neighbor_masks(g), (1 << g.n) - 1
    found = _min_subset(g.n, forced, lambda m: is_scds_mask(g, nm, full, m) is not None, budget)
    assert found is not None  # V is an SCDS of a connected graph
    return _as_result(*found)


def min_vertex_cover(g: Graph, *, budget: int = DEFAULT_BUDGET) -> ExactResult:
    """Minimum vertex cover."""
    edge_masks = [(1 << u) | (1 << v) for u, v in g.edges()]

    def covers(mask: int) -> bool:
        return all(mask & e for e in edge_masks)

    found = _min_subset(g.n, (), covers, budget)
    assert found is not None
    return _as_result(*found)


def min_set_cover(inst: SetCoverInstance, *, budget: int = DEFAULT_BUDGET) -> ExactResult:
    """Minimum subfamily covering the universe; witness holds subset indices."""
    if not inst.is_feasible():
        raise ValueError("infeasible instance: the family does not cover the universe")
    universe = (1 << inst.universe_size) - 1
    subset_masks = [mask_from(s) for s in inst.family]

    def covers(mask: int) -> bool:
        covered = 0
        for j in iter_bits(mask):
            covered |= subset_masks[j]
        return covered == universe

    found = _min_subset(len(inst.family), (), covers, budget)
    assert found is not None
    return _as_result(*found)


def parse_set_cover(text: str) -> tuple[SetCoverInstance, int]:
    """Parse the set-cover text format.

    ``#`` lines are comments.  First data line is ``n m k``, three
    nonnegative integers; then m lines, each ``c e1 e2 ... ec`` (subset
    cardinality, then 0-based elements).
    Returns the instance together with the decision threshold k.
    """
    (n, _m, k), lines = read_header(text, "n m k", "subset", SetCoverFormatError)
    family = []
    for lineno, line in lines:
        try:
            values = [int(f) for f in line.split()]
        except ValueError as exc:
            raise SetCoverFormatError(f"line {lineno}: subset line must be integers") from exc
        if not values or values[0] != len(values) - 1:
            raise SetCoverFormatError(f"line {lineno}: cardinality prefix mismatch")
        elems = values[1:]
        if any(not 0 <= e < n for e in elems):
            raise SetCoverFormatError(f"line {lineno}: element out of universe")
        family.append(frozenset(elems))
    return SetCoverInstance(universe_size=n, family=tuple(family)), k


def format_set_cover(inst: SetCoverInstance, k: int) -> str:
    lines = [f"{inst.universe_size} {len(inst.family)} {k}"]
    for subset in inst.family:
        elems = sorted(subset)
        lines.append(" ".join([str(len(elems))] + [str(e) for e in elems]))
    return "\n".join(lines) + "\n"


def load_set_cover(path) -> tuple[SetCoverInstance, int]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_set_cover(fh.read())
