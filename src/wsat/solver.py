"""Exact and approximate computation of wsat(G,F).

wsat(G,F) is the minimum edge count of a spanning F-free subgraph H of G
whose F-closure percolates to G.  The exact solver runs iterative deepening
over k-edge spanning subgraphs (colexicographic subset order) with a degree
filter; the greedy solver reverse-deletes edges lying in copies of F, which
always leaves a weakly saturated graph.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional

from .bootstrap import ActivationTrace, closure, is_weakly_saturated
from .errors import ParameterError, PreconditionError
from .graph import Graph, Seed
from .patterns import Pattern, _iter_maps, contains_copy, copy_through_edge


@dataclass
class SearchBudget:
    max_nodes: int = 10**8
    max_seconds: float = 60.0

    def __post_init__(self):
        if not (self.max_nodes > 0 and self.max_seconds > 0):  # also rejects NaN
            raise ParameterError("budget must be positive")


@dataclass
class WsatResult:
    lower: int
    upper: int
    exact: Optional[int] = None
    certificate: Optional[tuple[Graph, ActivationTrace]] = None
    method: str = "bound"
    budget_exceeded: bool = False
    nodes: int = 0

    def as_dict(self) -> dict:
        d = {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "method": self.method,
            "budget_exceeded": self.budget_exceeded,
            "nodes": self.nodes,
        }
        if self.certificate is not None:
            h, tr = self.certificate
            d["certificate_edges"] = [list(e) for e in h.edges()]
            d["certificate_trace_length"] = len(tr)
        return d


def lower_bound_general(g: Graph, f: Pattern) -> int:
    """min{|E(G)|, (t-1) + min{delta(G), delta(F)-1} * (|V(G)|-s) / 2}, rounded up."""
    if g.n < f.s:
        raise PreconditionError("host must have at least as many vertices as the pattern")
    d = min(g.min_degree(), f.delta - 1)
    num = 2 * (f.t - 1) + d * (g.n - f.s)
    bound = -(-num // 2)  # ceil
    return min(g.m_edges, bound)


def _colex_subsets(m: int, k: int) -> Iterator[tuple[int, ...]]:
    """k-subsets of range(m) in colexicographic order."""
    if k == 0:
        yield ()
        return
    for last in range(k - 1, m):
        for rest in _colex_subsets(last, k - 1):
            yield rest + (last,)


def wsat_exact(
    g: Graph, f: Pattern, budget: SearchBudget | None = None
) -> WsatResult:
    """Iterative-deepening exact solver.

    Deepens k from the general lower bound; at each k, enumerates k-edge
    spanning subgraphs, discards any whose vertex degrees fall below
    min{d_G(v), delta(F)-1}, then tests F-freeness and percolation.  If the
    host itself has no copy of F, the host is the unique weakly saturated
    graph and the answer is |E(G)| immediately.
    """
    budget = budget or SearchBudget()
    start = time.monotonic()
    m = g.m_edges

    if not contains_copy(g, f):
        # no edge of the host can ever complete a copy of F, so H = G is forced
        return WsatResult(
            lower=m,
            upper=m,
            exact=m,
            certificate=(g, ActivationTrace()),
            method="exact-search",
        )

    edges = g.edges()
    need = [min(g.degree(v), f.delta - 1) for v in range(g.n)]
    need_total = sum(need)
    k = lower_bound_general(g, f)
    nodes = 0

    while k <= m:
        if need_total > 2 * k:
            k += 1  # degree filter kills the whole level
            continue
        for subset in _colex_subsets(m, k):
            nodes += 1
            if nodes > budget.max_nodes or (
                nodes % 1024 == 0 and time.monotonic() - start > budget.max_seconds
            ):
                return WsatResult(
                    lower=k, upper=m, method="exact-search",
                    budget_exceeded=True, nodes=nodes,
                )
            deg = [0] * g.n
            for i in subset:
                u, v = edges[i]
                deg[u] += 1
                deg[v] += 1
            if any(deg[v] < need[v] for v in range(g.n)):
                continue
            h = Graph(g.n, (edges[i] for i in subset))
            if k >= f.t and contains_copy(h, f):
                continue
            res = closure(g, f, h)
            if res.percolates:
                return WsatResult(
                    lower=lower_bound_general(g, f),
                    upper=k,
                    exact=k,
                    certificate=(h, res.trace),
                    method="exact-search",
                    nodes=nodes,
                )
        k += 1
    raise AssertionError("unreachable: the host itself is always weakly saturated "
                         "when it is F-free, and contains F otherwise, so some k succeeds")


def wsat_exact_naive(g: Graph, f: Pattern) -> int:
    """Unpruned enumeration oracle: smallest k whose k-edge spanning subgraphs
    contain a weakly saturated one.  Test-grade, no budget, no filters."""
    from itertools import combinations

    if not contains_copy(g, f):
        return g.m_edges
    edges = g.edges()
    for k in range(0, g.m_edges + 1):
        for subset in combinations(edges, k):
            h = Graph(g.n, subset)
            if is_weakly_saturated(g, f, h):
                return k
    raise AssertionError("unreachable")


def greedy_upper_bound(g: Graph, f: Pattern, seed: Seed | int = 0) -> WsatResult:
    """Reverse-delete upper bound.

    Repeatedly deletes an edge lying in a copy of F, preferring the edge that
    lies in the fewest copies (seeded random tie-break): destroying as little
    structure as possible keeps later deletions available.  The remainder is
    F-free, and replaying the deletions in reverse is a valid saturation
    order, so the remainder is weakly (G,F)-saturated.
    """
    if isinstance(seed, int):
        seed = Seed(seed)
    rng = seed.rng()
    work_edges = set(g.edge_set)
    deletions: list = []
    current = g
    while True:
        # one pass over the maps F -> current; an injective map sends F's t
        # edges to t distinct host edges, so each edge is counted
        # |copies through it| * |Aut(F)| times
        through: Counter = Counter()
        for mapping in _iter_maps(f.graph, f.order, current):
            for x, y in f.graph.edge_set:
                a, b = mapping[x], mapping[y]
                through[(a, b) if a < b else (b, a)] += 1
        if not through:
            break
        best = min(through.values())
        e = rng.choice(sorted(e for e, c in through.items() if c == best))
        w = copy_through_edge(current, f, e)
        deletions.append((e, w))
        work_edges.remove(e)
        current = Graph(g.n, work_edges)
    h = current
    trace = ActivationTrace(list(reversed(deletions)))
    lower = lower_bound_general(g, f) if g.n >= f.s else 0
    return WsatResult(
        lower=min(lower, len(work_edges)),
        upper=len(work_edges),
        certificate=(h, trace),
        method="greedy",
    )
