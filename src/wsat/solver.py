"""Exact and approximate computation of wsat(G,F).

wsat(G,F) is the minimum edge count of a spanning F-free subgraph H of G
whose F-closure percolates to G; a fewest-edge percolating H is F-free, so
the exact solver tests subsets by their closure alone.  It deepens over
k-edge spanning subgraphs with a degree filter from lower bounds on wsat,
among them a matroid rank bound: in the rigidity and even-cycle matroids a
qualifying F gives wsat >= r(G), plus one when every F - e is dependent.
Edges in no copy of F are always kept, and each level walks the m - k
left-out edges among the others, in lexicographic order of their reversed
list (colex order on the kept edges), reading the clock at every subset.
The greedy solver reverse-deletes edges lying in copies of F, which always
leaves a weakly saturated graph.  It finds the maps of F through an edge
with ``copy_through_edge``'s anchored search, one anchor per Aut(F)-orbit
of oriented pattern edges, each map weighted by its orbit's size.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations
from types import MappingProxyType
from typing import Callable, Iterator, Optional

from .bootstrap import ActivationTrace, _Work, closure
from .errors import InternalError, ParameterError, PreconditionError
from .graph import Graph, Seed, seed_rng
from .patterns import CopyWitness, Pattern, _maps_through, copy_through_edge


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
    method: str = "exact-search"
    budget_exceeded: bool = False
    nodes: int = 0

    def as_dict(self) -> dict:
        """The fields as JSON, the certificate as its edges and trace length."""
        d = {k: v for k, v in vars(self).items() if k != "certificate"}
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


_PRIME = 2**31 - 1


def _rank(rows, full: int) -> int:
    """Rank over GF(2^31 - 1) of a sequence of rows, by Gaussian elimination
    that stops once the basis holds ``full`` rows, a rank no rows can pass."""
    basis: list[tuple[int, list[int]]] = []  # (pivot, row) with row[pivot] == 1
    for row in rows:
        if len(basis) == full:
            break
        for pivot, b in basis:
            c = row[pivot]
            if c:
                row = [(r - c * y) % _PRIME for r, y in zip(row, b)]
        pivot = next((j for j, c in enumerate(row) if c), None)
        if pivot is not None:
            inv = pow(row[pivot], _PRIME - 2, _PRIME)
            basis.append((pivot, [c * inv % _PRIME for c in row]))
    return len(basis)


def _rigidity_rows(d: int, n: int, edges) -> Iterator[list[int]]:
    """Rows of the d-dimensional rigidity matrix at fixed, seeded points.  A
    minor nonzero mod p at some point is a nonzero integer polynomial in the
    coordinates, so their rank is never above the generic rank."""
    rng = random.Random(d)
    x = [[rng.randrange(_PRIME) for _ in range(d)] for _ in range(n)]
    for u, v in edges:
        row = [0] * (d * n)
        for i in range(d):
            row[d * u + i] = (x[u][i] - x[v][i]) % _PRIME
            row[d * v + i] = (x[v][i] - x[u][i]) % _PRIME
        yield row


def _rigidity_rank(d: int, n: int, edges) -> int:
    """``_rigidity_rows``' rank, stopped at the rank of K_n in dimension d."""
    full = d * n - d * (d + 1) // 2 if n > d else n * (n - 1) // 2
    return _rank(_rigidity_rows(d, n, edges), full)


def _counted_rank(odd: bool, n: int, edges) -> int:
    """Graphic rank n - c(G), the rigidity rank for d = 1, or with ``odd`` the
    even-cycle rank n - b(G), b(G) counting bipartite components (isolated
    vertices too): a union-find, merging by size, that keeps each vertex's
    parity to its parent and marks the roots of components with an odd cycle."""
    parent, parity, size, cyclic = list(range(n)), [0] * n, [1] * n, [False] * n

    def find(v: int) -> tuple[int, int]:
        side = 0
        while parent[v] != v:
            side, v = side ^ parity[v], parent[v]
        return v, side

    for u, v in edges:
        (a, pa), (b, pb) = find(u), find(v)
        if size[a] > size[b]:
            a, b = b, a
        if a != b:
            parent[a], parity[a], size[b] = b, pa ^ pb ^ 1, size[a] + size[b]
        cyclic[b] = cyclic[a] or cyclic[b] or (a == b and pa == pb)
    roots = [v for v in range(n) if parent[v] == v]
    return n - len(roots) + (sum(cyclic[v] for v in roots) if odd else 0)


@cache
def _qualifying(f: Pattern) -> MappingProxyType[str, tuple[Callable, int]]:
    """Name -> (rank function, +1 term) of each matroid in which F qualifies,
    worked out once per pattern and shared read-only by every solve.

    ``top`` bounds r(F) from above: the rank of K_s for the rigidity matroids
    d = 1..s-2, r(F) itself for the exact even-cycle rank.  F qualifies when
    every F - e reaches ``top``; a computed rank never exceeds the true one,
    so then r(F - e) = r(F) = top and F - e spans e.  The +1 term is 1 when
    t - 1 > top, which certifies that every F - e is dependent.
    """
    edges = f.graph.edges()
    table = [(f"rigidity-{d}", partial(_rigidity_rank, d) if d > 1 else
              partial(_counted_rank, False), d * f.s - d * (d + 1) // 2) for d in range(1, f.s - 1)]
    table.append(("even-cycle", partial(_counted_rank, True), _counted_rank(True, f.s, edges)))
    return MappingProxyType({name: (rank, int(f.t - 1 > top)) for name, rank, top in table
                             if all(rank(f.s, [x for x in edges if x != e]) >= top
                                    for e in edges)})


def _rank_bound(g: Graph, f: Pattern) -> int:
    """Matroid lower bound on wsat(G,F) (Kalai, "Weakly saturated graphs are
    rigid", 1984; Kronenberg-Martins-Morrison 2021), 0 if F never qualifies.

    Where F qualifies, completing a copy of F never raises the rank, so a
    weakly saturated H has r(H) = r(G).  With the +1 term, if G contains F
    the first edge added has its F' - e, a dependent set, in H, so
    |H| >= r(G) + 1.  An F-free host has wsat = |E(G)|, hence the cap.
    """
    edges = g.edges()
    bound = max((rank(g.n, edges) + plus for rank, plus in _qualifying(f).values()),
                default=0)
    return min(g.m_edges, bound)


def wsat_exact(
    g: Graph, f: Pattern, budget: SearchBudget | None = None
) -> WsatResult:
    """Iterative-deepening exact solver.

    Deepens k from the largest of the general lower bound, the matroid
    rank bound and half the sum over v of min{d_G(v), delta(F)-1}, rounded
    up (a solved result still reports the general bound as ``lower``); at
    each k, enumerates k-edge spanning subgraphs, discards any whose vertex
    degrees fall below min{d_G(v), delta(F)-1}, or that keeps no edge the
    last failed closure missed (closures are monotone, so it fails too),
    then tests percolation.  A fewest-edge percolating H is F-free (the
    closure of H - e would add e back through a copy), and the first one
    found is one because every start term is a lower bound on wsat.  Every
    edge in no copy of F is kept, each level walks only the other edges, and
    ``nodes`` counts every subset of those edges reached, skipped or not.
    If no edge is in a copy, H = G is forced: the answer is |E(G)| at once.
    """
    budget = budget or SearchBudget()
    start = time.monotonic()
    m = g.m_edges
    # a closure adds an edge only through a copy of F, so every percolating H
    # keeps each edge in no copy (E0).  A walk of the other edges meets the
    # subsets that keep E0 in the colex order a walk of all edges does
    droppable = [e for e in g.edges()[::-1] if copy_through_edge(g, f, e) is not None]

    if not droppable:
        # no edge of the host can ever complete a copy of F, so H = G is forced
        return WsatResult(
            lower=m,
            upper=m,
            exact=m,
            certificate=(g, ActivationTrace()),
        )

    degree = [g.degree(v) for v in range(g.n)]
    need = [min(d, f.delta - 1) for d in degree]
    lower = lower_bound_general(g, f)
    # below half the degree sum the degree filter rejects every k-subset
    k = max(lower, _rank_bound(g, f), -(-sum(need) // 2))
    nodes = 0
    missed: frozenset = frozenset()  # the missing edges of the last failed closure

    while k <= m:
        # lex order on the m - k left-out edges of the reversed edge list is
        # colex order on the k kept edges of the sorted one
        for dropped in combinations(droppable, m - k):
            if nodes >= budget.max_nodes or time.monotonic() - start > budget.max_seconds:
                return WsatResult(lower=k, upper=m, budget_exceeded=True, nodes=nodes)
            nodes += 1
            deg = degree.copy()
            for u, v in dropped:
                deg[u] -= 1
                deg[v] -= 1
            if any(deg[v] < need[v] for v in range(g.n)) or (
                    missed and missed.issubset(dropped)):
                continue
            h = Graph(g.n, g.edge_set.difference(dropped))
            res = closure(g, f, h)
            missed = res.missing
            if res.percolates:
                return WsatResult(
                    lower=lower,
                    upper=k,
                    exact=k,
                    certificate=(h, res.trace),
                    nodes=nodes,
                )
        k += 1
    raise InternalError("unreachable: the host itself percolates, so k = |E(G)| succeeds")


def greedy_upper_bound(g: Graph, f: Pattern, seed: Seed | int = 0) -> WsatResult:
    """Reverse-delete upper bound.

    Repeatedly deletes an edge lying in a copy of F, preferring the edge that
    lies in the fewest copies (seeded random tie-break): destroying as little
    structure as possible keeps later deletions available.  The remainder is
    F-free, and replaying the deletions in reverse is a valid saturation
    order, so the remainder is weakly (G,F)-saturated.

    An edge's count, the maps of F through it, sums the orbit sizes of its
    anchored maps (``_maps_through``).  Deleting e subtracts each one's size
    from its t host edges; the witness is the first, ``copy_through_edge``'s.
    """
    rng = seed_rng(seed)
    work = _Work(g)
    through: Counter = Counter()
    for u, v in g.edges():
        for _, size in _maps_through(work, f, u, v):
            through[u, v] += size
    deletions: list = []
    while through:
        best = min(through.values())
        e = rng.choice(sorted(e for e, c in through.items() if c == best))
        lost: Counter = Counter()
        for mapping, size in _maps_through(work, f, *e):
            if not lost:
                deletions.append((e, CopyWitness(tuple(mapping))))
            for x, y in f.graph.edge_set:
                a, b = mapping[x], mapping[y]
                lost[(a, b) if a < b else (b, a)] += size
        if not lost:  # a count that no map backs would never reach zero
            raise InternalError(f"greedy counted maps through {e}, but none is left")
        through -= lost  # drops zeros, e among them
        work.remove(*e)
    h = Graph(g.n, g.edge_set.difference(e for e, _ in deletions))
    lower = lower_bound_general(g, f) if g.n >= f.s else 0
    return WsatResult(
        lower=min(lower, h.m_edges),
        upper=h.m_edges,
        certificate=(h, ActivationTrace(deletions[::-1])),
        method="greedy",
    )
