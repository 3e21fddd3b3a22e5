"""Reference implementations the tests check the engine against, and
``validate``, a full re-check of a graph's adjacency sets.

All are deliberately unoptimized: ``closure_naive`` rescans every missing
edge after each addition, ``closure_requeue_all`` re-tests every set-aside
edge after each addition, ``first_saturated_naive`` tries every edge subset
in the exact search's order and returns the first weakly saturated one
(``wsat_exact_naive`` gives its size), ``greedy_naive`` re-enumerates
every map of F into the current graph in each deletion round,
``count_injective_maps`` counts maps with no symmetry breaking, and
``even_cycle_rows`` gives the even-cycle matroid as rows for a Gaussian
elimination.  They are not part of the ``wsat`` package.
"""

from collections import Counter, deque

from wsat.bootstrap import (
    ActivationTrace,
    ClosureResult,
    _Work,
    is_weakly_saturated,
)
from wsat.errors import InternalError, PreconditionError
from wsat.graph import Edge, Graph, Seed, seed_rng
from wsat.patterns import (
    CopyWitness, Pattern, _plan, _search, contains_copy, copy_through_edge)
from wsat.solver import WsatResult, lower_bound_general


def validate(g: Graph) -> None:
    """Re-check a graph's adjacency sets over all pairs: loop-free,
    symmetric, and agreeing with its edge count."""
    for v in range(g.n):
        if v in g.adj[v]:
            raise InternalError(f"loop at {v}")
        for u in g.adj[v]:
            if v not in g.adj[u]:
                raise InternalError(f"asymmetric pair ({u},{v})")
    if 2 * g.m_edges != sum(len(s) for s in g.adj):
        raise InternalError("edge count disagrees with the adjacency sets")


def every_map(pat: Graph, host, fixed: dict[int, int] | None = None) -> list[tuple[int, ...]]:
    """Every map of ``pat`` into ``host`` sending each vertex pinned in
    ``fixed`` to its host vertex, in search order, from a fresh ``_plan``.
    No pattern edge between two pinned vertices is checked."""
    fixed = fixed or {}
    mapping = [fixed.get(pv, -1) for pv in range(pat.n)]
    return [tuple(m) for m in _search(_plan(pat, tuple(fixed)), host, mapping)]


def count_injective_maps(g, f: Pattern) -> int:
    """Number of injective edge-preserving maps V(F) -> V(G)."""
    return sum(1 for _ in _search(_plan(f.graph, ()), g))


def even_cycle_rows(n: int, edges):
    """Rows e_u + e_v of the even-cycle matroid; over GF(p), p odd, their rank
    is exactly n - b(G), b(G) counting bipartite components."""
    for u, v in edges:
        row = [0] * n
        row[u] = row[v] = 1
        yield row


def validates_naive(mapping, g: Graph, f: Pattern, through=None) -> bool:
    """``CopyWitness.validates`` by its definition: s distinct host vertices,
    every edge of F sent onto a host edge, and, given ``through``, some edge
    of F sent onto that unordered pair."""
    if len(mapping) != f.s or len(set(mapping)) != f.s:
        return False
    if not all(v in range(g.n) for v in mapping):
        return False
    images = [frozenset((mapping[a], mapping[b])) for a, b in f.graph.edges()]
    if not all(tuple(sorted(e)) in g.edge_set for e in images):
        return False
    return through is None or frozenset(through) in images


def closure_naive(host: Graph, f: Pattern, seed: Graph, scan_order=None) -> ClosureResult:
    """Reference fixpoint: rescan every missing edge after each addition.

    ``scan_order`` optionally permutes the candidate scan; the resulting edge
    set must be identical for every order (order-independence oracle).
    """
    if not seed.is_spanning_subgraph_of(host):
        raise PreconditionError("seed must be a spanning subgraph of the host")
    work = _Work(seed)
    missing = sorted(host.edge_set - seed.edge_set)
    if scan_order is not None:
        missing = list(scan_order(missing))
    steps: list[tuple[Edge, CopyWitness]] = []
    progress = True
    while progress:
        progress = False
        for e in list(missing):
            work.add(*e)
            w = copy_through_edge(work, f, e)
            if w is None:
                work.remove(*e)
            else:
                steps.append((e, w))
                missing.remove(e)
                progress = True
    return ClosureResult(host, ActivationTrace(steps), frozenset(missing))


def closure_requeue_all(host: Graph, f: Pattern, seed: Graph) -> ClosureResult:
    """``closure``'s work queue without its clique wake-up rule: every
    successful addition re-tests every set-aside edge.  Same queue order, so
    the same trace, step for step."""
    if not seed.is_spanning_subgraph_of(host):
        raise PreconditionError("seed must be a spanning subgraph of the host")
    work = _Work(seed)
    queue = deque(sorted(host.edge_set - seed.edge_set))
    stalled: set[Edge] = set()
    steps: list[tuple[Edge, CopyWitness]] = []
    while queue:
        e = queue.popleft()
        work.add(*e)
        w = copy_through_edge(work, f, e)
        if w is None:
            work.remove(*e)
            stalled.add(e)
            continue
        steps.append((e, w))
        queue.extend(sorted(stalled))
        stalled.clear()
    return ClosureResult(host, ActivationTrace(steps), frozenset(stalled))


def wsat_exact_naive(g: Graph, f: Pattern) -> int:
    """Unpruned enumeration oracle: the fewest edges of a weakly saturated
    spanning subgraph.  Test-grade, no budget, no filters."""
    return first_saturated_naive(g, f).m_edges


def first_saturated_naive(g: Graph, f: Pattern) -> Graph:
    """The first weakly saturated spanning subgraph in ``wsat_exact``'s order:
    fewest edges, then colex on the kept edges, which is lex on the left-out
    edges of the reversed edge list.  Any edge may be left out, and each
    subgraph is tested by ``is_weakly_saturated``; an F-free host is its own
    only weakly saturated subgraph."""
    from itertools import combinations

    if not contains_copy(g, f):
        return g
    edges = g.edges()[::-1]
    for k in range(g.m_edges, -1, -1):
        for dropped in combinations(edges, k):
            h = Graph(g.n, g.edge_set.difference(dropped))
            if is_weakly_saturated(g, f, h):
                return h
    raise AssertionError("unreachable")


def greedy_naive(g: Graph, f: Pattern, seed: Seed | int = 0) -> WsatResult:
    """Reverse-delete upper bound.

    Repeatedly deletes an edge lying in a copy of F, preferring the edge that
    lies in the fewest copies (seeded random tie-break): destroying as little
    structure as possible keeps later deletions available.  The remainder is
    F-free, and replaying the deletions in reverse is a valid saturation
    order, so the remainder is weakly (G,F)-saturated.
    """
    rng = seed_rng(seed)
    work_edges = set(g.edge_set)
    deletions: list = []
    current = g
    while True:
        # one pass over the maps F -> current; an injective map sends F's t
        # edges to t distinct host edges, so each edge is counted
        # |copies through it| * |Aut(F)| times
        through: Counter = Counter()
        for mapping in every_map(f.graph, current):
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
