"""Reference implementations the tests check the engine against.

All are deliberately unoptimized: ``closure_naive`` rescans every missing
edge after each addition, ``wsat_exact_naive`` tries every edge subset in
increasing size, and ``greedy_naive`` re-enumerates every map of F into the
current graph in each deletion round.  They are not part of the ``wsat``
package.
"""

from collections import Counter

from wsat.bootstrap import (
    ActivationTrace,
    ClosureResult,
    _Work,
    is_weakly_saturated,
)
from wsat.errors import PreconditionError
from wsat.graph import Edge, Graph, Seed, seed_rng
from wsat.patterns import (
    CopyWitness, Pattern, _iter_maps, contains_copy, copy_through_edge)
from wsat.solver import WsatResult, lower_bound_general


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
    closed = Graph(host.n, seed.edge_set.union(e for e, _ in steps))
    return ClosureResult(closed, ActivationTrace(steps), closed.edge_set == host.edge_set)


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
        for mapping in _iter_maps(f.graph, current):
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
