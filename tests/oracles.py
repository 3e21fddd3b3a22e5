"""Reference implementations the tests check the engine against.

Both are deliberately unoptimized: ``closure_naive`` rescans every missing
edge after each addition, and ``wsat_exact_naive`` tries every edge subset
in increasing size.  They are not part of the ``wsat`` package.
"""

from wsat.bootstrap import (
    ActivationTrace,
    ClosureResult,
    _try_edge,
    _Work,
    is_weakly_saturated,
)
from wsat.errors import PreconditionError
from wsat.graph import Edge, Graph
from wsat.patterns import CopyWitness, Pattern, contains_copy


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
            w = _try_edge(work, f, e)
            if w is not None:
                steps.append((e, w))
                missing.remove(e)
                progress = True
    closed = Graph(host.n, work.edges())
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
