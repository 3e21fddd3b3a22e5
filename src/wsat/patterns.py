"""Subgraph-pattern machinery: containment, witnesses through an edge,
automorphism counting, and copy counting.

A "copy" of a pattern F in G is a subgraph of G isomorphic to F -- not
necessarily induced.  All searches are deterministic: candidate host vertices
are tried in ascending index order, so the first witness found for a given
input is always the same.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from math import prod
from typing import Optional

from .errors import InternalError, ParameterError
from .graph import Edge, Graph


@dataclass(frozen=True)
class Pattern:
    """A target graph F with cached invariants.

    Isolated vertices are stripped by :func:`normalize_pattern` (they do not
    affect weak saturation), so ``delta >= 1`` always holds.  The matcher
    works out its own vertex order from ``graph``.  ``breaks`` holds pairs
    (b, w) for "map(b) < map(w)", under which an unpinned search yields one
    map per copy: w runs over b's orbit under the automorphisms fixing the
    vertices before b in matching order.  ``plan`` is that search's plan.
    """

    graph: Graph
    s: int
    t: int
    delta: int
    aut: int

    # oriented edge anchors (a, b, size, plan) that _maps_through pins: of the
    # list (a, b), (b, a) for each sorted edge, the first of each Aut(F)-orbit,
    # with the orbit's size and _plan(graph, (a, b)), built here once.  An
    # automorphism carries the orbit's edges onto each other, so each has as
    # many maps pinned onto a host pair.
    anchors: tuple[tuple[int, int, int, tuple], ...]

    breaks: tuple[tuple[int, int], ...]
    plan: tuple


def _matching_order(g: Graph) -> tuple[int, ...]:
    """Connectivity-first vertex order: start each component at its highest
    degree vertex, then grow by the vertex with the most placed neighbours
    (ties broken by index).  Each placement raises its neighbours' counts and
    pushes them on a heap, whose stale rows rank behind their fresher ones."""
    order: list[int] = []
    placed = [False] * g.n
    hits = [0] * g.n  # placed neighbours
    frontier: list[tuple[int, int]] = []  # (-hits, x)
    starts = iter(sorted(range(g.n), key=lambda x: (-len(g.adj[x]), x)))
    while len(order) < g.n:
        while frontier and placed[frontier[0][1]]:
            heappop(frontier)
        v = heappop(frontier)[1] if frontier else next(x for x in starts if not placed[x])
        placed[v] = True
        order.append(v)
        for u in g.adj[v]:
            if not placed[u]:
                hits[u] += 1
                heappush(frontier, (-hits[u], u))
    return tuple(order)


def normalize_pattern(f: Graph) -> Pattern:
    """Strip isolated vertices, relabel to 0..s-1, and cache all invariants."""
    if f.m_edges == 0:
        raise ParameterError("pattern must have at least one edge")
    used = sorted(v for v in range(f.n) if f.adj[v])
    if len(used) != f.n:
        f, _ = f.induced(used)
    oriented = [ab for a, b in sorted(f.edge_set) for ab in ((a, b), (b, a))]
    index = {ab: i for i, ab in enumerate(oriented)}
    # Aut(F) is a group, so an anchor's orbit is its set of images; label
    # each anchor with the first index in its orbit
    orbit = list(range(len(oriented)))
    # sigma fixes the base points before the first one it moves, b: sigma(b)
    # is in b's orbit under their stabilizer, and every such image arises
    base = _matching_order(f)
    base_orbit = {b: {b} for b in base}
    aut = 0
    for sigma in _search(_plan(f, ()), f):
        aut += 1
        for i, (a, b) in enumerate(oriented):
            orbit[i] = min(orbit[i], index[sigma[a], sigma[b]])
        b = next((b for b in base if sigma[b] != b), base[0])
        base_orbit[b].add(sigma[b])
    orbits = prod(map(len, base_orbit.values()))
    if orbits != aut:
        raise InternalError(f"base orbits multiply to {orbits}, not |Aut(F)| = {aut}")
    breaks = tuple((b, w) for b in base for w in sorted(base_orbit[b] - {b}))
    return Pattern(
        graph=f,
        s=f.n,
        t=f.m_edges,
        delta=f.min_degree(),
        aut=aut,
        anchors=tuple((a, b, orbit.count(i), _plan(f, (a, b)))
                      for i, (a, b) in enumerate(oriented) if orbit[i] == i),
        breaks=breaks,
        plan=_plan(f, (), breaks),
    )


# -- core backtracking matcher -----------------------------------------------


def _plan(pat: Graph, pinned: tuple[int, ...], breaks=()) -> tuple:
    """The vertices ``_search`` places, in matching order, as rows (pv, nbrs,
    lows): pv's neighbours placed before it and the b of each break (b, pv)
    (matching order places b first).  No row checks an edge between two
    ``pinned`` vertices; a caller pinning both ends checks it."""
    placed = set(pinned)
    plan = []
    for pv in _matching_order(pat):
        if pv not in placed:
            plan.append((pv, tuple(pu for pu in pat.adj[pv] if pu in placed),
                         tuple(b for b, w in breaks if w == pv)))
            placed.add(pv)
    return tuple(plan)


def _search(plan: tuple, host, mapping: list[int] | None = None):
    """The library's one search loop: extend ``mapping`` (the pinned host
    vertices, -1 elsewhere; None: no pins) over ``plan``'s rows, yielding the
    one live ``mapping`` (copy it to keep it); ``host`` needs only ``.n`` and
    ``.adj``.  Depth-first with an explicit stack of candidate iterators,
    candidates ascending.  A vertex's pool is the sorted host neighbourhood of
    its one placed neighbour, or one ``&`` of two, or one intersection of
    three or more; with none placed, every host vertex.  A candidate is free
    when ``mapping`` does not hold it; a row clears its slot before it scans."""
    if mapping is None:
        mapping = [-1] * len(plan)
    adj = host.adj
    if not plan:
        yield mapping
        return

    def pool(row):  # one set operation, then past the row's breaks
        _, nbrs, lows = row
        if not nbrs:
            cands = range(host.n)
        elif len(nbrs) == 1:  # .intersection() of nothing would copy the set
            cands = sorted(adj[mapping[nbrs[0]]])
        elif len(nbrs) == 2:
            cands = sorted(adj[mapping[nbrs[0]]] & adj[mapping[nbrs[1]]])
        else:
            cands = sorted(adj[mapping[nbrs[0]]].intersection(
                *[adj[mapping[pu]] for pu in nbrs[1:]]))
        if lows and cands and cands[0] <= (lo := max(map(mapping.__getitem__, lows))):
            return cands[bisect_left(cands, lo + 1):]
        return cands

    last = len(plan) - 1
    stack = [iter(pool(plan[0]))]
    while stack:
        i = len(stack) - 1
        pv = plan[i][0]
        mapping[pv] = -1
        for hv in stack[i]:
            if hv not in mapping:
                break
        else:
            stack.pop()
            continue
        mapping[pv] = hv
        if i == last:
            yield mapping
        else:
            stack.append(iter(pool(plan[i + 1])))


def contains_copy(g, f: Pattern) -> bool:
    """True iff an injective edge-preserving map F -> G exists, searched under
    ``f.breaks``: each copy keeps one map, so a miss is pruned earlier."""
    return f.s <= g.n and any(True for _ in _search(f.plan, g))


def count_copies(g, f: Pattern) -> int:
    """Number of subgraphs of G isomorphic to F: the maps that satisfy
    ``f.breaks``, one per copy (equal to injective maps / |Aut(F)|)."""
    return sum(1 for _ in _search(f.plan, g))


@dataclass(frozen=True)
class CopyWitness:
    """Injective map V(F) -> V(G) as a tuple indexed by pattern vertex."""

    mapping: tuple[int, ...]

    def validates(self, g, f: Pattern, through: Edge | None = None) -> bool:
        """True iff the mapping sends V(F) injectively into V(G) and each
        edge of F onto an edge of G, and, given ``through``, some edge of F
        onto that pair in either orientation.  The image pairs are built
        once and serve both checks."""
        m = self.mapping
        if len(m) != f.s or len(set(m)) != f.s or min(m) < 0 or max(m) >= g.n:
            return False
        pairs = [(m[a], m[b]) for a, b in f.graph.edge_set]
        adj = g.adj
        for x, y in pairs:
            if y not in adj[x]:
                return False
        if through is None:
            return True
        u, v = through
        return (u, v) in pairs or (v, u) in pairs


def _maps_through(g, f: Pattern, u: int, v: int):
    """Yield (``_search``'s live map, orbit size) for each map of F into g
    pinning an anchor (a, b) onto (u, v), anchors in order, each search
    started from the anchor's stored plan.  A map through uv sends one
    oriented pattern edge onto (u, v), so composing with Aut(F) makes each
    anchored map |orbit| maps with its image, and no others."""
    for a, b, size, plan in f.anchors:
        start = [-1] * f.s
        start[a], start[b] = u, v
        for mapping in _search(plan, g, start):
            yield mapping, size


def copy_through_edge(g, f: Pattern, e: Edge) -> Optional[CopyWitness]:
    """First (deterministic) copy of F in G whose image contains the edge e,
    or None when no copy through e exists.

    Anchors one oriented pattern edge per Aut(F)-orbit onto e and extends
    by backtracking.  Anchoring every oriented edge finds the same witness:
    its first success is the first anchor of its orbit, since that anchor
    succeeds too and every anchor before the success failed.
    """
    u, v = e
    if u > v:
        u, v = v, u
    if v not in g.adj[u]:
        raise ParameterError(f"edge ({u},{v}) not present in host")
    for mapping, _ in _maps_through(g, f, u, v):
        return CopyWitness(tuple(mapping))
    return None
