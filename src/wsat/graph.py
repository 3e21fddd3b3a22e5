"""Graph representation, named families, G(n,p) sampling, densities, edge-list codec.

Vertices are always the dense integers 0..n-1.  Named constructors use a fixed,
documented labeling so that every downstream certificate is reproducible:

* ``complete(n)``            -- all pairs on 0..n-1.
* ``complete_bipartite(a,b)``-- parts {0..a-1} and {a..a+b-1}.
* ``star(t)``                -- K_{1,t}: center 0, leaves 1..t.
* ``path(n)``                -- edges (i, i+1).
* ``cycle(n)``               -- path(n) plus (n-1, 0).
* ``empty(n)``               -- no edges.
* ``matching(k)``            -- 2k vertices, edges (2i, 2i+1).

Randomness is platform-independent: every sampler is driven by a Mersenne
Twister (``random.Random``) whose seed is the first 8 bytes of
SHA-256("wsat-seed" || master || stream indices), see :class:`Seed`.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from random import Random
from typing import Iterable

from .errors import GraphParseError, ParameterError, UndefinedDensityError

Edge = tuple[int, int]


class Graph:
    """Simple undirected graph on vertices 0..n-1.  Immutable after construction."""

    __slots__ = ("n", "adj", "edge_set")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise ParameterError("vertex count must be nonnegative")
        adj: list[set[int]] = [set() for _ in range(n)]
        es = set()
        for u, v in edges:
            if u == v:
                raise ParameterError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u},{v}) out of range for n={n}")
            e = (u, v) if u < v else (v, u)
            if e in es:
                raise ParameterError(f"duplicate edge {e}")
            es.add(e)
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj = tuple(frozenset(s) for s in adj)
        self.edge_set = frozenset(es)

    @property
    def m_edges(self) -> int:
        return len(self.edge_set)

    def edges(self) -> list[Edge]:
        """Edges in sorted order."""
        return sorted(self.edge_set)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def min_degree(self) -> int:
        return min((len(s) for s in self.adj), default=0)

    def is_spanning_subgraph_of(self, other: "Graph") -> bool:
        return self.n == other.n and self.edge_set <= other.edge_set

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph relabeled to 0..k-1; returns (graph, old labels in order)."""
        vs = sorted(set(vertices))
        index = {v: i for i, v in enumerate(vs)}
        es = [(index[u], index[v]) for u, v in self.edge_set if u in index and v in index]
        return Graph(len(vs), es), vs

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edge_set == other.edge_set
        )

    def __hash__(self):
        return hash((self.n, self.edge_set))  # the frozenset caches its own hash

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m_edges})"


@dataclass(frozen=True)
class Seed:
    """Reproducible RNG seed: a 64-bit master plus a stream (trial) index.

    Equal (master, stream) pairs reproduce identical samples bit-for-bit on
    every platform: the actual generator seed is derived by SHA-256.
    """

    master: int
    stream: int = 0

    def rng(self) -> Random:
        return Random(derive_seed(self.master, self.stream))


def seed_rng(seed: Seed | int) -> Random:
    """The generator of ``seed``; a bare int is the master of ``Seed(seed)``."""
    return (Seed(seed) if isinstance(seed, int) else seed).rng()


def derive_seed(master: int, *indices: int) -> int:
    """First 8 bytes of SHA-256("wsat-seed" || master || indices), big-endian."""
    h = hashlib.sha256(b"wsat-seed")
    h.update(struct.pack(">Q", master & 0xFFFFFFFFFFFFFFFF))
    for i in indices:
        h.update(struct.pack(">q", i))
    return int.from_bytes(h.digest()[:8], "big")


def common_neighbors(g: Graph, vertices: Iterable[int]) -> list[int]:
    """Ascending list of the vertices outside ``vertices`` adjacent to all of them."""
    vs = set(vertices)
    if not vs:
        return list(range(g.n))
    first, *rest = [g.adj[v] for v in vs]
    return sorted(first.intersection(*rest))  # no vertex neighbours itself


# -- named families ----------------------------------------------------------


def complete(n: int) -> Graph:
    if n < 1:
        raise ParameterError("complete(n) needs n >= 1")
    return Graph(n, combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ParameterError("complete_bipartite(a,b) needs a,b >= 1")
    return Graph(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def star(t: int) -> Graph:
    """K_{1,t} on t+1 vertices, center 0."""
    if t < 1:
        raise ParameterError("star(t) needs t >= 1")
    return Graph(t + 1, ((0, i) for i in range(1, t + 1)))


def path(n: int) -> Graph:
    if n < 1:
        raise ParameterError("path(n) needs n >= 1")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ParameterError("cycle(n) needs n >= 3")
    return Graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def empty(n: int) -> Graph:
    if n < 1:
        raise ParameterError("empty(n) needs n >= 1")
    return Graph(n)


def matching(k: int) -> Graph:
    if k < 1:
        raise ParameterError("matching(k) needs k >= 1")
    return Graph(2 * k, ((2 * i, 2 * i + 1) for i in range(k)))


_FAMILIES = {
    "complete": (complete, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "cbip": (complete_bipartite, 2),
    "star": (star, 1),
    "path": (path, 1),
    "cycle": (cycle, 1),
    "empty": (empty, 1),
    "matching": (matching, 1),
}


def build_named_graph(tag: str, *params: int) -> Graph:
    """Construct a named family graph, e.g. build_named_graph("complete", 4)."""
    if tag not in _FAMILIES:
        raise ParameterError(f"unknown graph family {tag!r}")
    fn, arity = _FAMILIES[tag]
    if len(params) != arity:
        raise ParameterError(f"family {tag!r} takes {arity} parameter(s)")
    return fn(*params)


# -- G(n,p) sampling ---------------------------------------------------------


def sample_gnp(n: int, p: float, seed: Seed | int) -> Graph:
    """Erdős–Rényi sample: each of the C(n,2) pairs kept independently with
    probability p.  Deterministic per seed; pairs are drawn in sorted order."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p must lie in [0,1]")
    if n < 1:
        raise ParameterError("sample_gnp needs n >= 1")
    rng = seed_rng(seed)
    return Graph(n, (e for e in combinations(range(n), 2) if rng.random() < p))


# -- edge-list codec ---------------------------------------------------------


def encode_edge_list(g: Graph) -> str:
    """Text form: first line "n m", then one sorted "u v" line per edge."""
    lines = [f"{g.n} {g.m_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def decode_edge_list(text: str) -> Graph:
    """Parse the edge-list format.  Comments start with '#'; blank lines skipped."""
    header = None
    edges: list[Edge] = []
    n = m = 0
    seen: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected two integers, got {line!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"non-integer token in {line!r}", lineno) from None
        if header is None:
            if a < 0 or b < 0:
                raise GraphParseError("negative count in header", lineno)
            n, m = a, b
            header = lineno
            continue
        if a == b:
            raise GraphParseError(f"loop at vertex {a}", lineno)
        if not (0 <= a < n and 0 <= b < n):
            raise GraphParseError(f"vertex index out of range in ({a},{b})", lineno)
        e = (a, b) if a < b else (b, a)
        if e in seen:
            raise GraphParseError(f"duplicate edge {e}", lineno)
        seen.add(e)
        edges.append(e)
    if header is None:
        raise GraphParseError("missing header line")
    if len(edges) != m:
        raise GraphParseError(f"header promised {m} edges, found {len(edges)}")
    return Graph(n, edges)


# -- density functionals -----------------------------------------------------


@cache  # density_mu reads it too, and the scan is exponential
def density_m(g: Graph) -> Fraction:
    """max |E(H)|/|V(H)| over subgraphs H.

    Only induced subgraphs need be scanned: dropping edges at a fixed vertex
    set can never raise the ratio.  Exponential in |V|; intended for small
    patterns (|V| <= ~20).
    """
    if g.m_edges == 0:
        raise UndefinedDensityError("m(G) is undefined for edgeless graphs")
    best = Fraction(0)
    verts = range(g.n)
    for k in range(2, g.n + 1):
        for sub in combinations(verts, k):
            ss = set(sub)
            inner = sum(1 for u in sub for w in g.adj[u] if w in ss) // 2
            if inner:
                best = max(best, Fraction(inner, k))
    return best


def density_mu(g: Graph) -> Fraction:
    """max{m(G), (|E|-1)/(|V|-2)}, except mu = m when |V| = 2."""
    m = density_m(g)
    if g.n == 2:
        return m
    return max(m, Fraction(g.m_edges - 1, g.n - 2))
