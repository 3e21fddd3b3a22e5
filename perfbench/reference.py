"""Independent oracles that the benchmark checks outputs against.

Nothing here imports ``wsat``.  Graphs are edge sets over 0..n-1, adjacency is
a list of Python-int bitmasks, and every algorithm is written for clarity over
speed, so a check never trusts the code it checks.

Run as a script to rebuild ``expected/wsat_k3_n6.json``, the table of
wsat(G, K3) over every graph G on six vertices up to isomorphism:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import hashlib
import json
import struct
from itertools import combinations, permutations
from pathlib import Path
from random import Random

TABLE_PATH = Path(__file__).resolve().parent / "expected" / "wsat_k3_n6.json"

# Reference pattern graphs, labelled as in the library's named families.
PATTERN_EDGES = {
    "K3": (3, tuple(combinations(range(3), 2))),
    "K4": (4, tuple(combinations(range(4), 2))),
    "C4": (4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    "K23": (5, tuple((a, b) for a in range(2) for b in range(2, 5))),
}


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def isomorphic(s: int, edges_a, edges_b) -> bool:
    """Brute force over all relabelings; for pattern-sized graphs only."""
    a = {_key(*e) for e in edges_a}
    b = {_key(*e) for e in edges_b}
    return len(a) == len(b) and any(
        {_key(p[u], p[v]) for u, v in a} == b for p in permutations(range(s))
    )


class Pattern:
    """A pattern F on 0..s-1 with one anchored search plan per Aut(F)-orbit of
    oriented edges: any copy of F through an edge uv maps some orbit
    representative (x, y) onto (u, v)."""

    def __init__(self, s: int, edges):
        self.s = s
        self.edges = tuple(sorted(_key(*e) for e in edges))
        eset = set(self.edges)
        nbrs = [set() for _ in range(s)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        auts = [
            p for p in permutations(range(s))
            if all(_key(p[u], p[v]) in eset for u, v in self.edges)
        ]
        seen: set[tuple[int, int]] = set()
        self.plans = []
        for u, v in self.edges:
            for x, y in ((u, v), (v, u)):
                if (x, y) not in seen:
                    seen.update((p[x], p[y]) for p in auts)
                    self.plans.append((x, y, self._order(nbrs, x, y)))

    def _order(self, nbrs, x, y):
        """Remaining vertices, most-constrained first, each with the earlier
        vertices it must be adjacent to."""
        placed = [x, y]
        rest = [w for w in range(self.s) if w not in (x, y)]
        order = []
        while rest:
            w = max(rest, key=lambda c: (len(nbrs[c] & set(placed)), -c))
            rest.remove(w)
            order.append((w, tuple(sorted(nbrs[w] & set(placed)))))
            placed.append(w)
        return tuple(order)


def pattern(name: str) -> Pattern:
    s, edges = PATTERN_EDGES[name]
    return Pattern(s, edges)


def find_copy(adj: list[int], pat: Pattern, u: int, v: int):
    """An injective edge-preserving map V(F) -> V(G), as a tuple, whose image
    contains the edge uv (which must be present in adj); None if none exists."""
    full = (1 << len(adj)) - 1
    for x, y, order in pat.plans:
        m = [-1] * pat.s
        m[x], m[y] = u, v
        if _extend(adj, full, order, 0, m, (1 << u) | (1 << v)):
            return tuple(m)
    return None


def _extend(adj, full, order, i, m, used) -> bool:
    if i == len(order):
        return True
    w, back = order[i]
    cand = full & ~used
    for b in back:
        cand &= adj[m[b]]
    while cand:
        low = cand & -cand
        cand ^= low
        m[w] = low.bit_length() - 1
        if _extend(adj, full, order, i + 1, m, used | low):
            return True
    m[w] = -1
    return False


def has_copy(n: int, edges, pat: Pattern) -> bool:
    adj = adjacency(n, edges)
    return any(find_copy(adj, pat, u, v) is not None for u, v in edges)


def addable_edge(n: int, host_edges, pat: Pattern, edges):
    """A host edge missing from ``edges`` whose addition completes a copy of F
    through it, or None when ``edges`` is closed inside the host."""
    adj = adjacency(n, edges)
    for u, v in sorted(set(host_edges) - set(edges)):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        found = find_copy(adj, pat, u, v) is not None
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        if found:
            return (u, v)
    return None


def closure(n: int, host_edges, pat: Pattern, seed_edges) -> set:
    """F-closure of the seed inside the host by repeated full rescans."""
    present = set(seed_edges)
    while (e := addable_edge(n, host_edges, pat, present)) is not None:
        present.add(e)
    return present


def replay(n: int, host_edges, pat: Pattern, seed_edges, steps) -> set:
    """Replay (edge, witness mapping) steps from the seed; return the final
    edge set, or raise ValueError at the first invalid step."""
    host = {_key(*e) for e in host_edges}
    present = {_key(*e) for e in seed_edges}
    adj = adjacency(n, present)
    for i, (edge, mapping) in enumerate(steps):
        u, v = _key(*edge)
        if (u, v) not in host or (u, v) in present:
            raise ValueError(f"step {i}: edge {(u, v)} is not a missing host edge")
        present.add((u, v))
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        m = tuple(mapping)
        if len(m) != pat.s or len(set(m)) != pat.s or not all(0 <= h < n for h in m):
            raise ValueError(f"step {i}: witness {m} is not an injective map")
        if not all(adj[m[a]] >> m[b] & 1 for a, b in pat.edges):
            raise ValueError(f"step {i}: witness {m} misses a pattern edge")
        if not any(_key(m[a], m[b]) == (u, v) for a, b in pat.edges):
            raise ValueError(f"step {i}: witness {m} does not use edge {(u, v)}")
    return present


def speed_probe():
    """A fixed job of a few milliseconds that does not use ``wsat``, for
    sampling the host's speed: the K3- and C4-closures of a fixed sparse seed
    inside a fixed G(16, 1/2).  Returns the job as a function."""
    n = 16
    rng = Random(16)
    host = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
    seed = host[::6]
    pats = (pattern("K3"), pattern("C4"))

    def probe():
        for pat in pats:
            closure(n, host, pat, seed)

    return probe


# -- copy counts by closed formulas ------------------------------------------


def count_triangles(n: int, edges) -> int:
    adj = adjacency(n, edges)
    return sum((adj[u] & adj[v]).bit_count() for u, v in edges) // 3


def count_k4(n: int, edges) -> int:
    """Each K4 has six edges uv, and each sees one edge inside N(u) & N(v)."""
    adj = adjacency(n, edges)
    total = 0
    for u, v in edges:
        common = adj[u] & adj[v]
        c = common
        while c:
            low = c & -c
            c ^= low
            total += (adj[low.bit_length() - 1] & common).bit_count()
    return total // 12  # every inner edge was seen from both ends


def count_c4(n: int, edges) -> int:
    """Each 4-cycle is counted once from each of its two diagonals."""
    adj = adjacency(n, edges)
    total = 0
    for x, y in combinations(range(n), 2):
        c = (adj[x] & adj[y]).bit_count()
        total += c * (c - 1) // 2
    return total // 2


# -- the library's documented G(n,p) stream -----------------------------------


def derive_seed(master: int, *indices: int) -> int:
    """First 8 bytes of SHA-256("wsat-seed" || master || indices), big-endian."""
    h = hashlib.sha256(b"wsat-seed")
    h.update(struct.pack(">Q", master & 0xFFFFFFFFFFFFFFFF))
    for i in indices:
        h.update(struct.pack(">q", i))
    return int.from_bytes(h.digest()[:8], "big")


def gnp_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """G(n,p) as sampled for stream 0 of ``seed``: pairs in sorted order, each
    kept when the next draw is below p."""
    if p == 0.0:
        return []
    pairs = list(combinations(range(n), 2))
    if p == 1.0:
        return pairs
    rng = Random(derive_seed(seed, 0))
    return [e for e in pairs if rng.random() < p]


# -- graphs on six vertices up to isomorphism ---------------------------------

_PAIRS6 = list(combinations(range(6), 2))
_INDEX6 = {e: i for i, e in enumerate(_PAIRS6)}
_PERMS6 = [
    tuple(_INDEX6[_key(p[u], p[v])] for u, v in _PAIRS6) for p in permutations(range(6))
]


def canon6(edges) -> int:
    """Canonical form of a graph on 0..5: the least edge bitmask over all 720
    relabelings (bit i stands for the i-th pair in sorted order)."""
    bits = [_INDEX6[_key(*e)] for e in edges]
    return min(sum(1 << perm[i] for i in bits) for perm in _PERMS6)


def edges6(mask: int) -> list[tuple[int, int]]:
    return [e for i, e in enumerate(_PAIRS6) if mask >> i & 1]


def wsat_brute(n: int, host_edges, pat: Pattern) -> int:
    """Least k such that some F-free k-edge spanning subgraph has the whole
    host as its closure; plain enumeration without any pruning."""
    host = sorted(_key(*e) for e in host_edges)
    for k in range(len(host) + 1):
        for sub in combinations(host, k):
            if not has_copy(n, sub, pat) and len(closure(n, host, pat, sub)) == len(host):
                return k
    raise AssertionError("unreachable: the host itself is a candidate")


def _all_classes6() -> list[int]:
    """Canonical masks of every graph on six vertices, grown edge by edge."""
    classes = {0}
    frontier = [0]
    while frontier:
        grown = []
        for mask in frontier:
            for i in range(len(_PAIRS6)):
                if not mask >> i & 1:
                    c = canon6(edges6(mask | 1 << i))
                    if c not in classes:
                        classes.add(c)
                        grown.append(c)
        frontier = grown
    return sorted(classes)


def load_table() -> dict[int, int]:
    with open(TABLE_PATH, encoding="utf-8") as fh:
        data = json.load(fh)
    return {int(mask): value for mask, value in data["wsat"].items()}


def main() -> None:
    k3 = pattern("K3")
    table = {mask: wsat_brute(6, edges6(mask), k3) for mask in _all_classes6()}
    TABLE_PATH.parent.mkdir(exist_ok=True)
    with open(TABLE_PATH, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "about": "wsat(G, K3) for every graph G on 6 vertices, keyed by "
                         "reference.canon6; computed by reference.wsat_brute",
                "wsat": {str(mask): value for mask, value in table.items()},
            },
            fh,
            indent=0,
            sort_keys=True,
        )
        fh.write("\n")
    print(f"{len(table)} classes written to {TABLE_PATH}")


if __name__ == "__main__":
    main()
