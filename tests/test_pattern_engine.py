import sys
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsat import (
    CopyWitness,
    Graph,
    ParameterError,
    Seed,
    complete,
    complete_bipartite,
    contains_copy,
    copy_through_edge,
    count_copies,
    cycle,
    greedy_upper_bound,
    matching,
    normalize_pattern,
    path,
    sample_gnp,
    star,
)
from wsat.patterns import _maps_through, _matching_order, _plan, _search
from conftest import random_host, small_hosts
from oracles import count_injective_maps, every_map, validates_naive


def test_normalize_strips_isolated_vertices():
    g = Graph(5, [(0, 1), (0, 2), (1, 2)])  # K_3 plus two isolated vertices
    f = normalize_pattern(g)
    assert (f.s, f.t, f.delta) == (3, 3, 2)


def test_normalize_star():
    f = normalize_pattern(star(3))
    assert (f.s, f.t, f.delta, f.aut) == (4, 3, 1, 6)


def test_normalize_edge():
    f = normalize_pattern(complete(2))
    assert (f.s, f.t, f.delta) == (2, 1, 1)


def test_normalize_rejects_edgeless():
    with pytest.raises(ParameterError):
        normalize_pattern(Graph(3))


def test_normalize_computes_no_density(monkeypatch):
    # m(F) and mu(F) scan every vertex subset of F; only the experiments that
    # print them compute them, so a long cycle normalizes at once
    def unread(g):
        raise AssertionError("normalize_pattern computed a density")

    for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "wsat"]:
        for name in ("density_m", "density_mu"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, unread)
    f = normalize_pattern(cycle(20))
    assert (f.s, f.t, f.delta, f.aut) == (20, 20, 2, 40)


def test_contains_copy_examples(k3, p3):
    assert contains_copy(complete(4), k3)
    assert not contains_copy(star(5), k3)
    assert contains_copy(cycle(6), p3)


def test_copy_through_edge_examples(k3, k13):
    g = Graph(4, star(3).edge_set | {(1, 2)})
    w = copy_through_edge(g, k3, (1, 2))
    assert w is not None and w.validates(g, k3, through=(1, 2))
    assert set(w.mapping) == {0, 1, 2}

    for e in path(3).edges():
        assert copy_through_edge(path(3), k3, e) is None

    w = copy_through_edge(complete(4), k13, (0, 1))
    assert w is not None and w.validates(complete(4), k13, through=(0, 1))
    assert w.mapping[0] == 0  # center maps to 0 under the deterministic order


def test_copy_through_edge_rejects_absent_edge(k3):
    with pytest.raises(ParameterError):
        copy_through_edge(path(3), k3, (0, 2))


def test_copy_through_edge_deterministic(k3):
    g = complete(5)
    a = copy_through_edge(g, k3, (1, 3))
    b = copy_through_edge(g, k3, (1, 3))
    assert a == b == copy_through_edge(g, k3, (3, 1))


def test_count_copies_examples(k3, p3):
    assert count_copies(complete(4), k3) == 4
    assert count_injective_maps(complete(4), p3) == 24
    assert count_copies(complete(4), p3) == 12
    assert count_copies(star(5), k3) == 0


def test_automorphism_counts():
    assert normalize_pattern(complete(3)).aut == 6
    assert normalize_pattern(path(3)).aut == 2
    assert normalize_pattern(complete_bipartite(2, 3)).aut == 12
    assert normalize_pattern(cycle(5)).aut == 10
    assert normalize_pattern(complete(2)).aut == 2


def _count_copies_oracle(g: Graph, f) -> int:
    # independent route: brute-force over vertex permutations of each s-subset
    from itertools import combinations

    pat_edges = f.graph.edges()
    found = set()
    for sub in combinations(range(g.n), f.s):
        for perm in permutations(sub):
            if all(perm[b] in g.adj[perm[a]] for a, b in pat_edges):
                image = frozenset(
                    (min(perm[a], perm[b]), max(perm[a], perm[b]))
                    for a, b in pat_edges
                )
                found.add(image)
    return len(found)


# disconnected patterns: the second component is placed from the whole host
M2 = normalize_pattern(matching(2))
K3_K2 = normalize_pattern(Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)]))


def test_count_copies_against_permutation_oracle(k3, p3, k13):
    for i in range(15):
        g = random_host(6, 0.5, 400 + i)
        for f in (k3, p3, k13, M2, K3_K2):
            assert count_copies(g, f) == _count_copies_oracle(g, f)


def test_double_count_invariant(k3, p3, k13, k4):
    # injective map count = copies * |Aut| on all graphs with <= 6 vertices
    for i in range(20):
        g = random_host(6, 0.4, 500 + i)
        for f in (k3, p3, k13, k4):
            assert count_injective_maps(g, f) == count_copies(g, f) * f.aut


def test_contains_iff_count_positive(k3, p3):
    for i in range(20):
        g = random_host(7, 0.3, 600 + i)
        for f in (k3, p3):
            assert contains_copy(g, f) == (count_copies(g, f) >= 1)


def test_witness_absent_means_no_copy_uses_edge(k3, p3):
    # exhaustive recount oracle on <= 7-vertex hosts
    from itertools import combinations, permutations as perms

    for i in range(10):
        g = random_host(7, 0.35, 700 + i)
        for f in (k3, p3, M2, K3_K2):
            for e in g.edges():
                w = copy_through_edge(g, f, e)
                uses = any(
                    all(p[b] in g.adj[p[a]] for a, b in f.graph.edges())
                    and any({p[a], p[b]} == set(e) for a, b in f.graph.edges())
                    for sub in combinations(range(g.n), f.s)
                    for p in perms(sub)
                )
                if w is None:
                    assert not uses
                else:
                    assert w.validates(g, f, through=e) and uses


def test_count_monotone_under_edge_addition(k3, p3):
    for i in range(20):
        g = random_host(7, 0.4, 800 + i)
        rng = Seed(800 + i).rng()
        missing = sorted(set(complete(7).edge_set) - g.edge_set)
        if not missing:
            continue
        g2 = Graph(g.n, g.edge_set | {rng.choice(missing)})
        for f in (k3, p3):
            assert count_copies(g, f) <= count_copies(g2, f)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_double_count_property(seed):
    g = sample_gnp(6, 0.5, Seed(seed))
    f = normalize_pattern(path(3))
    assert count_injective_maps(g, f) == count_copies(g, f) * f.aut


ORBIT_PATTERNS = {
    name: normalize_pattern(g) for name, g in [
        ("K3", complete(3)), ("K4", complete(4)), ("C4", cycle(4)),
        ("K23", complete_bipartite(2, 3)), ("P4", path(4)), ("K13", star(3))]
} | {"2K2": M2, "K3+K2": K3_K2}


def _copy_through_edge_all_anchors(g, f, e):
    # the unpruned loop: every pattern edge anchored on e in both orientations
    u, v = sorted(e)
    for a, b in sorted(f.graph.edge_set):
        for hu, hv in ((u, v), (v, u)):
            for mapping in every_map(f.graph, g, {a: hu, b: hv}):
                return CopyWitness(mapping)
    return None


def test_anchor_orbits():
    orbits = {name: len(f.anchors) for name, f in ORBIT_PATTERNS.items()}
    assert orbits == {"K3": 1, "K4": 1, "C4": 1, "2K2": 1,
                      "K23": 2, "K13": 2, "K3+K2": 2, "P4": 3}
    auts = {name: f.aut for name, f in ORBIT_PATTERNS.items()}
    assert auts == {"K3": 6, "K4": 24, "C4": 8, "K23": 12, "P4": 2, "K13": 6,
                    "2K2": 8, "K3+K2": 12}
    for f in ORBIT_PATTERNS.values():
        # independent of the matcher: the vertex permutations fixing E(F)
        edges = f.graph.edge_set
        autos = [sigma for sigma in permutations(range(f.s))
                 if {tuple(sorted((sigma[a], sigma[b]))) for a, b in edges} == edges]
        assert f.aut == len(autos)
        # the first oriented edge of each orbit, in the order (a, b), (b, a)
        # for each sorted edge
        oriented = [ab for a, b in sorted(edges) for ab in ((a, b), (b, a))]
        firsts = []
        for a, b in oriented:
            if not any((sigma[a], sigma[b]) in firsts for sigma in autos):
                firsts.append((a, b))
        assert [(a, b) for a, b, _, _ in f.anchors] == firsts
        # each anchor carries its orbit's size, and the orbits partition the
        # 2t oriented edges; its stored plan is the one _plan builds
        for a, b, size, plan in f.anchors:
            assert size == len({(sigma[a], sigma[b]) for sigma in autos})
            assert plan == _plan(f.graph, (a, b))
        assert sum(size for _, _, size, _ in f.anchors) == 2 * f.t
        assert f.plan == _plan(f.graph, (), f.breaks)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 10), st.floats(0.1, 1.0), st.integers(0, 2**32))
# K_{1,3} centred at 3: through (0, 3) the first K_{1,3} anchor, which puts the
# centre on 0, is skipped by degree (d(0) = 1 < 3), and the second finds the map
@example(4, 0.5, 29)
def test_orbit_pruning_matches_all_anchor_loop(n, p, seed):
    g = sample_gnp(n, p, Seed(seed))
    for f in ORBIT_PATTERNS.values():
        for e in g.edges():
            assert copy_through_edge(g, f, e) == _copy_through_edge_all_anchors(g, f, e)


@settings(max_examples=100, deadline=None)
@given(small_hosts(7), st.sampled_from(sorted(ORBIT_PATTERNS)), st.integers(0, 2**32))
def test_greedy_witnesses_are_copy_through_edge(g, name, seed):
    # replay the deletions in the order greedy made them: each step's witness
    # is the first copy through the deleted edge in the graph at that step
    f = ORBIT_PATTERNS[name]
    current = set(g.edge_set)
    for e, w in reversed(greedy_upper_bound(g, f, seed).certificate[1].steps):
        assert w == copy_through_edge(Graph(g.n, current), f, e)
        current.remove(e)


@settings(max_examples=100, deadline=None)
@given(small_hosts(7), st.sampled_from(sorted(ORBIT_PATTERNS)))
def test_maps_through_weights_count_every_map(g, name):
    # the orbit sizes of the anchored maps through e count the unpinned maps
    # whose image contains e, and the first anchored map is the witness
    f = ORBIT_PATTERNS[name]
    images = [{tuple(sorted((m[a], m[b]))) for a, b in f.graph.edge_set}
              for m in every_map(f.graph, g)]
    for u, v in g.edges():
        anchored = [(tuple(m), size) for m, size in _maps_through(g, f, u, v)]
        assert sum(size for _, size in anchored) == sum((u, v) in im for im in images)
        first = CopyWitness(anchored[0][0]) if anchored else None
        assert first == copy_through_edge(g, f, (u, v))


def _check_matcher_contract(g, f, brute):
    """The matcher against ``brute``, every map of F into g as a tuple:
    unpinned, pinned on every anchor in both orientations of every host
    edge, and under ``f.breaks``, which ``contains_copy`` reads too."""
    assert count_injective_maps(g, f) == len(brute)
    assert contains_copy(g, f) == bool(brute)
    # the matcher yields one live map; snapshot each one as it is yielded
    maps = every_map(f.graph, g)
    assert all(CopyWitness(m).validates(g, f) for m in maps)
    # candidates are tried in ascending order at each step, so the maps come
    # in lexicographic order of the images of the matching order, unpinned,
    # pinned and under the breaks
    order = _matching_order(f.graph)
    brute = sorted(brute, key=lambda p: [p[v] for v in order])
    assert maps == brute
    for a, b, _, _ in f.anchors:
        by_pin = {}
        for p in brute:
            by_pin.setdefault((p[a], p[b]), []).append(p)
        for u, v in g.edges():
            for hu, hv in ((u, v), (v, u)):
                assert every_map(f.graph, g, {a: hu, b: hv}) == by_pin.get((hu, hv), [])
    canonical = [tuple(m) for m in _search(f.plan, g)]
    assert canonical == [p for p in brute if all(p[b] < p[w] for b, w in f.breaks)]
    assert count_copies(g, f) * f.aut == len(brute)


@settings(max_examples=100, deadline=None)
@given(small_hosts(7), st.sampled_from(sorted(ORBIT_PATTERNS)))
def test_matcher_contract_against_permutations(g, name):
    f = ORBIT_PATTERNS[name]
    brute = [p for p in permutations(range(g.n), f.s)
             if all(p[b] in g.adj[p[a]] for a, b in f.graph.edge_set)]
    _check_matcher_contract(g, f, brute)


K5 = normalize_pattern(complete(5))


@st.composite
def near_clique_hosts(draw):
    """Hosts on up to 12 vertices: a 5- to 7-vertex core missing at most 3
    of its pairs, plus up to 6 other edges.  Labels run past 8, so a small
    set of them need not iterate in ascending order."""
    n = draw(st.integers(5, 12))
    core = draw(st.lists(st.integers(0, n - 1), min_size=5, max_size=7, unique=True))
    pairs = sorted((min(e), max(e)) for e in combinations(core, 2))
    drop = draw(st.lists(st.sampled_from(pairs), max_size=3, unique=True))
    extra = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), max_size=6))
    return Graph(n, (set(pairs) - set(drop)) | set(extra))


@settings(max_examples=40, deadline=None)
@given(near_clique_hosts())
@example(Graph(12, combinations((1, 3, 8, 9, 11), 2)))
@example(Graph(12, set(combinations((2, 4, 5, 9, 10, 11), 2)) - {(4, 9)} | {(0, 1)}))
def test_matcher_contract_k5(g):
    # a K5 vertex placed fourth has four placed neighbours: the general pool;
    # the maps of K5 are the orderings of the 5-cliques
    brute = [p for c in combinations(range(g.n), 5)
             if all(v in g.adj[u] for u, v in combinations(c, 2))
             for p in permutations(c)]
    _check_matcher_contract(g, K5, brute)


@st.composite
def witness_cases(draw):
    """(host, pattern, mapping, through).  Hosts are complete graphs less at
    most 4 edges, so F has maps into most of them.  Half the mappings are
    real maps of F, half of those using the top host vertex and with it
    written -1, which a negative index would wrap onto; the rest have any
    length and entries in [-1, n].  ``through`` is None, a host edge, the
    image of a pattern edge (either orientation, when the mapping is long
    enough), or any pair."""
    n = draw(st.integers(2, 6))
    pairs = list(combinations(range(n), 2))
    g = Graph(n, set(pairs) - set(draw(st.lists(st.sampled_from(pairs), max_size=4))))
    f = ORBIT_PATTERNS[draw(st.sampled_from(sorted(ORBIT_PATTERNS)))]
    maps = every_map(f.graph, g)
    if maps and draw(st.booleans()):
        top = [m for m in maps if n - 1 in m]
        if top and draw(st.booleans()):
            m = tuple(-1 if v == n - 1 else v for v in draw(st.sampled_from(top)))
        else:
            m = draw(st.sampled_from(maps))
    else:
        m = tuple(draw(st.lists(st.integers(-1, g.n), max_size=f.s + 1)))
    images = [(m[a], m[b]) for a, b in f.graph.edge_set if max(a, b) < len(m)]
    kind = draw(st.sampled_from(["none", "host", "image", "any"]))
    pairs = {"host": g.edges(), "image": images}.get(kind)
    if kind == "any":
        return g, f, m, (draw(st.integers(-1, g.n)), draw(st.integers(-1, g.n)))
    if not pairs:
        return g, f, m, None
    u, v = draw(st.sampled_from(pairs))
    return g, f, m, draw(st.sampled_from([(u, v), (v, u)]))


K3 = ORBIT_PATTERNS["K3"]


@settings(max_examples=300, deadline=None)
@given(witness_cases())
# the second orientation of an image pair covers the pair too
@example((complete(3), K3, (0, 1, 2), (1, 0)))
# a -1 entry is off the host, though adj[-1] is the top vertex's set
@example((complete(3), K3, (-1, 0, 1), None))
def test_validates_against_naive_oracle(case):
    g, f, m, through = case
    assert CopyWitness(m).validates(g, f, through) == validates_naive(m, g, f, through)


# -- one map per copy: symmetry-breaking pairs ------------------------------

BREAK_PATTERNS = ORBIT_PATTERNS | {
    "C5": normalize_pattern(cycle(5)),
    # given with vertex 1 isolated: a triangle with a pendant edge, Aut = 2
    "paw+K1": normalize_pattern(Graph(5, [(0, 2), (2, 3), (0, 3), (3, 4)])),
}


@settings(max_examples=60, deadline=None)
@given(small_hosts(7))
def test_count_copies_one_map_per_copy(g):
    # three routes: maps under the breaks, all maps / |Aut|, and brute force
    for f in BREAK_PATTERNS.values():
        copies = count_copies(g, f)
        assert copies * f.aut == count_injective_maps(g, f)
        assert copies == _count_copies_oracle(g, f)


def test_break_orbits_multiply_to_aut():
    for name, f in BREAK_PATTERNS.items():
        # independent of the matcher: the vertex permutations fixing E(F),
        # and each base point's orbit under those fixing the earlier ones
        edges = f.graph.edge_set
        autos = [sigma for sigma in permutations(range(f.s))
                 if {tuple(sorted((sigma[a], sigma[b]))) for a, b in edges} == edges]
        base = _matching_order(f.graph)
        want, size = [], 1
        for i, b in enumerate(base):
            orbit = {sigma[b] for sigma in autos
                     if all(sigma[x] == x for x in base[:i])}
            want += [(b, w) for w in sorted(orbit - {b})]
            size *= len(orbit)
        assert list(f.breaks) == want, name
        assert size == f.aut, name


def test_count_copies_closed_forms():
    # wrong breaks show at once on complete hosts
    assert count_copies(complete(12), normalize_pattern(complete(4))) == 495
    assert count_copies(complete(10), normalize_pattern(cycle(4))) == 630
    assert count_copies(complete(8), normalize_pattern(complete_bipartite(2, 3))) == 560


def test_greedy_and_counts_pinned():
    # the SHA-256 of greedy's results (certificate edges and trace witnesses)
    # and of count_copies over a fixed host set, recorded when greedy's first
    # pass still enumerated every map of F
    import hashlib
    import json

    digest = hashlib.sha256()
    for n, p in [(8, 0.5), (10, 0.7), (12, 0.5)]:
        for s in range(2):
            g = sample_gnp(n, p, Seed(1000 * n + s))
            for name, f in BREAK_PATTERNS.items():
                r = greedy_upper_bound(g, f, s)
                digest.update(json.dumps(
                    [name, n, p, s, count_copies(g, f), r.as_dict(),
                     r.certificate[1].to_json()], sort_keys=True).encode())
    assert digest.hexdigest() == (
        "16a2269d56c4ce2ecb08cef76e07a4e33ecf14a1c0af4a8a9dee0accc0289586")
