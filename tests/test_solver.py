import dataclasses
from itertools import combinations, count
from math import comb, inf
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsat import (
    FormulaQuery,
    Graph,
    InternalError,
    PreconditionError,
    SearchBudget,
    Seed,
    closed_form_wsat,
    closure,
    complete,
    complete_bipartite,
    contains_copy,
    count_copies,
    cycle,
    greedy_upper_bound,
    is_weakly_saturated,
    lower_bound_general,
    matching,
    normalize_pattern,
    path,
    sample_gnp,
    star,
    verify_trace,
    wsat_exact,
)
from wsat import solver
from wsat.solver import (
    _counted_rank, _qualifying, _rank, _rank_bound, _rigidity_rank, _rigidity_rows)
from conftest import copy_hosts, random_host, small_hosts
from oracles import (
    even_cycle_rows, every_map, first_saturated_naive, greedy_naive, wsat_exact_naive)


def test_lower_bound_examples(k3, k13):
    assert lower_bound_general(complete(5), k3) == 3
    # delta(F) = 1 pattern on a complete host: bound collapses to t-1
    assert lower_bound_general(complete(8), k13) == k13.t - 1
    # G = F itself: min{t, t-1}
    assert lower_bound_general(complete(3), k3) == 2


def test_lower_bound_precondition(k4):
    with pytest.raises(PreconditionError):
        lower_bound_general(complete(3), k4)


def test_wsat_exact_examples(k3, k4, k13):
    assert wsat_exact(complete(4), k3).exact == 3
    assert wsat_exact(complete(5), k13).exact == 3
    assert wsat_exact(complete(5), k4).exact == 7


def test_wsat_exact_k5_k4_against_unpruned_oracle(k4):
    assert wsat_exact_naive(complete(5), k4) == 7  # also 2n-3 = 7


def test_wsat_certificate_verifies(k3, k4):
    for host, f in [(complete(5), k3), (complete(5), k4)]:
        res = wsat_exact(host, f)
        h, trace = res.certificate
        assert h.m_edges == res.exact
        assert is_weakly_saturated(host, f, h)
        assert verify_trace(host, f, h, trace)


def test_wsat_f_free_host_is_forced(k3):
    host = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])  # triangle-free
    res = wsat_exact(host, k3)
    assert res.exact == host.m_edges
    assert res.certificate[0] == host


RESULT_KEYS = {"lower", "upper", "exact", "method", "budget_exceeded", "nodes"}
CERTIFICATE_KEYS = {"certificate_edges", "certificate_trace_length"}


def test_result_json_keys(k3):
    # the JSON keys are the result's fields, so a new field shows up here by name
    cases = {
        "solved": (wsat_exact(complete(5), k3), True),
        "F-free": (wsat_exact(Graph(4, [(0, 1), (1, 2), (2, 3)]), k3), True),
        "budget": (wsat_exact(complete(6), normalize_pattern(complete_bipartite(2, 4)),
                              SearchBudget(max_nodes=5)), False),
        "greedy": (greedy_upper_bound(complete(5), k3, 0), True),
    }
    for name, (res, certified) in cases.items():
        extra = CERTIFICATE_KEYS if certified else set()
        assert set(res.as_dict()) == RESULT_KEYS | extra, name
    assert cases["budget"][0].as_dict()["budget_exceeded"] is True
    assert cases["F-free"][0].as_dict()["method"] == "exact-search"
    assert cases["greedy"][0].as_dict()["method"] == "greedy"


def test_oracle_equivalence_small_complete_hosts(k3, k4, k13, p3):
    k12 = normalize_pattern(star(1))
    for n in (4, 5, 6):
        host = complete(n)
        for f in (k3, k4, k13, k12, p3):
            if host.n < f.s:
                continue
            assert wsat_exact(host, f).exact == wsat_exact_naive(host, f), (n, f.s, f.t)


def test_budget_exhaustion_flags_partial():
    # the general and the even-cycle bound both start K6/K_{2,4} at 7, and
    # wsat is 11, so the search walks level 7 and runs out of nodes there
    k24 = normalize_pattern(complete_bipartite(2, 4))
    res = wsat_exact(complete(6), k24, SearchBudget(max_nodes=5, max_seconds=60))
    assert res.budget_exceeded
    assert res.exact is None
    assert res.lower == 7 and res.upper == complete(6).m_edges


def test_budget_clock_read_at_every_subset(monkeypatch):
    # a clock that advances one second per read: the half-second budget has
    # run out when the first subset reads it, so no subset is examined
    monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=count().__next__))
    k24 = normalize_pattern(complete_bipartite(2, 4))
    res = wsat_exact(complete(6), k24, SearchBudget(max_seconds=0.5))
    assert res.budget_exceeded and res.nodes == 0


def test_budget_nodes_counts_subsets_examined():
    # K6/K_{2,4} needs more than 40 subsets; a run cut short reports the
    # subsets it examined, not the one it stopped at, and a budget of exactly
    # the nodes a solve needs is enough
    k24 = normalize_pattern(complete_bipartite(2, 4))
    for max_nodes in (1, 5, 40):
        res = wsat_exact(complete(6), k24, SearchBudget(max_nodes=max_nodes))
        assert res.budget_exceeded and res.nodes == max_nodes
    k3 = normalize_pattern(complete(3))
    host = random_host(7, 0.6, 3)
    need = wsat_exact(host, k3).nodes
    assert need > 1
    res = wsat_exact(host, k3, SearchBudget(max_nodes=need))
    assert not res.budget_exceeded and res.nodes == need


@settings(max_examples=100, deadline=None)
@given(small_hosts(6), st.sampled_from([complete(3), path(3), cycle(4), star(3), matching(2),
                                        Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])]))
# wsat 7 at node 41: 12 of the 40 subsets before it contain K_{2,3}, 8 of them
# with no isolated vertex, so past the degree filter
@example(complete(6), complete_bipartite(2, 3))
def test_certificate_is_first_saturated_subset_in_colex_order(host, pattern):
    # colex order on the kept edges, written out without the solver's walk and
    # tested by percolation alone: a fewest-edge percolating graph is F-free,
    # since a copy of F through e would let the closure of H - e add e back
    f = normalize_pattern(pattern)
    res = wsat_exact(host, f)
    edges = host.edges()
    colex = sorted(combinations(range(len(edges)), res.exact), key=lambda s: s[::-1])
    subgraphs = (Graph(host.n, (edges[i] for i in s)) for s in colex)
    first = next(h for h in subgraphs if closure(host, f, h).percolates)
    assert res.certificate[0] == first
    assert not contains_copy(first, f)


# K4 and K_{2,3} are left out: the oracle takes seconds on a dense 6-vertex host
@settings(max_examples=100, deadline=None)
@given(small_hosts(6), st.sampled_from([complete(3), path(3), cycle(4), star(3), matching(2)]))
# wsat 3, but 4 with (0,1), the first edge in a copy, kept: a rule that keeps
# one edge too many moves the value here
@example(Graph(6, [(0, 1), (0, 3), (0, 4), (2, 3), (2, 4), (2, 5), (3, 5), (4, 5)]), star(3))
def test_exact_search_keeps_edges_in_no_copy(host, pattern):
    # a closure adds an edge only through a copy of F, so the search walks
    # only the other edges; the value still matches the unpruned oracle
    f = normalize_pattern(pattern)
    res = wsat_exact(host, f)
    assert res.exact == wsat_exact_naive(host, f)
    in_copy = {tuple(sorted((m[a], m[b]))) for m in every_map(f.graph, host)
               for a, b in f.graph.edges()}
    assert host.edge_set - in_copy <= res.certificate[0].edge_set


@settings(max_examples=100, deadline=None)
@given(copy_hosts(), st.sampled_from([complete(3), path(3), cycle(4), star(3), matching(2)]))
def test_certificate_matches_first_saturated_subgraph(host, pattern):
    # the oracle may leave out any edge, so a search that also kept an edge of
    # some copy of F, where the copies' edges are interchangeable, would skip
    # the oracle's subgraph and return a later one
    f = normalize_pattern(pattern)
    assert wsat_exact(host, f).certificate[0].edges() == first_saturated_naive(host, f).edges()


def test_exact_search_skips_a_pendant_path(k3):
    # K5 with the pendant path 4-5-6-7: the path's three edges lie in no
    # triangle, so the search drops only K5 edges and its first subset, the
    # star at 0 plus the path, percolates (a walk of all 13 edges took 1,507)
    host = Graph(8, [*complete(5).edges(), (4, 5), (5, 6), (6, 7)])
    res = wsat_exact(host, k3)
    assert (res.exact, res.nodes) == (7, 1)
    assert res.certificate[0].edges() == [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6), (6, 7)]


# theta(1,2,3), three paths of lengths 1, 2 and 3 between two vertices,
# qualifies in the graphic matroid but not the even-cycle one, so its bound is
# the rigidity-1 rank plus one
THETA = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (1, 4)])
BOUND_PATTERNS = [normalize_pattern(g) for g in (
    complete(3), complete(4), cycle(4), complete_bipartite(2, 3), path(4), star(3),
    matching(2), Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)]), THETA)]


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 6), st.floats(0.2, 1.0), st.integers(0, 2**32), st.booleans())
@example(5, 1.0, 0, False)  # K5, where the +1 terms make the bound tight
@example(5, 1.0, 0, True)  # K4 plus an isolated vertex
def test_rank_bound_below_naive(n, p, seed, isolate):
    g = sample_gnp(n, p, Seed(seed))
    if isolate:  # vertex 0 isolated: a disconnected host
        g = Graph(n, (e for e in g.edges() if 0 not in e))
    for f in BOUND_PATTERNS:
        if f.s > n:
            continue
        bound = _rank_bound(g, f)
        if bound:  # a zero bound holds trivially, and the oracle is slow
            assert bound <= wsat_exact_naive(g, f)


# a triangle, a path and an isolated vertex with interleaved labels: an odd
# cycle next to a bipartite component
MIXED = Graph(7, [(0, 3), (3, 5), (0, 5), (1, 4), (4, 6)])


@settings(max_examples=100, deadline=None)
@given(small_hosts(max_n=8))
@example(MIXED)
@example(Graph(7, MIXED.edges()[::-1]))
@example(Graph(8, MIXED.edges() + [(2, 7)]))
@example(complete(1))
@example(complete(3))
@example(complete(4))
@example(complete(6))
def test_counted_ranks_match_elimination(g):
    # equal to elimination at the seeded points keeps every start level, and
    # so every output, as it was; never below it keeps the bound sound
    edges = g.edges()
    assert _counted_rank(True, g.n, edges) == _rank(even_cycle_rows(g.n, edges), inf)
    assert _counted_rank(False, g.n, edges) == _rank(_rigidity_rows(1, g.n, edges), inf)
    # stopping at the rank of K_n changes no rank, n <= d + 1 included
    for d in (2, 3):
        assert _rigidity_rank(d, g.n, edges) == _rank(_rigidity_rows(d, g.n, edges), inf)


def test_rank_bound_tight_on_cliques():
    for s in (3, 4, 5):
        f = normalize_pattern(complete(s))
        for n in range(s, 9):
            assert _rank_bound(complete(n), f) == (s - 2) * n - comb(s - 1, 2)


def test_rank_bound_closes_clique_searches(k3, k4):
    assert wsat_exact(complete(7), k3).nodes == 1
    assert wsat_exact(complete(6), k4).nodes == 1


def test_rank_bound_qualification():
    for pattern in (path(3), path(5), star(2), star(4), matching(2), matching(3)):
        assert not _qualifying(normalize_pattern(pattern))
    for s in (3, 4, 5):
        q = _qualifying(normalize_pattern(complete(s)))
        assert {f"rigidity-{d}" for d in range(1, s - 1)} <= set(q)
    for pattern in (cycle(4), complete_bipartite(2, 3)):
        q = _qualifying(normalize_pattern(pattern))
        assert sorted(q) == ["even-cycle", "rigidity-1"]
    q = _qualifying(normalize_pattern(THETA))
    assert {name: term for name, (_, term) in q.items()} == {"rigidity-1": 1}
    # even-cycle matroid: name -> +1 term (1 when every F - e is dependent)
    k3_k2 = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    for pattern, term in ((cycle(4), 0), (cycle(6), 0), (complete(4), 1), (complete(5), 1),
                          (complete_bipartite(2, 3), 1), (complete_bipartite(2, 4), 1),
                          (complete_bipartite(3, 3), 1), (complete(3), None), (cycle(5), None),
                          (path(4), None), (star(3), None), (matching(2), None), (k3_k2, None)):
        q = _qualifying(normalize_pattern(pattern))
        assert (q["even-cycle"][1] if "even-cycle" in q else None) == term, pattern


def test_start_bound_closes_bipartite_searches():
    # the even-cycle bound is n on K_n for C4 and n + 1 for K_{2,3}: wsat itself
    for pattern, family, t, sizes in ((cycle(4), "ktt", 2, range(5, 10)),
                                      (complete_bipartite(2, 3), "k2t", 3, range(5, 8))):
        f = normalize_pattern(pattern)
        for n in sizes:
            g = complete(n)
            want = closed_form_wsat(FormulaQuery(family, n, t=t))
            assert max(lower_bound_general(g, f), _rank_bound(g, f)) == want, (n, t)
            assert wsat_exact(g, f).exact == want, (n, t)


def test_greedy_examples(k3):
    res = greedy_upper_bound(complete(4), k3, 1)
    assert res.upper == wsat_exact(complete(4), k3).exact == 3

    tri_free = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    res = greedy_upper_bound(tri_free, k3, 1)
    assert res.upper == tri_free.m_edges  # nothing deletable

    res = greedy_upper_bound(complete(6), k3, 1)
    assert res.upper == 5


def test_greedy_meets_clique_closed_form(k3):
    for n in range(4, 9):
        best = min(greedy_upper_bound(complete(n), k3, s).upper for s in range(10))
        assert best == n - 1


def test_greedy_certificate_sound(k3, k13):
    for i in range(10):
        host = random_host(7, 0.6, 1100 + i)
        for f in (k3, k13):
            res = greedy_upper_bound(host, f, i)
            h, trace = res.certificate
            assert h.m_edges == res.upper
            assert is_weakly_saturated(host, f, h)
            assert verify_trace(host, f, h, trace)


GREEDY_PATTERNS = [normalize_pattern(p) for p in (
    complete(3), cycle(4), star(3), path(4), matching(2),
    Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)]))]  # K3, C4, K_{1,3}, P4, 2K2, K3+K2


@settings(max_examples=150, deadline=None)
@given(small_hosts(7), st.sampled_from(GREEDY_PATTERNS), st.integers(0, 2**32))
# two triangles joined by an edge, then two components; vertex 6 is isolated
@example(Graph(7, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (3, 5), (2, 4)]),
         GREEDY_PATTERNS[0], 0)
@example(Graph(7, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (3, 5)]),
         GREEDY_PATTERNS[5], 3)
def test_greedy_matches_round_by_round_oracle(host, f, seed):
    res, ref = greedy_upper_bound(host, f, seed), greedy_naive(host, f, seed)
    assert res.as_dict() == ref.as_dict()
    assert res.certificate[0].edges() == ref.certificate[0].edges()
    assert res.certificate[1].to_json() == ref.certificate[1].to_json()


def test_greedy_raises_on_counts_no_map_backs():
    # K3+K2 with both orbit sizes set to 1: the counts stop matching the maps
    # left, and greedy raises rather than looping on an edge with none
    f = GREEDY_PATTERNS[5]
    unweighted = dataclasses.replace(
        f, anchors=tuple((a, b, 1, plan) for a, b, _, plan in f.anchors))
    host = Graph(7, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(InternalError, match="none is left"):
        greedy_upper_bound(host, unweighted, 3)


def test_sandwich_lower_exact_greedy(k3, k13):
    for i in range(15):
        host = random_host(6, 0.5, 1200 + i)
        for f in (k3, k13):
            if host.n < f.s:
                continue
            exact = wsat_exact(host, f).exact
            assert lower_bound_general(host, f) <= exact
            assert exact <= greedy_upper_bound(host, f, i).upper


def test_copy_count_sandwich_on_random_hosts(k3):
    # |E(G)| - X_F(G) <= wsat(G,F) <= |E(G)| on 100 random hosts, n <= 7
    for i in range(100):
        n = 4 + i % 4
        host = random_host(n, 0.2 + 0.06 * (i % 11), 1300 + i)
        exact = wsat_exact(host, k3).exact
        x_f = count_copies(host, k3)
        assert host.m_edges - x_f <= exact <= host.m_edges


def test_wsat_k2_is_zero():
    k2 = normalize_pattern(complete(2))
    for i in range(5):
        host = random_host(6, 0.5, 1400 + i)
        assert wsat_exact(host, k2).exact == 0
