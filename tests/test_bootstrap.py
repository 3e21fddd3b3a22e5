import random
from functools import reduce
from math import comb
from operator import and_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsat import (
    ActivationTrace,
    CopyWitness,
    Graph,
    PreconditionError,
    Seed,
    closure,
    complete,
    complete_bipartite,
    contains_copy,
    cycle,
    empty,
    is_weakly_saturated,
    matching,
    normalize_pattern,
    path,
    sample_gnp,
    star,
    verify_trace,
    verify_trace_detailed,
)
from wsat import bootstrap
from wsat.bootstrap import saturation_failure
from conftest import random_host, random_spanning_subgraph, small_hosts
import oracles
from oracles import closure_naive, closure_requeue_all


def _pad(g: Graph, n: int) -> Graph:
    return Graph(n, g.edge_set)


def test_closure_star_in_k4(k3):
    res = closure(complete(4), k3, _pad(star(3), 4))
    assert res.percolates
    assert len(res.trace) == 3
    assert res.closure == complete(4)


def test_closure_matching_stalls(k3):
    seed = Graph(4, [(0, 1), (2, 3)])
    res = closure(complete(4), k3, seed)
    assert not res.percolates
    assert res.closure == seed
    assert len(res.trace) == 0


def test_closure_triangle_free_host_is_inert(k3):
    host = Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (0, 7)])  # triangle-free
    seed = Graph(8, [(0, 1)])
    res = closure(host, k3, seed)
    assert res.closure == seed


def test_closure_requires_spanning_subgraph(k3):
    with pytest.raises(PreconditionError):
        closure(complete(4), k3, complete(3))
    with pytest.raises(PreconditionError):
        closure(Graph(4, [(0, 1)]), k3, Graph(4, [(2, 3)]))


def test_is_weakly_saturated_examples(k3):
    host = complete(4)
    assert is_weakly_saturated(host, k3, _pad(star(3), 4))
    assert not is_weakly_saturated(host, k3, host)  # contains F
    assert not is_weakly_saturated(host, k3, Graph(4, [(0, 1), (2, 3)]))


VERDICT_PATTERNS = [normalize_pattern(g) for g in (
    complete(3), path(3), star(3), cycle(4), matching(2))]


@settings(max_examples=150, deadline=None)
@given(small_hosts(6), st.sampled_from(VERDICT_PATTERNS), st.integers(0, 2**15 - 1))
# K4 under K3: itself (a copy), a perfect matching (stalls), a star (saturated)
@example(complete(4), VERDICT_PATTERNS[0], 0b111111)
@example(complete(4), VERDICT_PATTERNS[0], 0b100001)
@example(complete(4), VERDICT_PATTERNS[0], 0b000111)
def test_saturation_failure_against_naive_closure(host, f, mask):
    # bit i of mask keeps the i-th host edge in H
    h = Graph(host.n, [e for i, e in enumerate(host.edges()) if mask >> i & 1])
    missing = sorted(closure_naive(host, f, h).missing)
    if contains_copy(h, f):
        want = {"reason": "candidate contains a copy of the pattern"}
    elif missing:
        want = {"reason": "closure stalled", "first_unreachable_edge": missing[0]}
    else:
        want = None
    assert saturation_failure(host, f, h) == want
    assert is_weakly_saturated(host, f, h) is (want is None)


def test_saturation_failure_requires_spanning_subgraph(k3):
    # H must span the host before its copies of F are looked at
    with pytest.raises(PreconditionError):
        saturation_failure(complete(4), k3, complete(3))
    with pytest.raises(PreconditionError):
        saturation_failure(Graph(5, complete(4).edge_set), k3, complete(5))


def test_emitted_trace_verifies(k3):
    host = complete(4)
    seed = _pad(star(3), 4)
    res = closure(host, k3, seed)
    assert verify_trace(host, k3, seed, res.trace)


def test_swapped_trace_fails(k3):
    host = complete(4)
    seed = Graph(4, [(0, 1), (1, 2), (2, 3)])  # path: later steps need earlier ones
    res = closure(host, k3, seed)
    assert len(res.trace) == 3
    # find a swap that breaks causality: a later edge whose witness needs an
    # earlier edge, moved in front of it
    steps = list(res.trace.steps)
    broken = None
    for i in range(len(steps)):
        for j in range(i + 1, len(steps)):
            cand = list(steps)
            cand[i], cand[j] = cand[j], cand[i]
            if not verify_trace(host, k3, seed, ActivationTrace(cand)):
                broken = ActivationTrace(cand)
                break
        if broken:
            break
    assert broken is not None
    ok, idx, reason = verify_trace_detailed(host, k3, seed, broken)
    assert not ok and idx is not None


def test_empty_trace_on_full_seed(k3):
    host = complete(4)
    assert verify_trace(host, k3, host, ActivationTrace())


def test_trace_rejects_duplicate_and_foreign_edges(k3):
    host = complete(4)
    seed = _pad(star(3), 4)
    res = closure(host, k3, seed)
    dup = ActivationTrace(res.trace.steps + [res.trace.steps[0]])
    ok, idx, _ = verify_trace_detailed(host, k3, seed, dup)
    assert not ok and idx == len(res.trace.steps)


def test_trace_rejects_witness_that_is_no_copy_through_its_edge(k3):
    host = complete(4)
    seed = Graph(4, host.edge_set - {(0, 1)})

    def replay(mapping):
        trace = ActivationTrace([((0, 1), CopyWitness(mapping))])
        return verify_trace_detailed(host, k3, seed, trace)

    # too short, not injective, off the host (twice), a copy missing (0, 1)
    for bad in [(0, 1), (0, 1, 1), (0, 1, 7), (0, 1, -1), (1, 2, 3)]:
        assert replay(bad) == (False, 0, "witness at step 0 is not a copy of F through (0, 1)")
    assert replay((0, 1, 2)) == (True, None, "ok")


def test_trace_json_roundtrip(k3):
    res = closure(complete(4), k3, _pad(star(3), 4))
    again = ActivationTrace.from_json(res.trace.to_json())
    assert again.steps == res.trace.steps


def test_k2_empty_seed_percolates_any_host():
    k2 = normalize_pattern(complete(2))
    for i in range(10):
        host = random_host(7, 0.5, 900 + i)
        res = closure(host, k2, empty(7))
        assert res.percolates  # wsat(G, K_2) = 0


def _instances(count, patterns):
    out = []
    for i in range(count):
        host = random_host(4 + i % 5, 0.3 + 0.4 * ((i * 7) % 10) / 10, 9000 + i)
        seed1 = random_spanning_subgraph(host, 0.3, 9500 + i)
        extra = random_spanning_subgraph(host, 0.3, 9700 + i)
        seed2 = Graph(host.n, seed1.edge_set | extra.edge_set)
        out.append((host, seed1, seed2, patterns[i % len(patterns)]))
    return out


def test_closure_idempotent(k3, p3, k13):
    for host, seed, _, f in _instances(60, [k3, p3, k13]):
        once = closure(host, f, seed).closure
        twice = closure(host, f, once).closure
        assert twice == once


def test_closure_monotone_in_seed(k3, p3, k13, k4):
    for host, seed1, seed2, f in _instances(200, [k3, p3, k13, k4]):
        c1 = closure(host, f, seed1).closure
        c2 = closure(host, f, seed2).closure
        assert c1.edge_set <= c2.edge_set


def _reverse_chain(n: int) -> tuple[Graph, Graph]:
    """Square of a path, seeded with its (i, i+2) edges and the last path
    edge.  Under K3 the path edges activate one at a time from the top down,
    each one unlocking only the next lower one, against the ascending queue."""
    skips = [(i, i + 2) for i in range(n - 2)]
    host = Graph(n, skips + [(i, i + 1) for i in range(n - 1)])
    return host, Graph(n, skips + [(n - 2, n - 1)])


def test_closure_order_independent_vs_naive(k3, p3, k13):
    host, seed = _reverse_chain(30)
    assert closure(host, k3, seed).percolates
    chain = [(host, seed, None, k3)]
    for idx, (host, seed, _, f) in enumerate(_instances(100, [k3, p3, k13]) + chain):
        fast = closure(host, f, seed)
        assert verify_trace(host, f, seed, fast.trace)
        results = {fast.closure.edge_set}
        for order_seed in range(5):
            rng = Seed(order_seed, idx).rng()

            def scramble(edges, rng=rng):
                edges = list(edges)
                rng.shuffle(edges)
                return edges

            naive = closure_naive(host, f, seed, scramble)
            results.add(naive.closure.edge_set)
            assert verify_trace(host, f, seed, naive.trace)
        assert len(results) == 1, "closure depends on processing order"


def test_every_emitted_trace_verifies(k3, p3):
    for host, seed, _, f in _instances(40, [k3, p3]):
        res = closure(host, f, seed)
        assert verify_trace(host, f, seed, res.trace)


def test_disconnected_pattern_closure(k3):
    # a disconnected pattern: a copy through an edge may place its other
    # component anywhere in the host
    m2 = normalize_pattern(matching(2))
    host = complete(5)
    seed = Graph(5, [(0, 1)])
    res = closure(host, m2, seed)
    naive = closure_naive(host, m2, seed)
    assert res.closure == naive.closure
    assert res.percolates
    assert verify_trace(host, m2, seed, res.trace)


WAKE_PATTERNS = [normalize_pattern(g) for g in (
    complete(2), complete(3), complete(4), complete(5), path(3), cycle(4), star(3),
    complete_bipartite(2, 3), matching(2), Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)]))]

# K4 on six vertices, seeded with every edge but (0, 1) and (2, 3): (0, 1)
# fails while (2, 3) is missing, then (2, 3) is added through {2, 3, 4, 5},
# which touches neither 0 nor 1 but two of their common neighbours, and
# (0, 1) must be woken to complete {0, 1, 2, 3}
WAKE_HOST = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (2, 5),
                      (3, 4), (3, 5), (4, 5)])


# a seed mask drawn bit by bit (a drawn integer's high bits are mostly 0),
# ANDed over 1-3 draws: each host edge stays with probability 1/2, 1/4 or
# 1/8, so complete hosts on up to 10 vertices get sparse seeds too
MASK_BITS = st.lists(st.booleans(), min_size=45, max_size=45).map(
    lambda bits: sum(b << i for i, b in enumerate(bits)))
SEED_MASKS = st.lists(MASK_BITS, min_size=1, max_size=3).map(lambda masks: reduce(and_, masks))


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_hosts(8), st.integers(1, 10).map(complete)), SEED_MASKS)
@example(WAKE_HOST, 0b11111011110)
def test_closure_matches_requeue_all(host, mask):
    # bit i of mask keeps the i-th host edge in the seed; the clique wake-up
    # rule skips only searches that would fail, so every step is the same.
    # Complete hosts make long K4 and K5 chains, which wake edges often
    seed = Graph(host.n, [e for i, e in enumerate(host.edges()) if mask >> i & 1])
    for f in WAKE_PATTERNS:
        res, ref = closure(host, f, seed), closure_requeue_all(host, f, seed)
        assert res.trace.to_json() == ref.trace.to_json()
        assert res.missing == ref.missing
        assert res.closure == ref.closure
        assert res.percolates is ref.percolates


@pytest.mark.parametrize("pattern,fewer", [(complete(4), True), (cycle(4), False)])
def test_clique_wake_up_skips_searches(monkeypatch, pattern, fewer):
    # the LARGE_HOST_TRACE_PINS host: K4's closure skips re-tests whose common
    # neighbourhood has not changed, C4's re-tests every set-aside edge
    host = sample_gnp(30, 0.5, Seed(30))
    seed = Graph(30, random.Random(30).sample(sorted(host.edge_set), round(0.15 * comb(30, 2))))
    f = normalize_pattern(pattern)
    search, calls = bootstrap.copy_through_edge, []

    def counted(*args):
        calls.append(None)
        return search(*args)

    monkeypatch.setattr(bootstrap, "copy_through_edge", counted)
    monkeypatch.setattr(oracles, "copy_through_edge", counted)
    res = closure(host, f, seed)
    ours = len(calls)
    ref = closure_requeue_all(host, f, seed)
    theirs = len(calls) - ours
    assert res.trace.to_json() == ref.trace.to_json()
    assert ours < theirs if fewer else ours == theirs
