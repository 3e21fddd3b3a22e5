from itertools import combinations

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from wsat import (
    Graph,
    Seed,
    complete,
    complete_bipartite,
    cycle,
    normalize_pattern,
    path,
    sample_gnp,
    star,
)

# CI runs `pytest --hypothesis-profile=ci`: the same examples on every run,
# and more of them where a test does not set its own count
settings.register_profile("ci", derandomize=True, max_examples=200)


@pytest.fixture(scope="session")
def k3():
    return normalize_pattern(complete(3))


@pytest.fixture(scope="session")
def k4():
    return normalize_pattern(complete(4))


@pytest.fixture(scope="session")
def k13():
    return normalize_pattern(star(3))


@pytest.fixture(scope="session")
def p3():
    return normalize_pattern(path(3))


@pytest.fixture(scope="session")
def k23():
    return normalize_pattern(complete_bipartite(2, 3))


def random_host(n: int, p: float, seed: int) -> Graph:
    return sample_gnp(n, p, Seed(seed))


@st.composite
def small_hosts(draw, max_n: int = 7) -> Graph:
    """Hosts on 1..max_n vertices.  Edges between the first ``cut`` vertices
    and the rest are never drawn, so disconnected hosts, and hosts with an
    isolated vertex (cut = 1 or n - 1), come up often."""
    n = draw(st.integers(1, max_n))
    cut = draw(st.integers(0, n))
    pairs = [(u, v) for u, v in combinations(range(n), 2) if (u < cut) == (v < cut)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def copy_hosts(draw) -> Graph:
    """Two or three copies of one small graph placed on the same 3..6
    vertices, so that they are disjoint or overlap, plus an isolated last
    vertex.  Many edges are interchangeable, so the first weakly saturated
    subgraph has a real choice of edges."""
    base = draw(st.sampled_from([complete(3), path(3), path(4), cycle(4), star(3)]))
    n = draw(st.integers(base.n, 6))
    places = draw(st.lists(st.permutations(range(n)), min_size=2, max_size=3))
    return Graph(n + 1, {tuple(sorted((p[u], p[v]))) for p in places for u, v in base.edges()})


@st.composite
def star_hosts(draw) -> Graph:
    """Three to five copies of K_{1,3} on the vertices 2..n+1 (n = 4..6), less
    any edge ab between two of them, plus the edges 0a, 0b and 01.  The
    lowest host edge, (0, 1), lies in a copy of K_{1,3}, but a closure that
    reaches 0a and 0b adds it, and keeping it is often a wasted edge, so the
    first weakly saturated subgraph for K_{1,3} often leaves it out."""
    n = draw(st.integers(4, 6))
    stars = draw(st.lists(st.permutations(range(2, n + 2)), min_size=3, max_size=5))
    a, b = sorted(draw(st.permutations(range(2, n + 2)))[:2])
    edges = {tuple(sorted((p[0], x))) for p in stars for x in p[1:4]}
    return Graph(n + 2, edges - {(a, b)} | {(0, 1), (0, a), (0, b)})


def random_spanning_subgraph(g: Graph, keep: float, seed: int) -> Graph:
    rng = Seed(seed).rng()
    return Graph(g.n, (e for e in g.edges() if rng.random() < keep))


# one line per acceptance criterion, echoed after the run (see test_acceptance)
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
