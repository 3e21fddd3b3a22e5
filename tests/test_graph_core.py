import os
import subprocess
import sys
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsat import (
    Graph,
    GraphParseError,
    ParameterError,
    Seed,
    UndefinedDensityError,
    build_named_graph,
    complete,
    complete_bipartite,
    construct_random_host_saturator,
    cycle,
    decode_edge_list,
    density_m,
    density_mu,
    empty,
    encode_edge_list,
    matching,
    normalize_pattern,
    path,
    sample_gnp,
    star,
)
from conftest import random_host
from oracles import every_map, validate


def test_named_families():
    assert complete(4).m_edges == 6
    g = complete_bipartite(2, 3)
    assert g.m_edges == 6
    assert all((i, j) in g.edge_set for i in (0, 1) for j in (2, 3, 4))
    assert (0, 1) not in g.edge_set and (2, 3) not in g.edge_set
    s = star(3)
    assert s.n == 4 and s.m_edges == 3 and s.degree(0) == 3
    assert path(5).m_edges == 4
    assert cycle(5).m_edges == 5
    assert empty(7).m_edges == 0
    assert matching(3).m_edges == 3 and matching(3).n == 6


def test_family_parameter_errors():
    with pytest.raises(ParameterError):
        complete(0)
    with pytest.raises(ParameterError):
        build_named_graph("star", 0)
    with pytest.raises(ParameterError):
        build_named_graph("nope", 3)
    with pytest.raises(ParameterError):
        build_named_graph("complete", 3, 4)


def test_graph_rejects_loops_and_duplicates():
    with pytest.raises(ParameterError):
        Graph(3, [(0, 0)])
    with pytest.raises(ParameterError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ParameterError):
        Graph(2, [(0, 5)])


@pytest.mark.parametrize("n,edges,message", [
    (3, [(0, 0)], "loop at vertex 0"),
    (3, [(0, 1), (-1, 2)], "edge (-1,2) out of range for n=3"),
    (5, [(5, 0)], "edge (5,0) out of range for n=5"),  # in input order
    (3, [(0, 1), (2, 1), (1, 0)], "duplicate edge (0, 1)"),  # normalised
])
def test_graph_constructor_messages(n, edges, message):
    with pytest.raises(ParameterError) as exc:
        Graph(n, edges)
    assert str(exc.value) == message


def test_all_constructed_graphs_validate():
    for g in [complete(6), complete_bipartite(3, 4), star(5), path(6),
              cycle(6), empty(4), matching(4)]:
        validate(g)


def test_gnp_extremes():
    assert sample_gnp(5, 0.0, Seed(1)) == empty(5)
    assert sample_gnp(5, 1.0, Seed(1)) == complete(5)


def test_gnp_deterministic_repeat():
    a = sample_gnp(20, 0.5, Seed(7))
    b = sample_gnp(20, 0.5, Seed(7))
    assert a == b


def test_gnp_determinism_over_many_seeds():
    rng = Seed(99).rng()
    for _ in range(100):
        n = rng.randrange(2, 15)
        p = rng.random()
        master = rng.randrange(2**63)
        g1 = sample_gnp(n, p, Seed(master))
        g2 = sample_gnp(n, p, Seed(master))
        assert g1 == g2
        validate(g1)


def test_gnp_stream_changes_sample():
    assert sample_gnp(20, 0.5, Seed(7, 0)) != sample_gnp(20, 0.5, Seed(7, 1))


def test_codec_examples():
    assert decode_edge_list("4 3\n0 1\n0 2\n0 3") == star(3)
    assert encode_edge_list(complete(3)) == "3 3\n0 1\n0 2\n1 2\n"


def test_codec_errors_carry_line_numbers():
    with pytest.raises(GraphParseError) as exc:
        decode_edge_list("3 1\n0 0")
    assert exc.value.line == 2
    with pytest.raises(GraphParseError):
        decode_edge_list("3 2\n0 1\n0 9")
    with pytest.raises(GraphParseError):
        decode_edge_list("3 2\n0 1\n0 1")
    with pytest.raises(GraphParseError):
        decode_edge_list("")
    with pytest.raises(GraphParseError):
        decode_edge_list("3 2\n0 1")  # header promises 2 edges


@pytest.mark.parametrize("text,line,message", [
    ("# header next\n3 1\n0 1 2", 3, "expected two integers"),
    ("3 1\n\n0", 3, "expected two integers"),
    ("3 x", 1, "non-integer token"),
    ("3 1\n0 1.5", 2, "non-integer token"),
    ("# comment\n-1 0", 2, "negative count in header"),
    ("3 -1", 1, "negative count in header"),
])
def test_codec_malformed_lines(text, line, message):
    with pytest.raises(GraphParseError, match=f"^line {line}: {message}") as exc:
        decode_edge_list(text)
    assert exc.value.line == line


@pytest.mark.parametrize("build", [
    lambda: Graph(-1),
    lambda: complete_bipartite(0, 2),
    lambda: complete_bipartite(2, 0),
    lambda: path(0),
    lambda: cycle(2),
    lambda: empty(0),
    lambda: matching(0),
    lambda: sample_gnp(0, 0.5, 0),
])
def test_families_below_minimum_size(build):
    with pytest.raises(ParameterError):
        build()


def test_codec_comments_ignored():
    g = decode_edge_list("# a star\n4 3\n0 1\n0 2  # inline\n0 3\n")
    assert g == star(3)


def test_codec_roundtrip_families_and_random():
    graphs = [complete(5), complete_bipartite(2, 4), star(4), path(7),
              cycle(8), empty(3), matching(5)]
    graphs += [random_host(n, p, s)
               for s, (n, p) in enumerate((n, p) for n in (3, 6, 10)
                                          for p in (0.1, 0.5, 0.9))]
    rng = Seed(5).rng()
    graphs += [random_host(rng.randrange(1, 12), rng.random(), 1000 + i)
               for i in range(100)]
    for g in graphs:
        assert decode_edge_list(encode_edge_list(g)) == g


def _density_m_oracle(g: Graph) -> Fraction:
    # independent route: maximize over nonempty EDGE subsets, vertices = endpoints
    edges = g.edges()
    best = Fraction(0)
    for r in range(1, len(edges) + 1):
        for sub in combinations(edges, r):
            verts = set(chain.from_iterable(sub))
            best = max(best, Fraction(len(sub), len(verts)))
    return best


def test_density_m_examples():
    assert density_m(complete(4)) == Fraction(3, 2)
    assert density_m(complete(2)) == Fraction(1, 2)
    assert density_m(star(3)) == Fraction(3, 4)
    assert density_m(star(3)) == _density_m_oracle(star(3))


def test_density_m_against_edge_subset_oracle():
    for i, g in enumerate([complete(4), star(4), path(5), cycle(5),
                           complete_bipartite(2, 3)]):
        assert density_m(g) == _density_m_oracle(g), g
    for i in range(10):
        g = random_host(6, 0.5, 200 + i)
        if g.m_edges:
            assert density_m(g) == _density_m_oracle(g)


def test_density_mu():
    assert density_mu(complete(2)) == Fraction(1, 2)  # |V| = 2 special case
    assert density_mu(complete(3)) == Fraction(2)
    assert density_mu(complete(4)) == Fraction(5, 2)


def test_density_errors_on_edgeless():
    with pytest.raises(UndefinedDensityError):
        density_m(empty(3))
    with pytest.raises(UndefinedDensityError):
        density_mu(empty(3))


def test_density_floors():
    for i in range(20):
        g = random_host(7, 0.5, 300 + i)
        if g.m_edges == 0:
            continue
        assert density_m(g) >= Fraction(g.m_edges, g.n)
        if g.n >= 3:
            assert density_mu(g) >= density_m(g)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32))
def test_codec_roundtrip_property(n, seed):
    g = sample_gnp(n, 0.4, Seed(seed))
    assert decode_edge_list(encode_edge_list(g)) == g


K3 = normalize_pattern(complete(3))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.sampled_from([0.3, 0.6, 0.9]), st.integers(0, 2**32),
       st.lists(st.integers(0, 8), unique=True), st.integers(0, 11))
@example(n=6, p=0.9, seed=1, pool=[5, 0, 3], size=0)
@example(n=6, p=0.9, seed=1, pool=[5, 0, 3], size=4)
def test_first_clique_map_is_first_clique(n, p, seed, pool, size):
    # K_size's matching order is 0..size-1 and candidates ascend, so the first
    # map of K_size into G[pool] is pool's lexicographically first size-clique
    g = sample_gnp(n, p, Seed(seed))
    sub, labels = g.induced(v for v in pool if v < n)
    want = next((c for c in combinations(labels, size)
                 if all((u, v) in g.edge_set for u, v in combinations(c, 2))), None)
    first = next(iter(every_map(Graph(size, combinations(range(size), 2)), sub)), None)
    assert want == (None if first is None else tuple(labels[v] for v in first))
    with pytest.raises(ParameterError):
        construct_random_host_saturator(g, K3, -1 - size)


def test_invariant_checks_survive_optimize_flag():
    # under -O a bare assert is stripped; the checks must still raise
    script = """
from itertools import islice
import wsat.patterns
from wsat import Graph, InternalError, complete, normalize_pattern
from oracles import validate
assert False, "stripped under -O"
g = Graph(3, [(0, 1)])
g.adj = (frozenset({1}), frozenset(), frozenset())
# five of K3's six automorphisms: base orbits of sizes 3 and 2 multiply to 6
search = wsat.patterns._search
wsat.patterns._search = lambda *args: islice(search(*args), 5)
for check in (lambda: validate(g), lambda: normalize_pattern(complete(3))):
    try:
        check()
    except InternalError as exc:
        print("raised:", exc)
"""
    src = os.path.dirname(os.path.dirname(sys.modules["wsat"].__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.path.dirname(__file__)])}
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.count("raised:") == 2, out.stdout
