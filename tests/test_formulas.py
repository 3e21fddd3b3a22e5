import pytest

from wsat import (
    ConstructionError,
    FormulaQuery,
    Graph,
    ParameterError,
    RangeError,
    SearchBudget,
    StructureAbsentError,
    closed_form_wsat,
    complete,
    complete_bipartite,
    construct_complete_host_saturator,
    construct_random_host_saturator,
    cycle,
    generic_upper_bounds,
    greedy_upper_bound,
    is_weakly_saturated,
    matching,
    normalize_pattern,
    sample_gnp,
    stability_profile,
    star,
    wsat_exact,
)


def test_closed_form_examples():
    assert closed_form_wsat(FormulaQuery("ks", n=5, s=3)) == 4
    assert closed_form_wsat(FormulaQuery("k2t", n=6, t=4)) == 11  # even, n <= 2t-2
    assert closed_form_wsat(FormulaQuery("k2t", n=9, t=3)) == 10  # otherwise branch
    assert closed_form_wsat(FormulaQuery("ktt", n=6, t=2)) == 6
    assert closed_form_wsat(FormulaQuery("k1t", n=5, t=3)) == 3
    lo, hi = closed_form_wsat(FormulaQuery("kst", n=20, s=2, t=4))
    assert lo == 1 * 17 + 6 and hi == 1 * 18 + 6 and lo <= hi


def test_closed_form_range_errors():
    with pytest.raises(RangeError):
        closed_form_wsat(FormulaQuery("ks", n=2, s=3))
    with pytest.raises(RangeError):
        closed_form_wsat(FormulaQuery("k1t", n=3, t=3))
    with pytest.raises(RangeError):
        closed_form_wsat(FormulaQuery("k2t", n=4, t=3))
    with pytest.raises(RangeError):
        closed_form_wsat(FormulaQuery("kst", n=4, s=3, t=2))  # needs t > s
    with pytest.raises(ParameterError):
        closed_form_wsat(FormulaQuery("ks", n=5))  # missing s
    with pytest.raises(ParameterError, match="missing parameter 't'"):
        closed_form_wsat(FormulaQuery("kst", n=20, s=2))
    # ks takes s, kst both, the other families t: a parameter a family does
    # not take is an error, not ignored
    for q in (FormulaQuery("ks", n=5, s=3, t=9), FormulaQuery("ktt", n=6, s=2, t=2),
              FormulaQuery("k2t", n=6, s=2, t=4), FormulaQuery("k1t", n=5, s=1, t=3)):
        with pytest.raises(ParameterError, match="takes no parameter"):
            closed_form_wsat(q)


@pytest.mark.parametrize("q", [
    FormulaQuery("ks", n=5, s=1),  # s >= 2
    FormulaQuery("ks", n=2, s=3),  # n >= s
    FormulaQuery("ktt", n=5, t=0),  # t >= 1
    FormulaQuery("ktt", n=5, t=3),  # n >= 3t - 3
    FormulaQuery("kst", n=9, s=3, t=2),  # t > s
    FormulaQuery("kst", n=5, s=2, t=4),  # n >= s + t
    FormulaQuery("k2t", n=9, t=2),  # t >= 3
    FormulaQuery("k2t", n=4, t=3),  # n >= t + 2
    FormulaQuery("k1t", n=5, t=0),  # t >= 1
    FormulaQuery("k1t", n=3, t=3),  # n >= t + 1
])
def test_closed_form_every_range_error(q):
    with pytest.raises(RangeError, match=f"^{q.family} requires"):
        closed_form_wsat(q)


def test_closed_form_unknown_family():
    with pytest.raises(ParameterError, match="unknown formula family 'kk'"):
        closed_form_wsat(FormulaQuery("kk", n=5, s=3))


def test_closed_forms_match_exact_solver(k3, k4, k13, k23):
    cases = [
        (FormulaQuery("ks", n=4, s=3), complete(4), k3),
        (FormulaQuery("ks", n=5, s=3), complete(5), k3),
        (FormulaQuery("ks", n=6, s=3), complete(6), k3),
        (FormulaQuery("ks", n=5, s=4), complete(5), k4),
        (FormulaQuery("k1t", n=5, t=3), complete(5), k13),
        (FormulaQuery("k1t", n=6, t=3), complete(6), k13),
        (FormulaQuery("k2t", n=5, t=3), complete(5), k23),
        (FormulaQuery("ktt", n=6, t=2), complete(6),
         normalize_pattern(complete_bipartite(2, 2))),
    ]
    for q, host, f in cases:
        assert closed_form_wsat(q) == wsat_exact(host, f).exact, q


def test_generic_upper_bounds(k3, k13):
    assert generic_upper_bounds(6, k3) == 5  # matches the exact clique value
    assert generic_upper_bounds(10, k13, m=4, wsat_m=3) == 3
    k23 = normalize_pattern(complete_bipartite(2, 3))
    assert generic_upper_bounds(9, k23) == 11  # valid bound; exact is 10
    with pytest.raises(RangeError):
        generic_upper_bounds(1, k3)
    with pytest.raises(RangeError):
        generic_upper_bounds(3, k13, m=5, wsat_m=3)
    with pytest.raises(ParameterError):
        generic_upper_bounds(6, k3, m=3)
    with pytest.raises(ParameterError):  # wsat_m alone is not ignored
        generic_upper_bounds(10, k3, wsat_m=99)


def test_eq2_upper_vs_closed_form(k3, k4):
    for n in range(4, 9):
        assert generic_upper_bounds(n, k3) >= closed_form_wsat(FormulaQuery("ks", n=n, s=3))
    for n in range(5, 9):
        assert generic_upper_bounds(n, k4) >= closed_form_wsat(FormulaQuery("ks", n=n, s=4))


def test_construct_complete_host_join(k3, k4, k13):
    h = construct_complete_host_saturator(6, k4, 2, complete(2))
    assert h.m_edges == 9 == 2 * 6 - 3

    h = construct_complete_host_saturator(5, k3, 2, complete(2))
    assert h.m_edges == 4 == 5 - 1
    assert is_weakly_saturated(complete(5), k3, h)

    core = greedy_upper_bound(complete(4), k13, 0).certificate[0]
    assert core.m_edges == 3
    h = construct_complete_host_saturator(10, k13, 4, core)
    assert h.m_edges == 3  # delta-1 = 0: no fringe edges at all


def test_construct_complete_host_rejects_bad_core(k3):
    with pytest.raises(ConstructionError):
        construct_complete_host_saturator(6, k3, 3, complete(3))  # core contains F


def test_construct_complete_host_rejects_core_of_wrong_size(k3):
    with pytest.raises(ParameterError, match="core has 3 vertices, expected m=2"):
        construct_complete_host_saturator(7, k3, 2, Graph(3, []))


def test_construct_complete_host_clique_counts(k3, k4):
    for f, s in ((k3, 3), (k4, 4)):
        core = complete(s - 2)
        for n in range(s, 15):
            h = construct_complete_host_saturator(n, f, s - 2, core)
            assert h.m_edges == (s - 2) * n - (s - 1) * (s - 2) // 2


def test_construct_random_host_on_complete(k3):
    h = construct_random_host_saturator(complete(8), k3, 2, 0)
    assert h.m_edges == 7


def test_construct_random_host_on_gnp(k3):
    g = sample_gnp(20, 0.8, 1)
    h = construct_random_host_saturator(g, k3, 3, 1)
    # (delta-1)(n-m) + |core| with delta=2, core = wsat of a triangle = 2
    assert h.m_edges == 17 + 2
    assert is_weakly_saturated(g, k3, h)
    # a sparser host where the candidate is F-free but its closure stalls
    with pytest.raises(ConstructionError) as info:
        construct_random_host_saturator(sample_gnp(10, 0.7, 0), k3, 2, 0)
    assert str(info.value) == "clique-anchored construction failed verification"
    assert info.value.diagnostic == {"reason": "closure stalled",
                                     "first_unreachable_edge": (2, 5)}


def test_construct_random_host_no_clique(k3):
    tri_free = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    with pytest.raises(StructureAbsentError):
        construct_random_host_saturator(tri_free, k3, 3)


def test_stability_profile_k3(k3):
    prof = stability_profile(k3, 7)
    assert (prof.d_F, prof.k) == (-1, 3)
    phis = [phi for _, phi in prof.phi_table]
    assert all(a >= b for a, b in zip(phis, phis[1:]))


def test_stability_profile_k13(k13):
    prof = stability_profile(k13, 6)
    assert (prof.d_F, prof.k) == (3, 3)
    assert prof.phi_table[0] == (3, 3)  # host K_3 is F-free, forced full


def test_stability_profile_k4(k4):
    prof = stability_profile(k4, 6)
    assert (prof.d_F, prof.k) == (-3, 4)


def test_stability_profile_rejects_nmax_below_s_minus_one(k4):
    with pytest.raises(ParameterError, match="n_max must be at least s-1 = 3"):
        stability_profile(k4, 2)


def test_stability_profile_stops_at_budget():
    # K5 is free of K_{2,4}, so n = 5 is solved; K6 needs more than 5 nodes
    prof = stability_profile(normalize_pattern(complete_bipartite(2, 4)), 7,
                             SearchBudget(max_nodes=5))
    assert prof.complete_scan is False and prof.phi_table == [(5, 5)]


@pytest.mark.parametrize("g", [complete(3), complete(5), star(4), cycle(5), matching(2),
                               complete_bipartite(2, 4)],
                         ids=["K3", "K5", "K14", "C5", "2K2", "K24"])
def test_stability_profile_first_point_needs_no_budget(g):
    # K_{s-1} is F-free, so its point is solved before the budget is read
    f = normalize_pattern(g)
    prof = stability_profile(f, f.s - 1, SearchBudget(max_nodes=1, max_seconds=1e-9))
    assert prof.complete_scan and [n for n, _ in prof.phi_table] == [f.s - 1]
