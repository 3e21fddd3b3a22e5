import csv
import io
import json
import math
from itertools import combinations

import pytest

import wsat.graph
from wsat import (
    ExperimentConfig,
    ExperimentReport,
    Graph,
    ParameterError,
    SearchBudget,
    Seed,
    TrialRecord,
    complete,
    complete_bipartite,
    cycle,
    density_m,
    empty,
    expected_copies,
    neighborhood_property_check,
    normalize_pattern,
    run_experiment,
    sample_gnp,
)


def test_config_validation(k3):
    with pytest.raises(ParameterError):
        ExperimentConfig(k3, 6, [0.5], trials=0, master_seed=1)
    with pytest.raises(ParameterError):
        ExperimentConfig(k3, 6, [], trials=1, master_seed=1)
    with pytest.raises(ParameterError):
        ExperimentConfig(k3, 6, [0.2, 0.2], trials=1, master_seed=1)
    with pytest.raises(ParameterError):
        ExperimentConfig(k3, 6, [0.2, 1.5], trials=1, master_seed=1)
    with pytest.raises(ParameterError):
        run_experiment(ExperimentConfig(k3, 6, [0.5], 1, 1, mode="nope"))


def test_expected_copies_examples(k3, k13):
    assert expected_copies(10, 0.5, k3) == pytest.approx(15.0)
    assert expected_copies(4, 1.0, k3) == pytest.approx(4.0)  # all C(4,3) triangles
    assert expected_copies(5, 1.0, k13) == pytest.approx(20.0)
    assert expected_copies(10, 0.0, k3) == 0.0
    with pytest.raises(ParameterError):
        expected_copies(10, 1.5, k3)


def test_expected_copies_monte_carlo(k3):
    # 200 trials at n=10, p=0.3: sample mean within 5 relative standard
    # errors of E(X_F) = 120 * 0.027 = 3.24 (loose, seed-frozen anyway)
    from wsat import count_copies, derive_seed, sample_gnp

    exp = expected_copies(10, 0.3, k3)
    vals = [count_copies(sample_gnp(10, 0.3, Seed(derive_seed(42, 0, t))), k3)
            for t in range(200)]
    mean = sum(vals) / len(vals)
    sd = math.sqrt(sum((v - mean) ** 2 for v in vals) / (len(vals) - 1))
    assert abs(mean - exp) <= 5 * sd / math.sqrt(len(vals))


def test_stability_p_one_always_equal(k3):
    cfg = ExperimentConfig(k3, 6, [1.0], trials=5, master_seed=11)
    rep = run_experiment(cfg)
    assert rep.annotations["wsat_complete"] == 5
    assert rep.aggregates[0]["fraction_equal"] == 1.0
    assert all(r.status == "ok" for r in rep.records)


def test_stability_sparse_hosts_forced_full(k3):
    # at p = 0.01 and n = 6 the sampled hosts are triangle-free,
    # so wsat(G,F) = |E(G)| and X_F = 0
    cfg = ExperimentConfig(k3, 6, [0.01], trials=10, master_seed=13)
    rep = run_experiment(cfg)
    for r in rep.records:
        assert r.x_f == 0
        assert r.wsat_exact == r.edges


@pytest.mark.parametrize("mode", ["stability", "sandwich"])
def test_budget_trials_are_recorded_and_excluded(k3, mode):
    # a two-node budget solves one trial per p and runs out on the other two
    rep = run_experiment(ExperimentConfig(k3, 7, [0.5, 0.9], trials=3, master_seed=0,
                                          mode=mode, budget=SearchBudget(max_nodes=2)))
    assert [r.status for r in rep.records] == ["budget", "budget", "ok"] * 2
    for r in rep.records:
        if r.status == "budget":
            assert r.wsat_exact is None and r.equal_to_complete is None
    for agg in rep.aggregates:
        ok = [r for r in rep.records if r.p == agg["p"] and r.status == "ok"]
        assert (agg["trials"], agg["excluded"]) == (3, 2)
        assert agg["mean_edges"] == ok[0].edges and agg["mean_x_f"] == ok[0].x_f
    rows = list(csv.DictReader(io.StringIO(rep.to_csv())))
    assert [row["status"] for row in rows] == [r.status for r in rep.records]


def test_stability_budget_too_small_for_complete_host():
    k24 = normalize_pattern(complete_bipartite(2, 4))
    with pytest.raises(ParameterError, match="budget too small to solve the complete host"):
        run_experiment(ExperimentConfig(k24, 6, [0.5], trials=1, master_seed=0,
                                        budget=SearchBudget(max_nodes=5)))


def test_record_count_and_grid(k3):
    cfg = ExperimentConfig(k3, 6, [0.3, 0.6, 0.9], trials=4, master_seed=7)
    rep = run_experiment(cfg)
    assert len(rep.records) == 12
    assert sorted({r.p for r in rep.records}) == [0.3, 0.6, 0.9]
    assert [a["p"] for a in rep.aggregates] == [0.3, 0.6, 0.9]
    assert all(a["trials"] == 4 for a in rep.aggregates)


def test_sandwich_check_runs_and_ratio_grows(k3):
    cfg = ExperimentConfig(k3, 7, [0.2, 0.5, 0.9], trials=8, master_seed=3,
                           mode="sandwich")
    rep = run_experiment(cfg)
    ratios = [a["mean_xf_over_edges"] for a in rep.aggregates]
    assert ratios[0] <= ratios[-1]
    assert "p_threshold_mu" in rep.annotations


def test_scan_extremes_and_trend(k3):
    cfg = ExperimentConfig(k3, 8, [0.0, 0.3, 0.7, 1.0], trials=10,
                           master_seed=5, mode="scan")
    rep = run_experiment(cfg)
    fracs = [a["fraction_with_copy"] for a in rep.aggregates]
    assert fracs[0] == 0.0 and fracs[-1] == 1.0
    assert fracs == sorted(fracs)  # frozen seeds; trend holds here
    assert 0 < rep.annotations["p_threshold_m"] < 1


def test_report_bit_identical_and_recomputable(k3):
    cfg = ExperimentConfig(k3, 6, [0.4, 0.8], trials=6, master_seed=21)
    a = run_experiment(cfg).to_json()
    b = run_experiment(cfg).to_json()
    assert a == b
    doc = json.loads(a)
    rep = ExperimentReport(doc["mode"], doc["n"], doc["master_seed"],
                           [TrialRecord(**r) for r in doc["records"]])
    assert rep.aggregates == doc["aggregates"]
    assert all("elapsed" not in r for r in doc["records"])


def test_csv_schema(k3):
    cfg = ExperimentConfig(k3, 6, [0.5], trials=3, master_seed=2)
    text = run_experiment(cfg).to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(ExperimentReport.CSV_FIELDS)
    assert len(lines) == 4
    scan = run_experiment(ExperimentConfig(k3, 6, [0.2, 0.9], trials=3, master_seed=2,
                                           mode="scan"))
    rows = list(csv.DictReader(io.StringIO(scan.to_csv())))
    assert [row["has_copy"] for row in rows] == [str(r.has_copy) for r in scan.records]
    assert {row["has_copy"] for row in rows} == {"True", "False"}


@pytest.mark.parametrize("mode", ["stability", "sandwich", "scan"])
def test_json_record_keys_match_csv_header(k3, mode):
    rep = run_experiment(ExperimentConfig(k3, 5, [0.5], trials=2, master_seed=3, mode=mode))
    header = next(csv.reader(io.StringIO(rep.to_csv())))
    assert header == ExperimentReport.CSV_FIELDS
    assert all(sorted(r) == sorted(header) for r in json.loads(rep.to_json())["records"])


def test_scan_computes_density_once(monkeypatch):
    # m(F) takes one combinations() call per subset size 2..s, and mu(F)
    # needs m(F) again; each trial's G(n, p) sample takes one more call
    c10 = normalize_pattern(cycle(10))
    density_m.cache_clear()
    calls = []
    real = wsat.graph.combinations
    monkeypatch.setattr(wsat.graph, "combinations",
                        lambda *args: calls.append(args) or real(*args))
    run_experiment(ExperimentConfig(c10, 10, [0.5], trials=2, master_seed=1, mode="scan"))
    assert len(calls) == (10 - 1) + 2


def test_extending_p_grid_preserves_existing_trials(k3):
    short = run_experiment(ExperimentConfig(k3, 6, [0.5], 4, 9))
    long = run_experiment(ExperimentConfig(k3, 6, [0.5, 0.8], 4, 9))
    assert [r.seed for r in short.records] == [r.seed for r in long.records[:4]]


def test_neighborhood_check_complete_host(k4):
    out = neighborhood_property_check(complete(10), k4, k=2, p=0.5)
    assert out["subsets_checked"] == 45 and not out["sampled"]
    assert out["fraction_common_ge_floor"] == 1.0  # common nbhd has 8 >= 2.5
    assert out["fraction_common_contains_clique"] == 1.0
    assert out["clique_size"] == 2


def test_neighborhood_check_empty_host(k3):
    out = neighborhood_property_check(empty(8), k3, k=2, p=0.9)
    assert out["fraction_common_ge_floor"] == 0.0
    assert out["fraction_common_contains_clique"] == 0.0


# vertex 7 of the last host is isolated
NEIGHBORHOOD_HOSTS = [sample_gnp(n, p, Seed(s)) for n, p, s in
                      [(9, 0.5, 1), (10, 0.7, 2), (11, 0.85, 3)]] + [
    Graph(8, sample_gnp(7, 0.8, Seed(4)).edge_set)]


@pytest.mark.parametrize("s", [2, 3, 4, 5])
@pytest.mark.parametrize("host", range(len(NEIGHBORHOOD_HOSTS)))
def test_neighborhood_clique_fraction_brute_force(s, host):
    # for each pair, try every (s-2)-subset of the vertices adjacent to both
    g = NEIGHBORHOOD_HOSTS[host]
    pairs = list(combinations(range(g.n), 2))
    hits = 0
    for u, v in pairs:
        common = [w for w in range(g.n) if w in g.adj[u] and w in g.adj[v]]
        hits += any(all((a, b) in g.edge_set for a, b in combinations(c, 2))
                    for c in combinations(common, s - 2))
    out = neighborhood_property_check(g, normalize_pattern(complete(s)), k=2, p=0.5)
    assert out["subsets_checked"] == len(pairs)
    assert out["fraction_common_contains_clique"] == hits / len(pairs)


def test_neighborhood_check_sampling_deterministic(k3):
    from wsat import sample_gnp

    g = sample_gnp(30, 0.5, Seed(1))
    a = neighborhood_property_check(g, k3, k=3, p=0.5, sample_cap=100, seed=4)
    b = neighborhood_property_check(g, k3, k=3, p=0.5, sample_cap=100, seed=4)
    assert a == b and a["sampled"] and a["subsets_checked"] == 100
    with pytest.raises(ParameterError):
        neighborhood_property_check(g, k3, k=0, p=0.5)


@pytest.mark.parametrize("p", [math.nan, math.inf, -0.1, 1.5])
def test_neighborhood_check_rejects_p_outside_unit_interval(k3, p):
    with pytest.raises(ParameterError, match=r"p must lie in \[0,1\]"):
        neighborhood_property_check(complete(5), k3, k=2, p=p)
