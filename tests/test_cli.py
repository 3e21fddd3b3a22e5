import json

import pytest

from wsat import ParameterError, Seed, complete, encode_edge_list, sample_gnp, star
from wsat.cli import main, parse_graph_arg


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_parse_graph_arg_shorthand():
    assert parse_graph_arg("complete:4") == complete(4)
    assert parse_graph_arg("star:3") == star(3)
    g = parse_graph_arg("gnp:10,0.5", seed=3)
    assert g == parse_graph_arg("gnp:10,0.5", seed=3)
    with pytest.raises(ParameterError):
        parse_graph_arg("nope:3")
    with pytest.raises(ParameterError):
        parse_graph_arg("gnp:10")
    with pytest.raises(ParameterError):
        parse_graph_arg("/no/such/file.el")


def test_parse_graph_arg_file(tmp_path):
    path = tmp_path / "g.el"
    path.write_text(encode_edge_list(complete(4)))
    assert parse_graph_arg(str(path)) == complete(4)


def test_solve_command(capsys):
    code, out, err = run(capsys, "solve", "--host", "complete:4",
                         "--pattern", "complete:3")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] == 3
    assert "wsat" in err  # human summary present by default

    code, out, err = run(capsys, "solve", "--host", "complete:4",
                         "--pattern", "complete:3", "--json")
    assert code == 0 and err == ""


def test_solve_with_greedy_repeats(capsys):
    code, out, _ = run(capsys, "solve", "--host", "complete:5",
                       "--pattern", "complete:3", "--greedy-repeats", "5",
                       "--seed", "1", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["exact"] == 4 and doc["greedy_upper"] >= 4


def test_formula_command(capsys):
    code, out, _ = run(capsys, "formula", "--family", "k2t", "--n", "6",
                       "--t", "4", "--json")
    assert code == 0 and json.loads(out)["value"] == 11

    code, out, _ = run(capsys, "formula", "--family", "kst", "--n", "20",
                       "--s", "2", "--t", "4", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["lower"] == 23 and doc["upper"] == 24


def test_formula_out_of_range_exits_1(capsys):
    code, _, err = run(capsys, "formula", "--family", "ks", "--n", "2",
                       "--s", "3")
    assert code == 1 and "error" in err


def test_formula_missing_param_exits_2(capsys):
    code, _, _ = run(capsys, "formula", "--family", "ks", "--n", "5")
    assert code == 2


def test_closure_and_verify_commands(capsys, tmp_path):
    seed_file = tmp_path / "seed.el"
    seed_file.write_text("4 3\n0 1\n0 2\n0 3\n")  # star inside K_4
    code, out, _ = run(capsys, "closure", "--host", "complete:4",
                       "--pattern", "complete:3", "--seed", str(seed_file),
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["percolates"] and doc["added"] == 3

    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps(doc["trace"]))
    code, out, _ = run(capsys, "verify", "--host", "complete:4",
                       "--pattern", "complete:3", "--seed", str(seed_file),
                       "--trace", str(trace_file), "--json")
    assert code == 0 and json.loads(out)["valid"] is True

    # a truncated trace replays cleanly but is still a valid prefix
    trace_file.write_text(json.dumps(doc["trace"][:1]))
    code, out, _ = run(capsys, "verify", "--host", "complete:4",
                       "--pattern", "complete:3", "--seed", str(seed_file),
                       "--trace", str(trace_file), "--json")
    assert code == 0 and json.loads(out)["valid"] is True


def test_construct_command(capsys):
    code, out, _ = run(capsys, "construct", "--method", "complete",
                       "--pattern", "complete:3", "--n", "7", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["edges"] == 6 and doc["verified"]

    code, out, _ = run(capsys, "construct", "--method", "random",
                       "--pattern", "complete:3", "--host", "complete:8",
                       "--m", "2", "--json")
    assert code == 0 and json.loads(out)["edges"] == 7


def test_construct_structure_absent_exits_1(capsys):
    code, _, err = run(capsys, "construct", "--method", "random",
                       "--pattern", "complete:3", "--host", "path:6",
                       "--m", "3")
    assert code == 1 and "error" in err


def test_count_command(capsys):
    code, out, _ = run(capsys, "count", "--host", "complete:6",
                       "--pattern", "complete:3", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["copies"] == 20 and doc["aut"] == 6


def test_profile_command(capsys):
    code, out, _ = run(capsys, "profile", "--pattern", "complete:3",
                       "--nmax", "6", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["d_f"] == -1 and doc["k"] == 3


def test_experiment_command_and_csv(capsys, tmp_path):
    csv_path = tmp_path / "report.csv"
    argv = ["experiment", "--mode", "scan", "--pattern", "complete:3",
            "--n", "8", "--pgrid", "0.1,0.9", "--trials", "5",
            "--seed", "17", "--json", "--out", str(csv_path)]
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    code, out2, _ = run(capsys, *argv)
    assert out1 == out2  # byte-identical reruns
    doc = json.loads(out1)
    assert len(doc["records"]) == 10
    assert csv_path.read_text().startswith("p,trial,seed,edges")


def test_experiment_neighborhood_mode(capsys):
    code, out, _ = run(capsys, "experiment", "--mode", "neighborhood",
                       "--pattern", "complete:3", "--host", "complete:8",
                       "--k", "2", "--p", "0.5", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["fraction_common_ge_floor"] == 1.0


def test_malformed_graph_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.el"
    bad.write_text("3 1\n0 0\n")
    code, _, err = run(capsys, "solve", "--host", str(bad),
                       "--pattern", "complete:3")
    assert code == 2 and "error" in err


def test_seed_changes_gnp_host(capsys):
    outs = []
    for s in ("1", "2"):
        _, out, _ = run(capsys, "count", "--host", "gnp:12,0.5",
                        "--pattern", "complete:3", "--seed", s, "--json")
        outs.append(json.loads(out)["copies"])
    assert outs[0] != outs[1]


def test_rng_seed_picks_closure_and_verify_host(capsys, tmp_path):
    # with F = K2 every host edge joins the empty seed graph, so the trace
    # lists the edges of the sampled host
    closure = ["closure", "--host", "gnp:12,0.5", "--pattern", "complete:2",
               "--seed", "empty:12", "--json"]
    hosts = {}
    for extra in ([], ["--rng-seed", "0"], ["--rng-seed", "1"]):
        code, out, _ = run(capsys, *closure, *extra)
        trace = json.loads(out)["trace"]
        hosts[tuple(extra)] = sorted(tuple(step["edge"]) for step in trace)
        assert code == 0
    assert hosts[()] == hosts["--rng-seed", "0"] == sample_gnp(12, 0.5, Seed(0)).edges()
    assert hosts["--rng-seed", "1"] == sample_gnp(12, 0.5, Seed(1)).edges()
    assert hosts[()] != hosts["--rng-seed", "1"]

    # the seed-1 trace replays on the seed-1 host only
    (tmp_path / "trace.json").write_text(json.dumps(trace))
    for rng_seed, valid in (("1", True), ("0", False)):
        code, out, _ = run(capsys, "verify", *closure[1:7], "--rng-seed", rng_seed,
                           "--trace", str(tmp_path / "trace.json"), "--json")
        assert code == 0 and json.loads(out)["valid"] is valid


VERIFY = ["verify", "--host", "complete:4", "--pattern", "complete:3",
          "--seed", "{dir}/seed.el", "--trace", "{dir}/trace.json"]


@pytest.mark.parametrize("argv,trace", [
    (["solve", "--host", "complete:x", "--pattern", "complete:3"], ""),
    (["count", "--host", "gnp:5,x", "--pattern", "complete:3"], ""),
    (["solve", "--host", "complete:4", "--pattern", "complete:3",
      "--budget-nodes", "0"], ""),
    (["experiment", "--mode", "scan", "--pattern", "complete:3", "--n", "5",
      "--pgrid", "0.3,x"], ""),
    (["construct", "--method", "random", "--pattern", "complete:3",
      "--host", "complete:17", "--m", "-1"], ""),
    (["experiment", "--mode", "neighborhood", "--pattern", "complete:3",
      "--host", "complete:8", "--k", "2", "--p", "0.5", "--cap", "0"], ""),
    (["solve", "--host", "complete:4", "--pattern", "complete:3",
      "--budget-seconds", "nan"], ""),
    (VERIFY, "not json"),
    (VERIFY, '[{"edg": [0, 1]}]'),
    (VERIFY, '{"edge": 1}'),
    (VERIFY, '[{"edge": [0, 1], "witness": ["a", "b", "c"]}]'),
    (VERIFY, '[{"edge": [0, 2.5], "witness": [0, 1, 2]}]'),
    (VERIFY, '[{"edge": [true, 2], "witness": [0, 1, 2]}]'),
], ids=["bad-int", "bad-float", "zero-budget", "bad-pgrid", "negative-clique",
        "cap-zero", "nan-budget",
        "trace-not-json", "trace-missing-edge", "trace-not-list",
        "trace-str-witness", "trace-float-edge", "trace-bool-edge"])
def test_malformed_input_exits_2(capsys, tmp_path, argv, trace):
    (tmp_path / "seed.el").write_text("4 3\n0 1\n0 2\n0 3\n")
    (tmp_path / "trace.json").write_text(trace)
    code, _, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2 and err.startswith("error:")
