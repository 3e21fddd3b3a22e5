import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wsat
from wsat import ParameterError, Seed, complete, encode_edge_list, path, sample_gnp, star
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


def test_parse_graph_arg_file_with_colon(tmp_path, capsys):
    # an existing file is read as a file even when its name looks like family:params
    spec = tmp_path / "tri:angle.txt"
    spec.write_text(encode_edge_list(path(3)))
    assert parse_graph_arg(str(spec)) == path(3)
    code, out, _ = run(capsys, "count", "--host", str(spec), "--pattern", "path:3", "--json")
    assert code == 0 and json.loads(out)["copies"] == 1
    # a missing one is still shorthand, with the shorthand's error
    with pytest.raises(ParameterError, match="expected a number, got 'missing.txt'"):
        parse_graph_arg(str(tmp_path / "tri:missing.txt"))


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

    # an unfinished search reports greedy's upper bound when it is smaller
    code, out, _ = run(capsys, "solve", "--host", "gnp:8,0.7", "--pattern", "complete:4",
                       "--budget-nodes", "1", "--greedy-repeats", "2", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["budget_exceeded"] is True and doc["exact"] is None
    assert sample_gnp(8, 0.7, Seed(0)).m_edges == 16
    assert doc["upper"] == doc["greedy_upper"] == 15


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

    # a witness off the host fails verification; it is not a usage error
    trace_file.write_text('[{"edge": [1, 2], "witness": [0, 1, 7]}]')
    code, out, _ = run(capsys, "verify", "--host", "complete:4",
                       "--pattern", "complete:3", "--seed", str(seed_file),
                       "--trace", str(trace_file), "--json")
    assert code == 0 and json.loads(out) == {
        "valid": False, "first_failure": 0,
        "reason": "witness at step 0 is not a copy of F through (1, 2)"}


def test_construct_command(capsys):
    code, out, _ = run(capsys, "construct", "complete",
                       "--pattern", "complete:3", "--n", "7", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["edges"] == 6 and doc["verified"]

    code, out, _ = run(capsys, "construct", "random",
                       "--pattern", "complete:3", "--host", "complete:8",
                       "--m", "2", "--json")
    assert code == 0 and json.loads(out)["edges"] == 7

    # --seed also samples a gnp: core; with seed 3 G(4, 0.6) is a spanning tree
    code, out, _ = run(capsys, "construct", "complete", "--pattern", "complete:3",
                       "--n", "6", "--m", "4", "--core", "gnp:4,0.6", "--seed", "3", "--json")
    assert code == 0 and json.loads(out)["edges"] == 5


def test_construct_structure_absent_exits_1(capsys):
    code, _, err = run(capsys, "construct", "random",
                       "--pattern", "complete:3", "--host", "path:6",
                       "--m", "3")
    assert code == 1 and "error" in err


@pytest.mark.parametrize("argv,error", [
    (["random", "--host", "complete:5", "--pattern", "complete:3", "--m", "900"],
     "error: host contains no clique of size 900\n"),
    (["complete", "--pattern", "complete:3", "--n", "5", "--m", "300"],
     "error: need n >= m >= delta-1 (n=5, m=300, delta=2)\n"),
])
def test_construct_with_m_out_of_reach_fails_fast(argv, error):
    # the clique size is checked against the host's degrees before K_m's
    # O(m^3) matching order is built, and n >= m before greedy's core on K_m;
    # either piece of work takes far longer than the timeout at these m
    script = "import sys; from wsat.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(wsat.__file__))}
    out = subprocess.run([sys.executable, "-c", script, "construct", *argv], env=env,
                         capture_output=True, text=True, timeout=5)
    assert (out.returncode, out.stdout, out.stderr) == (1, "", error)


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


def test_profile_nmax_below_s_minus_one_is_a_usage_error(capsys):
    code, out, err = run(capsys, "profile", "--pattern", "complete:4", "--nmax", "2")
    assert code == 2 and out == "" and "n_max must be at least s-1" in err


def test_experiment_command_and_csv(capsys, tmp_path):
    csv_path = tmp_path / "report.csv"
    argv = ["experiment", "scan", "--pattern", "complete:3",
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
    code, out, _ = run(capsys, "experiment", "neighborhood",
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


NEIGHBORHOOD = ["experiment", "neighborhood", "--pattern", "complete:3",
                "--host", "complete:8", "--k", "2", "--p", "0.5"]
SCAN = ["experiment", "scan", "--pattern", "complete:3", "--n", "5"]
VERIFY = ["verify", "--host", "complete:4", "--pattern", "complete:3",
          "--seed", "{dir}/seed.el", "--trace", "{dir}/trace.json"]


# (argv, trace file text, whether argparse rejects argv as naming a flag its
# (sub)command does not take); otherwise the handler returns 2
@pytest.mark.parametrize("argv,trace,unknown_flag", [
    (["solve", "--host", "complete:x", "--pattern", "complete:3"], "", False),
    (["count", "--host", "gnp:5,x", "--pattern", "complete:3"], "", False),
    (["solve", "--host", "complete:4", "--pattern", "complete:3",
      "--budget-nodes", "0"], "", False),
    (SCAN + ["--pgrid", "0.3,x"], "", False),
    (["experiment", "sandwich", "--pattern", "complete:3", "--n", "0"], "", False),
    (["construct", "random", "--pattern", "complete:3",
      "--host", "complete:17", "--m", "-1"], "", False),
    (["construct", "random", "--pattern", "complete:3",
      "--host", "gnp:8,0.5", "--m", "-1"], "", False),
    (["construct", "complete", "--pattern", "complete:3", "--n", "7", "--m", "-1"], "", False),
    (["construct", "complete", "--pattern", "complete:3", "--n", "7", "--m", "0"], "", False),
    (NEIGHBORHOOD + ["--cap", "0"], "", False),
    (["solve", "--host", "complete:4", "--pattern", "complete:3",
      "--budget-seconds", "nan"], "", False),
    (["solve", "--host", "complete:4", "--pattern", "complete:3",
      "--greedy-repeats", "-3"], "", False),
    (["formula", "--family", "ks", "--n", "5", "--s", "3", "--t", "9"], "", False),
    (VERIFY, "not json", False),
    (VERIFY, '[{"edg": [0, 1]}]', False),
    (VERIFY, '{"edge": 1}', False),
    (VERIFY, '[{"edge": [0, 1], "witness": ["a", "b", "c"]}]', False),
    (VERIFY, '[{"edge": [0, 2.5], "witness": [0, 1, 2]}]', False),
    (VERIFY, '[{"edge": [true, 2], "witness": [0, 1, 2]}]', False),
    (["solve", "--host", "complete:4", "--pattern", "complete:3",
      "--out", "{dir}/missing/x.json"], "", False),
    (["count", "--host", "complete:4", "--pattern", "complete:3", "--out", "{dir}"], "", False),
    (SCAN + ["--trials", "2", "--out", "{dir}"], "", False),
    (["experiment", "stability", "--pattern", "cbip:2,4", "--n", "6",
      "--budget-nodes", "5"], "", False),
    # flags that the chosen mode or method does not take
    (NEIGHBORHOOD + ["--n", "6"], "", True),
    (NEIGHBORHOOD + ["--pgrid", "0.5"], "", True),
    (NEIGHBORHOOD + ["--trials", "10"], "", True),
    (NEIGHBORHOOD + ["--budget-nodes", "5"], "", True),
    (NEIGHBORHOOD + ["--budget-seconds", "1"], "", True),
    (SCAN + ["--trials", "1", "--cap", "5"], "", True),
    (SCAN + ["--host", "complete:8"], "", True),
    (SCAN + ["--trials", "1", "--budget-nodes", "5", "--budget-seconds", "0.001"], "", True),
    (["experiment", "stability", "--pattern", "complete:3", "--n", "5", "--k", "2"], "", True),
    (["experiment", "sandwich", "--pattern", "complete:3", "--n", "5", "--p", "0.5"], "", True),
    (["construct", "complete", "--pattern", "complete:3", "--n", "7",
      "--host", "nonsense:1"], "", True),
    (["construct", "random", "--pattern", "complete:3",
      "--host", "complete:8", "--m", "2", "--n", "8"], "", True),
    (["construct", "random", "--pattern", "complete:3",
      "--host", "complete:8", "--m", "2", "--core", "complete:2"], "", True),
    # the mode and method are subcommands, not flags
    (["experiment", "--mode", "scan", "--pattern", "complete:3", "--n", "5"], "", True),
    (["construct", "--method", "complete", "--pattern", "complete:3", "--n", "7"], "", True),
], ids=["bad-int", "bad-float", "zero-budget", "bad-pgrid", "experiment-n-zero",
        "negative-clique", "negative-clique-gnp", "negative-core", "empty-core",
        "cap-zero", "nan-budget", "negative-greedy-repeats", "formula-unused-t",
        "trace-not-json", "trace-missing-edge", "trace-not-list",
        "trace-str-witness", "trace-float-edge", "trace-bool-edge",
        "out-missing-dir", "out-is-dir-count", "out-is-dir-experiment",
        "stability-budget-below-complete-host",
        "neighborhood-n", "neighborhood-pgrid", "neighborhood-trials",
        "neighborhood-budget-nodes", "neighborhood-budget-seconds", "scan-cap",
        "scan-host", "scan-budget-nodes", "stability-k", "sandwich-p",
        "complete-host", "random-n", "random-core", "mode-flag", "method-flag"])
def test_malformed_input_exits_2(capsys, tmp_path, argv, trace, unknown_flag):
    (tmp_path / "seed.el").write_text("4 3\n0 1\n0 2\n0 3\n")
    (tmp_path / "trace.json").write_text(trace)
    argv = [a.format(dir=tmp_path) for a in argv]
    if unknown_flag:
        with pytest.raises(SystemExit) as info:
            main(argv)
        code, (out, err) = info.value.code, capsys.readouterr()
        assert "unrecognized arguments" in err
    else:
        code, out, err = run(capsys, *argv)
        assert err.startswith("error:")
        if argv[0] == "construct":
            assert "--m" in err
    assert code == 2 and out == ""


def test_construct_core_of_wrong_size_exits_2(capsys):
    code, out, err = run(capsys, "construct", "complete", "--pattern", "complete:3",
                         "--n", "7", "--m", "2", "--core", "empty:3")
    assert code == 2 and out == ""
    assert err == "error: core has 3 vertices, expected m=2\n"


def test_construct_partition_method_removed(capsys):
    with pytest.raises(SystemExit) as info:
        main(["construct", "partition", "--pattern", "complete:3", "--host", "complete:6"])
    assert info.value.code == 2
    assert "invalid choice: 'partition'" in capsys.readouterr().err


# -- exit-contract fuzzing ---------------------------------------------------

BAD = ["x", "-1", "0", "nan"]
GRAPHS = ["complete:4", "complete:6", "gnp:6,0.5", "cycle:5", "path:6", "empty:6",
          "cbip:2,3", "complete:x", "complete:0", "gnp:6,nan", "gnp:6", "nope:3",
          "{dir}/ok.el", "{dir}/bad.el", "{dir}/short.el", "{dir}/junk.el",
          "{dir}/missing.el"]
PATTERNS = ["complete:3", "complete:4", "cycle:4", "star:3", "matching:2",
            "cbip:2,3", "empty:3", "path:1", "x", "{dir}/ok.el", "{dir}/bad.el"]
INTS = BAD + ["1", "2", "5", "6"]
FLAG_VALUES = {
    "--host": GRAPHS, "--seed-graph": GRAPHS, "--core": GRAPHS,
    "--pattern": PATTERNS,
    "--trace": ["{dir}/trace.json", "{dir}/empty.json", "{dir}/bad-trace.json",
                "{dir}/not-list.json", "{dir}/junk.el", "{dir}/missing.json"],
    "--out": ["{dir}/out.txt", "{dir}/missing/out.txt", "{dir}"],
    "--seed": INTS, "--rng-seed": INTS, "--budget-nodes": INTS + ["1000"],
    "--budget-seconds": BAD + ["2"], "--greedy-repeats": BAD + ["2"],
    "--family": ["ks", "ktt", "kst", "k2t", "k1t", "x"],
    "--n": INTS, "--s": INTS, "--t": INTS, "--m": INTS, "--k": INTS,
    "--nmax": INTS, "--trials": BAD + ["2"], "--cap": BAD + ["10"],
    "--pgrid": ["0.5", "0.2,0.9", "0.9,0.2", "0.3,x", "nan", "-1", "2"],
    "--p": BAD + ["0.5"],
}
EXPERIMENT = ["--pgrid", "--trials", "--seed"]
BUDGET = ["--budget-nodes", "--budget-seconds"]
# each (sub)command's (required, optional) flags; "--seed-graph" is the graph
# given to --seed
SUBCOMMANDS = {
    "closure": (["--host", "--pattern", "--seed-graph"], ["--rng-seed"]),
    "verify": (["--host", "--pattern", "--seed-graph", "--trace"], ["--rng-seed"]),
    "solve": (["--host", "--pattern"], ["--seed", "--greedy-repeats"] + BUDGET),
    "formula": (["--family", "--n"], ["--s", "--t"]),
    "construct complete": (["--pattern", "--n"], ["--m", "--core", "--seed"]),
    "construct random": (["--pattern", "--host", "--m"], ["--seed"]),
    "profile": (["--pattern", "--nmax"], BUDGET),
    "experiment stability": (["--pattern", "--n"], EXPERIMENT + BUDGET),
    "experiment sandwich": (["--pattern", "--n"], EXPERIMENT + BUDGET),
    "experiment scan": (["--pattern", "--n"], EXPERIMENT),
    "experiment neighborhood": (["--pattern", "--host", "--k", "--p"], ["--cap", "--seed"]),
    "count": (["--host", "--pattern"], ["--seed"]),
}
FILES = {
    "ok.el": "6 4\n0 1\n1 2\n2 0\n3 4\n",
    "bad.el": "3 1\n0 0\n",
    "short.el": "4 2\n0 1\n",
    "trace.json": '[{"edge": [0, 3], "witness": [0, 1, 3]}]',
    "empty.json": "[]",
    "bad-trace.json": '[{"edge": [0, 9], "witness": [0, 1, -2]}]',
    "not-list.json": '{"edge": [0, 1]}',
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (d / name).write_text(text)
    (d / "junk.el").write_bytes(b"\xff\xfe 3 1\n")
    return d


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    required, optional = SUBCOMMANDS[command]
    flags = required + draw(st.lists(st.sampled_from(optional + ["--out"]), unique=True))
    argv = command.split()
    for flag in flags:
        argv += [flag.replace("--seed-graph", "--seed"),
                 draw(st.sampled_from(FLAG_VALUES[flag]))]
    if "--budget-seconds" in optional and "--budget-seconds" not in flags:
        argv += ["--budget-seconds", "2"]  # a time limit wherever one is read
    return argv + draw(st.sampled_from([[], ["--json"]]))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


# a run of each experiment mode, construct method, profile and formula that
# gets past its argument checks and exits 0, one formula out of range (1), and
# a --p outside [0,1] (2); each names the exit code it must get
@example(argv=["experiment", "stability", "--pattern", "complete:3", "--n", "5",
               "--trials", "2", "--budget-seconds", "2"], exit_code=0)
@example(argv=["experiment", "sandwich", "--pattern", "cycle:4", "--n", "5",
               "--pgrid", "0.2,0.9", "--trials", "2", "--budget-seconds", "2"], exit_code=0)
@example(argv=["experiment", "scan", "--pattern", "complete:3", "--n", "6", "--trials", "2",
               "--out", "{dir}/out.txt"], exit_code=0)
@example(argv=["experiment", "neighborhood", "--pattern", "complete:3",
               "--host", "complete:6", "--k", "2", "--p", "0.5", "--json"], exit_code=0)
@example(argv=["experiment", "neighborhood", "--pattern", "complete:3",
               "--host", "complete:5", "--k", "2", "--p", "nan", "--json"], exit_code=2)
@example(argv=["construct", "complete", "--pattern", "complete:3", "--n", "6"], exit_code=0)
@example(argv=["construct", "random", "--pattern", "complete:3", "--host", "complete:6",
               "--m", "2", "--seed", "1"], exit_code=0)
@example(argv=["profile", "--pattern", "complete:3", "--nmax", "5", "--budget-seconds", "2"],
         exit_code=0)
@example(argv=["formula", "--family", "k2t", "--n", "6", "--t", "3"], exit_code=0)
@example(argv=["formula", "--family", "ks", "--n", "2", "--s", "3"], exit_code=1)
@settings(max_examples=200, deadline=None)
@given(argv=argvs(), exit_code=st.none())
def test_cli_exit_contract(fuzz_dir, argv, exit_code):
    # 0 success, 1 domain error, 2 usage error (argparse exits with 0 or 2);
    # any other exception is a traceback the contract forbids.  Whatever
    # reaches stdout is strict JSON, with no NaN or Infinity.
    argv = [a.format(dir=fuzz_dir) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code in (0, 2), argv
    assert code in (0, 1, 2), argv
    assert exit_code in (None, code), argv
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=_reject_constant)
