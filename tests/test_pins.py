"""Byte pins for outputs that must not change when their code is refactored.

Each digest was recorded from the implementation these tests were written
against.  A mismatch means an experiment report, a construction or a CLI
payload changed its bytes; a deliberate change re-baselines the pin and says
why.
"""

import hashlib
import json
import random
from math import comb

import pytest

from wsat import (
    ExperimentConfig,
    Graph,
    Seed,
    WsatError,
    complete,
    complete_bipartite,
    construct_random_host_saturator,
    cycle,
    encode_edge_list,
    greedy_upper_bound,
    closure,
    matching,
    normalize_pattern,
    path,
    run_experiment,
    sample_gnp,
)
from wsat.cli import main

K3 = normalize_pattern(complete(3))
C4 = normalize_pattern(cycle(4))

EXPERIMENT_PINS = {
    ("sandwich", "K3"): (
        "e05fb8c2039f83e39d31e3b9e5da75a5a5f2c7799b282104fdfc3e9c4ed1d0cb",
        "3aba8ae2e4ffdb361213c91678d68e1bcfbdb9a88fdc36bea8c367eb31f02d38",
    ),
    ("sandwich", "C4"): (
        "a6cfa59daefc4f6e6e9deff8d5b7a7791ca94c457943ffac262f61ff533f6cd1",
        "26047ff1527919b0b7d733b4f3d4362cbd9a04274c8c64b36e7984428820d6dd",
    ),
    ("scan", "K3"): (
        "38e3d329f9faa98f7bfe541cdb7b7cd64a6deb2eca52e1251d7ba9c8f558a631",
        "d811e8db66cfdd6a08814e3e94f4489a8361b62e91d21fb43c050d990abd9281",
    ),
    ("scan", "C4"): (
        "08125503ef067348458068f42f063a589f812c2d4393c827da99ae5bd77ff938",
        "38432063427969e20e9512edfe81e1b0609976a939d1147826d30287696c8770",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("mode,name", sorted(EXPERIMENT_PINS))
def test_experiment_report_bytes_pinned(mode, name):
    f = {"K3": K3, "C4": C4}[name]
    rep = run_experiment(
        ExperimentConfig(f, 6, [0.3, 0.6, 0.9], trials=4, master_seed=7, mode=mode))
    assert (_sha(rep.to_json()), _sha(rep.to_csv())) == EXPERIMENT_PINS[mode, name]


def _outcome(build) -> str:
    """The construction's edge list, or the error it raised (both are pinned)."""
    try:
        return encode_edge_list(build())
    except WsatError as exc:
        return f"{type(exc).__name__}: {exc}\n"


# (n, p, sampling seed) of each G(n,p) host; sparse ones make the
# constructions fail, and the failure message is part of the pin.  Re-recorded
# when the clique-partition construction was deleted: the digest is that of
# the same random-host outputs with the partition lines left out.
HOSTS = [(8, 0.5, 1), (9, 0.7, 2), (10, 0.8, 3), (12, 0.6, 4), (12, 0.9, 5)]


def test_random_host_constructions_pinned():
    out = []
    for n, p, s in HOSTS:
        g = sample_gnp(n, p, Seed(s))
        for f in (K3, C4):
            for m in (2, 3):
                out.append(_outcome(
                    lambda: construct_random_host_saturator(g, f, m, Seed(s))))
    assert _sha("".join(out)) == (
        "259aeaab68ef898fe5f70abdc394561e255d57ec3955382a90d0b93ede57bf2f")


def test_random_host_constructions_other_clique_sizes_pinned():
    # m = 0 takes the empty clique, m = 1 the lowest vertex, and m = 4 the
    # lexicographically first 4-clique; their failures are pinned too
    out = []
    for n, p, s in HOSTS:
        g = sample_gnp(n, p, Seed(s))
        for f in (K3, C4):
            for m in (0, 1, 4):
                out.append(_outcome(
                    lambda: construct_random_host_saturator(g, f, m, Seed(s))))
    assert _sha("".join(out)) == (
        "8d6a175ca752a548f6a5b4505342e51036073f1103e9cb6f02b7ff9c48cc8d51")


# (n, p, sampling seed) of each G(n,p) host handed to greedy, which is run
# with two seeds per host; the pin covers the result, its certificate edges
# and every (edge, witness) step of its trace
GREEDY_HOSTS = [(10, 0.6, 1), (12, 0.5, 2), (14, 0.5, 3), (16, 0.4, 4)]
GREEDY_PINS = {
    "K3": (complete(3),
           "8eb66cb5e34b9beca66ecb93ee9b34aec34170d36f04e74caae834373820b3af"),
    "C4": (cycle(4),
           "26f4e06f9b0b5eab6a72b4275c9ea6bf7729d3048a1663cd5beb16de4bf6a337"),
    "K23": (complete_bipartite(2, 3),
            "5af8ce3244343d9d9f56acb50689437079e3ceceaabe44258d95e915050f8b11"),
    "2K2": (matching(2),
            "6e280670a8a64c889e6dadc83cf3ceb3f09ec1ce42045337f0e092fc8f109034"),
    # recorded while greedy still pinned all 2t oriented pattern edges; P4 has
    # three anchored searches per edge where K4 has one
    "K4": (complete(4),
           "91153bceed4aefbdf6df76f19114a2b6fdba5ae39670f2f9f8d4a99be1753965"),
    "P4": (path(4),
           "1b5407cdbbf21c04bbd8653dd290b2da03d525a88ddf4270b74a2ad20f6c9301"),
}


@pytest.mark.parametrize("name", sorted(GREEDY_PINS))
def test_greedy_certificates_pinned(name):
    pattern, digest = GREEDY_PINS[name]
    f = normalize_pattern(pattern)
    out = []
    for n, p, s in GREEDY_HOSTS:
        g = sample_gnp(n, p, Seed(s))
        for r in (0, 1):
            res = greedy_upper_bound(g, f, Seed(s, r))
            out.append(json.dumps(res.as_dict(), sort_keys=True)
                       + res.certificate[1].to_json())
    assert _sha("\n".join(out)) == digest


# CLI runs that finish far inside their budgets, so their bytes do not depend
# on host speed.  ``closure`` and ``verify`` print activation-trace witnesses,
# which are a first-found choice and deliberately left unpinned.  The three
# ``solve`` pins were re-recorded when the search began at the rigidity rank
# bound: only ``nodes`` moved (K6/K3 1366 -> 1, K6/C4 4369 -> 3004, the
# G(7,0.6) solve 1297 -> 10).  K6/C4 was re-recorded again when the even-cycle
# matroid joined that bound: only ``nodes`` moved, 3004 -> 1.
CLI_PINS = {
    "solve-K6-K3": (
        ["solve", "--host", "complete:6", "--pattern", "complete:3"],
        "a44510494536e0c708f1f8e137a5df9d1c0e423287067aafb60859d6cacfe9fd"),
    "solve-K6-C4": (
        ["solve", "--host", "complete:6", "--pattern", "cycle:4"],
        "8781f0a3e9080d930eaf6e7f8c05cf739ab2c8780feae1ee84a5329a2e78b770"),
    "solve-gnp-greedy": (
        ["solve", "--host", "gnp:7,0.6", "--pattern", "complete:3", "--seed", "3",
         "--greedy-repeats", "3"],
        "a66951a8c2ebc4b08d53c33bf6cfe3b8d2c541d2a66328981375c0f0fc156408"),
    "profile-K3": (
        ["profile", "--pattern", "complete:3", "--nmax", "6"],
        "f4d53440d8e51d2197305b875545ba73280daf1cadddf52e3fe5b2ca5d927aec"),
    # payload shapes without their own pin above, recorded before the JSON
    # keys were derived from the result fields: a budget-exceeded solve (no
    # certificate keys), an F-free host (empty trace) and a cut-short profile.
    # solve-budget was re-recorded when ``nodes`` became the subsets examined:
    # only ``nodes`` moved, 6 -> 5.
    "solve-budget": (
        ["solve", "--host", "complete:6", "--pattern", "cbip:2,4", "--budget-nodes", "5"],
        "68d5363be670b8129a32fe5aae2e2ab202561fafe27dc9cd3b8830fa37d65483"),
    "solve-F-free": (
        ["solve", "--host", "path:5", "--pattern", "complete:3"],
        "72667d590f62ffe1f1571b063f0f1a4f11d34ccac3480fa53af0058d86cd9275"),
    "profile-cut-short": (
        ["profile", "--pattern", "cbip:2,4", "--nmax", "7", "--budget-nodes", "5"],
        "5a1fc2e977212ea9c3d228630809bdbd1a869bb818d4c28b83acadbfb336665d"),
    "count-gnp-K4": (
        ["count", "--host", "gnp:25,0.5", "--pattern", "complete:4", "--seed", "7"],
        "93ab97ffb95229af8bb8c6f0985ab74416b52a4fa80b5850fda3febc16dfd810"),
    "neighborhood-gnp30-K4": (
        ["experiment", "neighborhood", "--pattern", "complete:4", "--host", "gnp:30,0.5",
         "--k", "2", "--p", "0.5"],
        "ea711d7cbe7de4e70b00fe2aa52d70d804021ad618c3794cb26047cb38132054"),
    "neighborhood-gnp40-K5": (
        ["experiment", "neighborhood", "--pattern", "complete:5", "--host", "gnp:40,0.7",
         "--k", "2", "--p", "0.5"],
        "cd0e9f2375d558102a4c93e9636cbf449918b936ad981063ecfc2a9399095efa"),
}


@pytest.mark.parametrize("name", sorted(CLI_PINS))
def test_cli_json_pinned(capsys, name):
    argv, digest = CLI_PINS[name]
    assert main(argv + ["--json"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and _sha(out) == digest


# One G(30, 0.5) host with a seed graph of 0.15 edge density, sampled from the
# host's edges.  The greedy traces above come from hosts of at most 16
# vertices; here a vertex has ~15 neighbours, so the matcher's candidate pools
# are large.
# K4 stalls after 11 steps, C4 percolates in 150.
LARGE_HOST_TRACE_PINS = {
    "K4": (complete(4),
           "ef834ec533910254a7e73fa0f920ee1f17e1ba8351684be15924eee1103c7977"),
    "C4": (cycle(4),
           "7cf6d1278c91d3124e37ed39bcf9a123e54cdabfa56d8b720494b7626312e427"),
}


@pytest.mark.parametrize("name", sorted(LARGE_HOST_TRACE_PINS))
def test_large_host_closure_trace_pinned(name):
    pattern, digest = LARGE_HOST_TRACE_PINS[name]
    host = sample_gnp(30, 0.5, Seed(30))
    seed = Graph(30, random.Random(30).sample(sorted(host.edge_set),
                                              round(0.15 * comb(30, 2))))
    trace = closure(host, normalize_pattern(pattern), seed).trace
    assert _sha(trace.to_json()) == digest
