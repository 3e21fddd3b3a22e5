"""The benchmark's workloads: inputs made from a seed, the timed jobs, and the
output checks.

Each workload is a closed loop with one caller: a job starts when the previous
one has returned.  ``prepare`` builds one pass's inputs (the benchmark draws
host and seed graphs from its own RNG; the library receives only the finished
graphs), ``run`` issues the jobs through ``call``, which times each one, and
``check`` returns the problems found in one finished job.  Every check
compares against closed forms, a committed table or the independent oracles
in ``reference.py``, never against the code under test alone.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
from dataclasses import dataclass, field
from math import comb

import reference as ref

# An explicit search budget that the seed commit never reaches, so a budget
# hit shows up as a failed job instead of silently shortening the work.  The
# largest solve at the seed commit enumerates 26,335 subsets.
BUDGET_NODES = 10**6
BUDGET_SECONDS = 40.0


@dataclass
class Case:
    """One job's input; ``units`` is how many checked results it yields."""

    kind: str
    data: tuple
    units: int = 1


@dataclass
class Job:
    case: Case
    output: object = None
    error: Exception | None = None
    seconds: float = 0.0  # its time, less any speed probes run inside it
    span_ns: tuple = (0, 0)  # when it started and ended
    problems: list = field(default_factory=list)


def run_cli(cli, argv):
    """``wsat.cli.main(argv)`` with stdout captured: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
    return rc, buf.getvalue()


@functools.cache
def _reference_pattern(name: str, s: int, edges: frozenset) -> ref.Pattern:
    if not ref.isomorphic(s, edges, ref.PATTERN_EDGES[name][1]):
        raise ValueError(f"pattern built for {name} is not {name}")
    return ref.Pattern(s, edges)


def reference_pattern(name: str, f) -> ref.Pattern:
    """The library's pattern ``f`` as a reference pattern, after checking that
    it is the graph ``name`` up to relabeling."""
    return _reference_pattern(name, f.s, frozenset(f.graph.edge_set))


def _gnm(rng, n: int, p: float, pool=None) -> list[tuple[int, int]]:
    """A uniform random graph on n vertices with exactly round(p * C(n,2))
    edges, drawn from ``pool`` (all pairs by default).  A fixed edge count
    keeps the work per input from swinging with a binomial draw."""
    if pool is None:
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return sorted(rng.sample(pool, round(p * comb(n, 2))))


# -- exact_complete ------------------------------------------------------------


class ExactComplete:
    """The hardest single solves users run, through ``wsat.cli.main --json``.

    Every host is a distinct K_n, so memoization has nothing to reuse here,
    while Aut(K_n) is large and the lower bound starts low.  The seed only
    shuffles the job order.
    """

    name = "exact_complete"
    # (host, pattern, pattern name, wsat(K_n, F) written out from its closed
    # form, the closed-form query that gives it)
    SOLVES = {
        False: [
            ("complete:7", "complete:3", "K3", 6, ("ks", 7, 3, None)),  # (s-2)n - C(s-1,2)
            ("complete:6", "cycle:4", "C4", 6, ("ktt", 6, None, 2)),  # C4 = K_{2,2}: (t-1)n - C(t-1,2)
            ("complete:6", "cbip:2,3", "K23", 7, ("k2t", 6, None, 3)),  # t odd: n-2+C(t,2)
        ],
        True: [
            ("complete:5", "complete:3", "K3", 4, ("ks", 5, 3, None)),
            ("complete:5", "cycle:4", "C4", 5, ("ktt", 5, None, 2)),
            ("complete:5", "cbip:2,3", "K23", 6, ("k2t", 5, None, 3)),
        ],
    }
    PROFILE = {False: ("complete:4", 6), True: ("complete:3", 4)}
    BUDGET = ["--budget-nodes", str(BUDGET_NODES), "--budget-seconds", str(BUDGET_SECONDS)]

    def prepare(self, wsat, rng, tiny):
        cases = []
        for host_spec, pat_spec, pat_name, expected, query in self.SOLVES[tiny]:
            argv = ["solve", "--host", host_spec, "--pattern", pat_spec, "--json", *self.BUDGET]
            host = wsat.cli.parse_graph_arg(host_spec)
            f = wsat.cli.parse_pattern_arg(pat_spec)
            cases.append(Case("solve", (argv, host, f, pat_name, expected, query)))
        pat_spec, nmax = self.PROFILE[tiny]
        argv = ["profile", "--pattern", pat_spec, "--nmax", str(nmax), "--json", *self.BUDGET]
        cases.append(Case("profile", (argv, wsat.cli.parse_pattern_arg(pat_spec), nmax)))
        rng.shuffle(cases)
        return cases

    def run(self, wsat, cases, call):
        for case in cases:
            call(case, run_cli, wsat.cli, case.data[0])

    def check(self, wsat, job):
        rc, text = job.output
        if rc != 0:
            return [f"exit code {rc}"]
        payload = json.loads(text)
        if job.case.kind == "profile":
            return self._check_profile(job.case, payload)
        return self._check_solve(wsat, job.case, payload)

    @staticmethod
    def _check_profile(case, payload):
        _, f, nmax = case.data
        s = f.s
        phi = -comb(s - 1, 2)  # wsat(n, K_s) - (s-2)n for every n >= s-1
        want = {
            "delta": s - 1,
            "d_f": phi,
            "k": s,
            "phi_table": [[n, phi] for n in range(s - 1, nmax + 1)],
            "complete_scan": True,
        }
        return [f"{k}: {payload.get(k)!r} != {v!r}" for k, v in want.items() if payload.get(k) != v]

    @staticmethod
    def _check_solve(wsat, case, payload):
        _, host, f, pat_name, expected, (family, n, s, t) = case.data
        problems = []
        formula = wsat.formulas.closed_form_wsat(wsat.formulas.FormulaQuery(family, n, s, t))
        if formula != expected:
            problems.append(f"closed form {family} gives {formula}, table says {expected}")
        if payload.get("exact") != expected or payload.get("budget_exceeded"):
            problems.append(f"exact {payload.get('exact')} != {expected}")
        edges = [tuple(e) for e in payload.get("certificate_edges", [])]
        if len(edges) != expected:
            problems.append(f"certificate has {len(edges)} edges, expected {expected}")
        h = wsat.graph.Graph(host.n, edges)
        if not wsat.bootstrap.is_weakly_saturated(host, f, h):
            problems.append("certificate is not weakly saturated")
        trace = wsat.bootstrap.closure(host, f, h).trace
        if not wsat.bootstrap.verify_trace(host, f, h, trace):
            problems.append("closure trace of the certificate does not verify")
        if payload.get("certificate_trace_length") != host.m_edges - len(edges):
            problems.append("certificate trace length does not cover the missing edges")
        pat = reference_pattern(pat_name, f)
        host_edges = set(host.edge_set)
        if ref.has_copy(host.n, edges, pat) or ref.closure(host.n, host_edges, pat, edges) != host_edges:
            problems.append("reference: certificate is not weakly saturated")
        return problems


# -- stability_gnp -------------------------------------------------------------


@functools.cache
def _k3_table() -> dict[int, int]:
    return ref.load_table()


class StabilityGnp:
    """The paper's stability experiment, F = K3 on G(6, p).

    Many small hosts from sparse to dense, where the degree filter and the
    F-free filter prune at different rates; hosts repeat up to isomorphism,
    so memoization shows here.  ``sample_gnp`` and ``count_copies`` run on
    every trial.  n = 6 keeps the K_n base solve small.
    """

    name = "stability_gnp"
    N = 6
    P_GRID = (0.5, 0.7, 0.9)
    TRIALS = {False: 20, True: 2}  # per p
    WSAT_K6_K3 = 5  # (s-2)n - C(s-1,2) with s = 3, n = 6

    def prepare(self, wsat, rng, tiny):
        f = wsat.patterns.normalize_pattern(wsat.graph.complete(3))
        trials = self.TRIALS[tiny]
        cfg = wsat.experiments.ExperimentConfig(
            f=f, n=self.N, p_grid=list(self.P_GRID), trials=trials,
            master_seed=rng.getrandbits(32),
            budget=wsat.solver.SearchBudget(BUDGET_NODES, BUDGET_SECONDS),
        )
        # one unit per trial plus the complete-host base solve
        return [Case("stability", (cfg,), units=trials * len(self.P_GRID) + 1)]

    def run(self, wsat, cases, call):
        for case in cases:
            call(case, wsat.experiments.run_experiment, *case.data)

    def check(self, wsat, job):
        (cfg,) = job.case.data
        report = job.output
        problems = []
        if report.annotations.get("wsat_complete") != self.WSAT_K6_K3:
            problems.append(f"wsat(K6, K3) reported as {report.annotations.get('wsat_complete')}")
        table = _k3_table()
        records = {(r.p, r.trial): r for r in report.records}
        if len(records) != len(report.records):
            problems.append("duplicate trial records")
        for p_idx, p in enumerate(self.P_GRID):
            for trial in range(cfg.trials):
                r = records.get((p, trial))
                if r is None:
                    problems.append(f"p={p} trial={trial}: missing")
                    continue
                seed = ref.derive_seed(cfg.master_seed, p_idx, trial)
                edges = ref.gnp_edges(self.N, p, seed)
                want = table[ref.canon6(edges)]
                got = (r.seed, r.edges, r.x_f, r.wsat_exact, r.equal_to_complete, r.status)
                exp = (seed, len(edges), ref.count_triangles(self.N, edges), want,
                       want == self.WSAT_K6_K3, "ok")
                if got != exp or not r.wsat_lower <= r.wsat_exact <= r.wsat_upper:
                    problems.append(f"p={p} trial={trial}: {got} != {exp}")
        return problems


# -- large_hosts ---------------------------------------------------------------


class LargeHosts:
    """Closure, trace replay, copy counting and greedy on random hosts with
    n from 14 to 40 and F in {K3, K4, C4, K_{2,3}}.  Hosts and seed graphs
    are G(n, m) graphs with m = p * C(n,2): G(n, p) with its edge count fixed.

    No subset enumeration happens here, so search-side changes should leave
    it unchanged.  Large candidate pools stress the matcher (anchored in the
    closure, unanchored in ``count_copies``), long activation chains exercise
    closure wake-ups, and greedy's rescoring runs only here.
    """

    name = "large_hosts"
    PATTERNS = {"K3": ("complete", 3), "K4": ("complete", 4), "C4": ("cycle", 4),
                "K23": ("complete_bipartite", 2, 3)}
    HOST_P = 0.5
    SEED_DENSITY = (0.15, 0.3)  # edge density m / C(n,2) of a closure's seed graph
    SIZES = {
        False: {"closure_n": range(20, 41), "count_n": (30, 35, 40), "greedy_n": (14, 17, 20)},
        True: {"closure_n": (8,), "count_n": (9,), "greedy_n": (7,)},
    }
    GREEDY_P = 0.6

    def prepare(self, wsat, rng, tiny):
        size = self.SIZES[tiny]
        Graph = wsat.graph.Graph
        pats = {
            name: wsat.patterns.normalize_pattern(wsat.graph.build_named_graph(*spec))
            for name, spec in self.PATTERNS.items()
        }
        cases = []
        for name, f in pats.items():
            for n in size["closure_n"]:
                for q in self.SEED_DENSITY:
                    host = _gnm(rng, n, self.HOST_P)
                    seed = _gnm(rng, n, q, host)
                    cases.append(Case("closure", (name, f, Graph(n, host), Graph(n, seed))))
        for name in ("K4", "C4"):
            for n in size["count_n"]:
                cases.append(Case("count_copies", (name, pats[name], Graph(n, _gnm(rng, n, self.HOST_P)))))
        for n in size["greedy_n"]:
            host = Graph(n, _gnm(rng, n, self.GREEDY_P))
            cases.append(Case("greedy", ("K3", pats["K3"], host, rng.getrandbits(32))))
        return cases

    def run(self, wsat, cases, call):
        boot = wsat.bootstrap
        closures = [call(c, boot.closure, c.data[2], c.data[1], c.data[3])
                    for c in cases if c.kind == "closure"]
        for job in closures:
            if job.error is None:
                name, f, host, seed = job.case.data
                call(Case("verify_trace", (name, f, host, seed)),
                     boot.verify_trace, host, f, seed, job.output.trace)
        for c in cases:
            if c.kind == "count_copies":
                call(c, wsat.patterns.count_copies, c.data[2], c.data[1])
        for c in cases:
            if c.kind == "greedy":
                name, f, host, gseed = c.data
                job = call(c, wsat.solver.greedy_upper_bound, host, f, gseed)
                if job.error is None:
                    h = job.output.certificate[0]
                    call(Case("is_weakly_saturated", (name, f, host, h)),
                         boot.is_weakly_saturated, host, f, h)

    def check(self, wsat, job):
        kind, out = job.case.kind, job.output
        if kind in ("verify_trace", "is_weakly_saturated"):
            # the replayed trace / the certificate were checked independently
            # with the job that produced them
            return [] if out is True else [f"{kind} returned {out!r}"]
        if kind == "count_copies":
            name, _, host = job.case.data
            count = (ref.count_k4 if name == "K4" else ref.count_c4)(host.n, list(host.edge_set))
            return [] if out == count else [f"{name} copies {out} != {count}"]
        if kind == "closure":
            name, f, host, seed = job.case.data
            return self._check_closure(name, f, host, seed, out)
        name, f, host, _ = job.case.data
        return self._check_greedy(name, f, host, out)

    @staticmethod
    def _check_closure(name, f, host, seed, res):
        pat = reference_pattern(name, f)
        host_e, seed_e = set(host.edge_set), set(seed.edge_set)
        closed = set(res.closure.edge_set)
        # a valid trace from the seed that ends in a graph with no addable
        # edge left reaches the unique closure
        steps = [(e, w.mapping) for e, w in res.trace.steps]
        try:
            reached = ref.replay(host.n, host_e, pat, seed_e, steps)
        except ValueError as exc:
            return [f"trace: {exc}"]
        problems = []
        if reached != closed:
            problems.append("trace does not end at the reported closure")
        extra = ref.addable_edge(host.n, host_e, pat, closed)
        if extra is not None:
            problems.append(f"edge {extra} can still be added")
        if res.percolates != (closed == host_e):
            problems.append(f"percolates={res.percolates} is wrong")
        return problems

    @staticmethod
    def _check_greedy(name, f, host, res):
        pat = reference_pattern(name, f)
        h, trace = res.certificate
        problems = []
        if res.upper != h.m_edges or res.lower > res.upper:
            problems.append(f"bounds lower={res.lower} upper={res.upper} for {h.m_edges} edges")
        if ref.has_copy(host.n, list(h.edge_set), pat):
            problems.append("certificate contains a copy of F")
        steps = [(e, w.mapping) for e, w in trace.steps]
        try:
            if ref.replay(host.n, host.edge_set, pat, h.edge_set, steps) != set(host.edge_set):
                problems.append("certificate trace does not reach the host")
        except ValueError as exc:
            problems.append(f"trace: {exc}")
        return problems


WORKLOADS = {w.name: w for w in (ExactComplete(), StabilityGnp(), LargeHosts())}
