"""Spans around calls into wsat's layers, and the per-layer numbers made from them.

A layer is one module of ``src/wsat``.  Every public function defined in a
layer is swapped for a wrapper at *every* module that binds it by name
(``wsat.solver.closure``, ``wsat.cli.wsat_exact``, ...), because patching only
the defining module misses the calls made through those names.  ``Graph``
construction is traced through ``Graph.__init__``.

Spans are kept in memory as parallel arrays (function, parent span, job,
start, end) and written out once the traced pass is over.

Untraced passes time only ``closure`` calls (``latency_probe``) and sample the
host's speed (``SpeedClock``), so that their times can be reported at a fixed
nominal speed.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import statistics
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from time import perf_counter_ns

LAYERS = ("graph", "patterns", "bootstrap", "solver", "formulas", "experiments", "cli")

# A function's row before any call: calls, self and inclusive nanoseconds, and
# calls nested under a closure / exact-solve span.
_EMPTY_ROW = {"calls": 0, "self_ns": 0, "incl_ns": 0, "in_closure": 0, "in_exact": 0}

# Counts read off a traced call's return value.
OUTCOMES = {
    "patterns.copy_through_edge": lambda r: {"hits": r is not None},
    "patterns.contains_copy": lambda r: {"hits": bool(r)},
    "bootstrap.closure": lambda r: {"percolates": r.percolates},
    "solver.wsat_exact": lambda r: {"subsets": r.nodes, "budget_exceeded": r.budget_exceeded},
    "solver.greedy_upper_bound": lambda r: {"deletions": len(r.certificate[1])},
    "experiments.run_experiment": lambda r: {"trials": len(r.records)},
}


def patch(wsat, wrap):
    """Replace each public layer function ``fn`` named ``layer.name`` by
    ``wrap(layer.name, fn)`` wherever a wsat module binds it, and
    ``Graph.__init__`` by ``wrap("graph.Graph", ...)``.  ``wrap`` returns None
    to leave a function alone.  Returns a function that undoes the patch."""
    sites = [wsat] + [getattr(wsat, layer) for layer in LAYERS]
    undo = []
    for layer in LAYERS:
        mod = getattr(wsat, layer)
        for name, fn in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            new = wrap(f"{layer}.{name}", fn)
            if new is None:
                continue
            for site in sites:
                for attr, value in list(vars(site).items()):
                    if value is fn:
                        setattr(site, attr, new)
                        undo.append((site, attr, fn))
    graph_cls = wsat.graph.Graph
    init = graph_cls.__init__
    new = wrap("graph.Graph", init)
    if new is not None:
        graph_cls.__init__ = new
        undo.append((graph_cls, "__init__", init))

    def restore():
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)

    return restore


class SpeedClock:
    """The host's speed, sampled while a pass runs.

    The benchmark shares a host whose speed drifts by tens of percent over
    seconds to minutes, and every kind of pure-Python work slows with it.
    ``sample`` times ``probe``, a fixed job that does not use ``wsat``;
    ``tick`` does so when ``INTERVAL_NS`` have passed since the last sample
    (the benchmark ticks between jobs and before each ``closure`` call).  The
    host's speed at a sample is the probe's time on an idle host over the
    median probe time of the ``WINDOW`` samples around it, and ``nominal``
    scales a measured time by it.  ``spent_ns`` is the time spent probing,
    which the caller takes out of the job that contains it.
    """

    INTERVAL_NS = 100_000_000
    WINDOW = 5

    def __init__(self, probe, nominal_ns: int):
        self.probe = probe
        self.nominal_ns = nominal_ns
        self.at: list[int] = []  # when each sample ended
        self.took: list[int] = []  # its probe time
        self.spent_ns = 0
        self.next_ns = 0
        self._speed: list[float] = []

    def tick(self) -> None:
        if perf_counter_ns() >= self.next_ns:
            self.sample()

    def sample(self) -> None:
        now = perf_counter_ns()
        self.probe()
        end = perf_counter_ns()
        self.at.append(end)
        self.took.append(end - now)
        self.spent_ns += end - now
        self.next_ns = end + self.INTERVAL_NS

    def nominal(self, start_ns: int, end_ns: int, ns: float) -> float:
        """``ns`` of work done between ``start_ns`` and ``end_ns``, at nominal
        speed: scaled by the mean speed of the samples taken in that span,
        or of the samples next to it when none was."""
        if len(self._speed) != len(self.took):
            half = self.WINDOW // 2
            self._speed = [
                self.nominal_ns / statistics.median(self.took[max(0, i - half): i + half + 1])
                for i in range(len(self.took))
            ]
        lo, hi = bisect_left(self.at, start_ns), bisect_right(self.at, end_ns)
        if lo == hi:  # no sample inside: take the ones just before and after
            lo, hi = max(0, lo - 1), hi + 1
        return ns * statistics.fmean(self._speed[lo:hi])


def latency_probe(wsat, sink: list, clock: SpeedClock):
    """Time every call of ``bootstrap.closure``, wherever it is called from,
    appending its start and end nanoseconds to ``sink`` (an ``array``); let
    ``clock`` sample before each call.  Returns the undo function."""

    def wrap(name, fn):
        if name != "bootstrap.closure":
            return None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            clock.tick()
            t = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append(t)
                sink.append(perf_counter_ns())

        return timed

    return patch(wsat, wrap)


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.job_id = 0

    def install(self, wsat):
        return patch(wsat, self.wrap)

    def wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        outcome = OUTCOMES.get(name)
        fids, parents, jobs = self.fid, self.parent, self.job
        starts, ends, stack, counters = self.start, self.end, self.stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job_id)
            ends.append(0)
            stack.append(i)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                stack.pop()
            if outcome is not None:
                for key, n in outcome(result).items():
                    counters[name, key] += n
            return result

        return traced

    def write(self, path, pass_no: int, first: bool) -> None:
        """Write this pass's spans to a gzip'd TSV file, starting it afresh
        for the first traced pass and appending after that."""
        names = self.names
        with gzip.open(path, "wt" if first else "at", compresslevel=1, encoding="utf-8") as fh:
            if first:
                fh.write("pass\tspan\tparent\tjob\tname\tstart_ns\tend_ns\n")
            fh.writelines(
                f"{pass_no}\t{i}\t{p}\t{j}\t{names[f]}\t{s}\t{e}\n"
                for i, (f, p, j, s, e) in enumerate(
                    zip(self.fid, self.parent, self.job, self.start, self.end)
                )
            )

    def functions(self) -> dict[str, dict]:
        """Per traced function: calls, self and inclusive seconds, outcome
        counts, and the calls nested under a closure / exact-solve span."""
        n = len(self.start)
        fid, parent = self.fid, self.parent
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        ids = {name: i for i, name in enumerate(self.names)}
        closure_id = ids.get("bootstrap.closure", -1)
        exact_id = ids.get("solver.wsat_exact", -1)
        in_closure = bytearray(n)
        in_exact = bytearray(n)
        for i in range(n):
            p = parent[i]
            if p >= 0:
                in_closure[i] = fid[p] == closure_id or in_closure[p]
                in_exact[i] = fid[p] == exact_id or in_exact[p]
        table = {name: dict(_EMPTY_ROW) for name in self.names}
        names = self.names
        for i in range(n):
            row = table[names[fid[i]]]
            row["calls"] += 1
            row["self_ns"] += dur[i] - child[i]
            row["incl_ns"] += dur[i]
            row["in_closure"] += in_closure[i]
            row["in_exact"] += in_exact[i]
        for (name, key), count in self.counters.items():
            table[name][key] = count
        return table

    @property
    def spans(self) -> int:
        return len(self.start)


def layer_metrics(table: dict[str, dict], wall_s: float) -> dict[str, float]:
    """Flatten one traced pass into ``<module>.<function>.<stat>`` numbers,
    ``<module>.self_s`` per layer, and ``trace.coverage``."""
    out: dict[str, float] = {}

    def row(name):
        return table.get(name, _EMPTY_ROW)

    def ratio(a, b):
        return a / b if b else 0.0

    for name, r in sorted(table.items()):
        out[f"{name}.calls"] = r["calls"]
        out[f"{name}.self_s"] = r["self_ns"] / 1e9
    ce = row("patterns.copy_through_edge")
    out["patterns.copy_through_edge.calls_per_s"] = ratio(ce["calls"], ce["incl_ns"] / 1e9)
    out["patterns.copy_through_edge.hit_ratio"] = ratio(ce.get("hits", 0), ce["calls"])
    cc = row("patterns.contains_copy")
    out["patterns.contains_copy.hit_ratio"] = ratio(cc.get("hits", 0), cc["calls"])
    cl = row("bootstrap.closure")
    out["bootstrap.closure.edges_tried_per_call"] = ratio(ce["in_closure"], cl["calls"])
    out["bootstrap.closure.percolate_ratio"] = ratio(cl.get("percolates", 0), cl["calls"])
    ex = row("solver.wsat_exact")
    subsets = ex.get("subsets", 0)
    out["solver.wsat_exact.subsets"] = subsets
    out["solver.wsat_exact.subsets_per_s"] = ratio(subsets, ex["incl_ns"] / 1e9)
    out["solver.wsat_exact.closures_per_call"] = ratio(cl["in_exact"], ex["calls"])
    out["solver.wsat_exact.closures_per_subset"] = ratio(cl["in_exact"], subsets)
    out["solver.wsat_exact.budget_exceeded"] = ex.get("budget_exceeded", 0)
    out["solver.greedy_upper_bound.deletions"] = row("solver.greedy_upper_bound").get("deletions", 0)
    out["experiments.run_experiment.trials"] = row("experiments.run_experiment").get("trials", 0)
    self_ns = 0
    for layer in LAYERS:
        ns = sum(r["self_ns"] for name, r in table.items() if name.startswith(layer + "."))
        out[f"{layer}.self_s"] = ns / 1e9
        self_ns += ns
    out["trace.coverage"] = ratio(self_ns / 1e9, wall_s)
    return out
