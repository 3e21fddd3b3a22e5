"""Seeded random-graph experiments at desk scale.

Probabilistic claims are never asserted as limits here; each experiment
records per-trial results under derived seeds so runs are bit-reproducible,
and aggregates are computed from the records.  Trial RNG streams derive
from (master seed, p-index, trial-index), so extending the p-grid does not
perturb existing trials.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields, asdict
from itertools import combinations
from math import comb, factorial

from .errors import InternalError, ParameterError
from .graph import (Graph, Seed, common_neighbors, complete, density_m, density_mu,
                    derive_seed, sample_gnp, seed_rng)
from .patterns import Pattern, _plan, _search, contains_copy, count_copies
from .solver import SearchBudget, WsatResult, wsat_exact


@dataclass
class ExperimentConfig:
    f: Pattern
    n: int
    p_grid: list[float]
    trials: int
    master_seed: int
    mode: str = "stability"
    budget: SearchBudget | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("n must be >= 1")
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if not self.p_grid:
            raise ParameterError("p_grid must be nonempty")
        if any(not 0.0 <= p <= 1.0 for p in self.p_grid):
            raise ParameterError("p-grid values must lie in [0,1]")
        if any(b >= a for a, b in zip(self.p_grid[1:], self.p_grid)):
            raise ParameterError("p-grid must be strictly increasing")


@dataclass
class TrialRecord:
    p: float
    trial: int
    seed: int
    edges: int
    x_f: int | None = None
    wsat_lower: int | None = None
    wsat_exact: int | None = None
    wsat_upper: int | None = None
    equal_to_complete: bool | None = None
    has_copy: bool | None = None
    status: str = "ok"


@dataclass
class ExperimentReport:
    mode: str
    n: int
    master_seed: int
    records: list[TrialRecord] = field(default_factory=list)
    annotations: dict = field(default_factory=dict)

    @property
    def aggregates(self) -> list[dict]:
        """Per-p aggregates of the trial records (order-independent)."""
        out: list[dict] = []
        by_p: dict[float, list[TrialRecord]] = {}
        for r in sorted(self.records, key=lambda r: (r.p, r.trial)):
            by_p.setdefault(r.p, []).append(r)
        for p, rows in by_p.items():
            ok = [r for r in rows if r.status == "ok"]
            agg = {
                "p": p,
                "trials": len(rows),
                "excluded": len(rows) - len(ok),
                "mean_edges": _mean([r.edges for r in ok]),
            }
            if any(r.x_f is not None for r in ok):
                agg["mean_x_f"] = _mean([r.x_f for r in ok if r.x_f is not None])
                agg["mean_xf_over_edges"] = _mean(
                    [r.x_f / r.edges for r in ok if r.x_f is not None and r.edges])
            for key, name in (("fraction_equal", "equal_to_complete"),
                              ("fraction_with_copy", "has_copy")):
                flags = [getattr(r, name) for r in ok if getattr(r, name) is not None]
                if flags:
                    agg[key] = _mean(flags)
            out.append(agg)
        return out

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "aggregates": self.aggregates}, sort_keys=True)

    CSV_FIELDS = [f.name for f in fields(TrialRecord)]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=self.CSV_FIELDS)
        w.writeheader()
        for r in sorted(self.records, key=lambda r: (r.p, r.trial)):
            w.writerow(asdict(r))
        return buf.getvalue()


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def expected_copies(n: int, p: float, f: Pattern) -> float:
    """E(X_F) in G(n,p): (s!/|Aut(F)|) * C(n,s) * p^t."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p must lie in [0,1]")
    return factorial(f.s) / f.aut * comb(n, f.s) * p**f.t


def neighborhood_property_check(
    g: Graph,
    f: Pattern,
    k: int,
    p: float,
    sample_cap: int = 10000,
    seed: Seed | int = 0,
) -> dict:
    """Over k-subsets of V(G) (all, or sample_cap seeded samples): the
    fraction with at least p^k n / 2 common neighbors, and for k = 2 the
    fraction whose common neighborhood contains a clique of size s-2: a map
    of K_s with 0 and 1 pinned on the pair, whose plan checks no edge between
    pinned vertices, so the pair need not be adjacent."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p must lie in [0,1]")
    if k < 1 or k > g.n:
        raise ParameterError("subset size out of range")
    if sample_cap < 1:
        raise ParameterError("sample cap must be at least 1")
    total = comb(g.n, k)
    if total <= sample_cap:
        subsets = list(combinations(range(g.n), k))
        sampled = False
    else:
        rng = seed_rng(seed)
        subsets = [tuple(sorted(rng.sample(range(g.n), k))) for _ in range(sample_cap)]
        sampled = True
    need = p**k * g.n / 2
    plan = _plan(complete(f.s), (0, 1))
    big = cliqued = 0
    for sub in subsets:
        common = common_neighbors(g, sub)
        if len(common) >= need:
            big += 1
        if k == 2 and next(_search(plan, g, [*sub] + [-1] * (f.s - 2)), None) is not None:
            cliqued += 1
    out = {
        "subsets_checked": len(subsets),
        "sampled": sampled,
        "common_neighbor_floor": need,
        "fraction_common_ge_floor": big / len(subsets),
    }
    if k == 2:
        out["fraction_common_contains_clique"] = cliqued / len(subsets)
        out["clique_size"] = f.s - 2
    return out


def _solve(cfg: ExperimentConfig, g: Graph, rec: TrialRecord) -> WsatResult:
    """Exact-solve a trial host, filling x_f, the wsat fields and the status."""
    res = wsat_exact(g, cfg.f, cfg.budget)
    rec.x_f = count_copies(g, cfg.f)
    rec.wsat_lower, rec.wsat_exact, rec.wsat_upper = res.lower, res.exact, res.upper
    if res.budget_exceeded:
        rec.status = "budget"
    return res


def _stability(cfg: ExperimentConfig, report: ExperimentReport):
    """Per trial: does wsat(G(n,p), F) equal wsat(K_n, F)?  Aggregates the
    equality fraction per p.  Budget-exceeded trials are recorded with status
    "budget" and excluded from aggregates (counted separately)."""
    base = wsat_exact(complete(cfg.n), cfg.f, cfg.budget)
    if base.exact is None:
        raise ParameterError("budget too small to solve the complete host")
    report.annotations["wsat_complete"] = base.exact

    def trial(g: Graph, rec: TrialRecord) -> None:
        res = _solve(cfg, g, rec)
        if not res.budget_exceeded:
            rec.equal_to_complete = res.exact == base.exact

    return trial


def _sandwich(cfg: ExperimentConfig, report: ExperimentReport):
    """Asserts |E(G)| - X_F(G) <= wsat(G,F) <= |E(G)| on every trial (a
    violation is an engine bug) and aggregates X_F/|E| per p."""
    mu = density_mu(cfg.f.graph)
    report.annotations["mu_F"] = str(mu)
    report.annotations["p_threshold_mu"] = cfg.n ** (-1 / float(mu))

    def trial(g: Graph, rec: TrialRecord) -> None:
        res = _solve(cfg, g, rec)
        if not res.budget_exceeded and not g.m_edges - rec.x_f <= res.exact <= g.m_edges:
            raise InternalError(
                f"sandwich violated at p={rec.p} trial={rec.trial}: "
                f"|E|={g.m_edges} X_F={rec.x_f} wsat={res.exact}"
            )

    return trial


def _scan(cfg: ExperimentConfig, report: ExperimentReport):
    """Fraction of trials in which G(n,p) contains a copy of F, per p,
    annotated with the n^{-1/m(F)} and n^{-1/mu(F)} markers."""
    m, mu = density_m(cfg.f.graph), density_mu(cfg.f.graph)
    report.annotations.update({
        "m_F": str(m),
        "mu_F": str(mu),
        "p_threshold_m": cfg.n ** (-1 / float(m)),
        "p_threshold_mu": cfg.n ** (-1 / float(mu)),
    })

    def trial(g: Graph, rec: TrialRecord) -> None:
        rec.has_copy = contains_copy(g, cfg.f)

    return trial


# each mode annotates the report and returns its per-trial function
_MODES = {"stability": _stability, "sandwich": _sandwich, "scan": _scan}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run cfg.mode ("stability", "sandwich" or "scan") on cfg.trials samples
    of G(n, p) for each p in the grid; the report aggregates its records per p."""
    if cfg.mode not in _MODES:
        raise ParameterError(f"unknown experiment mode {cfg.mode!r}")
    report = ExperimentReport(cfg.mode, cfg.n, cfg.master_seed)
    trial = _MODES[cfg.mode](cfg, report)
    for p_idx, p in enumerate(cfg.p_grid):
        for t in range(cfg.trials):
            s = derive_seed(cfg.master_seed, p_idx, t)
            g = sample_gnp(cfg.n, p, Seed(s))
            rec = TrialRecord(p=p, trial=t, seed=s, edges=g.m_edges)
            trial(g, rec)
            report.records.append(rec)
    return report
