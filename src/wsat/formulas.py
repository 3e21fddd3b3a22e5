"""Closed-form wsat values and bounds, explicit saturator constructions, and
the stability profile phi(n) = wsat(n,F) - (delta-1)n.

Every construction verifies its output with the bootstrap engine before
returning; an unverified graph is never handed back.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .bootstrap import is_weakly_saturated, saturation_failure
from .errors import (
    ConstructionError,
    InternalError,
    ParameterError,
    RangeError,
    StructureAbsentError,
)
from .graph import Graph, Seed, common_neighbors, complete
from .patterns import Pattern, _plan, _search
from .solver import SearchBudget, greedy_upper_bound, wsat_exact


@dataclass(frozen=True)
class FormulaQuery:
    """A closed-form lookup: family in {ks, ktt, kst, k2t, k1t} plus parameters."""

    family: str
    n: int
    s: int | None = None
    t: int | None = None


# the parameters each family takes; a query must give exactly these
_PARAMETERS = {"ks": ("s",), "ktt": ("t",), "kst": ("s", "t"), "k2t": ("t",), "k1t": ("t",)}


def closed_form_wsat(q: FormulaQuery) -> int | tuple[int, int]:
    """Evaluate the known closed forms.

    ks:  wsat(n, K_s) = (s-2)n - C(s-1,2)            for n >= s >= 2
    ktt: wsat(n, K_{t,t}) = (t-1)n - C(t-1,2)        for n >= 3t-3
    kst: (s-1)(n-t+1)+C(t,2) <= wsat(n, K_{s,t}) <= (s-1)(n-s)+C(t,2)
         for t > s (bounds only, large n; we require n >= s+t)
    k2t: wsat(n, K_{2,t}) = n-1+C(t,2) if t even and n <= 2t-2, else n-2+C(t,2)
         for t >= 3 and n >= t+2
    k1t: wsat(n, K_{1,t}) = C(t,2)                   for n >= t+1
    """
    fam, n, s, t = q.family, q.n, q.s, q.t
    if fam not in _PARAMETERS:
        raise ParameterError(f"unknown formula family {fam!r}")
    for name, value in (("s", s), ("t", t)):
        if value is None and name in _PARAMETERS[fam]:
            raise ParameterError(f"formula query missing parameter {name!r}")
        if value is not None and name not in _PARAMETERS[fam]:
            raise ParameterError(f"{fam} takes no parameter {name!r}")
    if fam == "ks":
        if s < 2:
            raise RangeError("ks requires s >= 2")
        if n < s:
            raise RangeError(f"ks requires n >= s (got n={n} < s={s})")
        return (s - 2) * n - comb(s - 1, 2)
    if fam == "ktt":
        if t < 1:
            raise RangeError("ktt requires t >= 1")
        if n < 3 * t - 3:
            raise RangeError(f"ktt requires n >= 3t-3 (got n={n} < {3*t-3})")
        return (t - 1) * n - comb(t - 1, 2)
    if fam == "kst":
        if not t > s >= 1:
            raise RangeError("kst requires t > s >= 1")
        if n < s + t:
            raise RangeError(f"kst requires n >= s+t (got n={n} < {s+t})")
        return ((s - 1) * (n - t + 1) + comb(t, 2), (s - 1) * (n - s) + comb(t, 2))
    if fam == "k2t":
        if t < 3:
            raise RangeError("k2t requires t >= 3")
        if n < t + 2:
            raise RangeError(f"k2t requires n >= t+2 (got n={n} < {t+2})")
        if t % 2 == 0 and n <= 2 * t - 2:
            return n - 1 + comb(t, 2)
        return n - 2 + comb(t, 2)
    # k1t
    if t < 1:
        raise RangeError("k1t requires t >= 1")
    if n < t + 1:
        raise RangeError(f"k1t requires n >= t+1 (got n={n} < {t+1})")
    return comb(t, 2)


def generic_upper_bounds(
    n: int, f: Pattern, m: int | None = None, wsat_m: int | None = None
) -> int:
    """Upper bound (delta-1)(n-m) + wsat_m on wsat(n, F), for n >= m >= s-1.

    Without (m, wsat_m) it takes m = s-1: K_{s-1} is F-free, so wsat_m =
    C(s-1, 2) and the bound is (delta-1)n + (s-1)(s-2*delta)/2.
    """
    s, d = f.s, f.delta
    if (m is None) != (wsat_m is None):
        raise ParameterError("m and wsat_m must be given together")
    if m is None:
        m, wsat_m = s - 1, comb(s - 1, 2)
    if not n >= m >= s - 1:
        raise RangeError(f"need n >= m >= s-1 (n={n}, m={m}, s={s})")
    return (d - 1) * (n - m) + wsat_m


# -- constructions -----------------------------------------------------------


def construct_complete_host_saturator(
    n: int, f: Pattern, m: int, core: Graph | Seed
) -> Graph:
    """Core-plus-fringe saturator for the complete host K_n.

    Places a verified weakly (K_m, F)-saturated core on vertices 0..m-1, then
    joins every outside vertex to the delta-1 lowest-labeled core vertices.
    |E(H)| = (delta-1)(n-m) + |E(core)|.  The result is verified weakly
    (K_n, F)-saturated before being returned.  A Seed ``core`` is greedy's
    core on K_m under it, built once n and m are known to be in range.

    For F = K_s with m = s-2 and core = K_{s-2} this is the classical join
    construction attaining (s-2)n - C(s-1,2).
    """
    d = f.delta
    if isinstance(core, Graph) and core.n != m:
        raise ParameterError(f"core has {core.n} vertices, expected m={m}")
    if not n >= m >= max(d - 1, 1):
        raise RangeError(f"need n >= m >= delta-1 (n={n}, m={m}, delta={d})")
    if isinstance(core, Seed):
        core = greedy_upper_bound(complete(m), f, core).certificate[0]
    if not is_weakly_saturated(complete(m), f, core):
        raise ConstructionError("core is not weakly (K_m, F)-saturated")
    edges = set(core.edge_set)
    for v in range(m, n):
        for u in range(d - 1):
            edges.add((u, v))
    return _verified(complete(n), f, Graph(n, edges), "constructed graph")


def _verified(host: Graph, f: Pattern, h: Graph, what: str) -> Graph:
    """h itself when it is weakly (host, F)-saturated; otherwise raise with
    :func:`saturation_failure`'s reason as the diagnostic."""
    diagnostic = saturation_failure(host, f, h)
    if diagnostic is not None:
        raise ConstructionError(f"{what} failed verification", diagnostic=diagnostic)
    return h


def construct_random_host_saturator(
    g: Graph, f: Pattern, m: int, seed: Seed | int = 0
) -> Graph:
    """Clique-anchored saturator for an arbitrary host.

    Takes the lexicographically first m-clique Omega, builds a greedy weakly
    (G[Omega], F)-saturated core, joins every common neighbor of Omega to its
    delta-1 lowest-labeled clique vertices, and gives every remaining vertex
    delta-1 edges into the common neighborhood of itself and Omega (ascending
    label order).  The result is verified; failure raises with the first
    unreachable edge, which is an expected outcome on sparse hosts.
    """
    d = f.delta
    # K_m's matching order is 0..m-1 and candidates ascend, so the first map
    # of K_m is the lexicographically first m-clique; an m-clique needs m
    # vertices of degree m-1, and building K_m's plan costs O(m^3)
    omega = None
    if sum(len(a) >= m - 1 for a in g.adj) >= m:
        km = Graph(m, combinations(range(m), 2))
        omega = next(map(tuple, _search(_plan(km, ()), g)), None)
    if omega is None:
        raise StructureAbsentError(f"host contains no clique of size {m}")
    omega_set = set(omega)
    sub, labels = g.induced(omega)
    core, _ = greedy_upper_bound(sub, f, seed).certificate
    edges = {(labels[u], labels[v]) for u, v in core.edge_set}
    common = common_neighbors(g, omega)
    if d - 1 > m:
        raise StructureAbsentError(f"clique size {m} cannot host delta-1 = {d-1} "
                                   "edges per vertex")
    for v in common:
        for u in omega[: d - 1]:
            edges.add((min(u, v), max(u, v)))
    far = [v for v in range(g.n) if v not in omega_set and v not in common]
    common_set = set(common)
    for v in far:
        targets = sorted(u for u in g.adj[v] if u in common_set)
        if len(targets) < d - 1:
            raise StructureAbsentError(f"vertex {v} has only {len(targets)} neighbors "
                                       f"in N(Omega), needs {d-1}")
        for u in targets[: d - 1]:
            edges.add((min(u, v), max(u, v)))
    return _verified(g, f, Graph(g.n, edges), "clique-anchored construction")


# -- stability profile -------------------------------------------------------


@dataclass
class StabilityProfile:
    """phi(n) = wsat(n,F) - (delta-1)n scanned up to n_max.

    d_F is the last scanned value and k the first n attaining it; both are
    desk-scale estimates (constancy beyond n_max is not certified).  For
    delta >= 2 the point n = s-1 is excluded from k-detection: the host
    K_{s-1} is F-free, so wsat there is the degenerate forced value C(s-1,2).
    """

    delta: int
    d_F: int
    k: int
    phi_table: list[tuple[int, int]]
    complete_scan: bool = True
    note: str = "desk-scale estimate"


def stability_profile(
    f: Pattern, n_max: int, budget: SearchBudget | None = None
) -> StabilityProfile:
    s, d = f.s, f.delta
    n_min = s - 1
    if n_max < n_min:
        raise ParameterError(f"n_max must be at least s-1 = {n_min}")
    table: list[tuple[int, int]] = []
    complete_scan = True
    # K_{s-1} is F-free, so wsat_exact solves it before reading the budget: table is nonempty
    for n in range(n_min, n_max + 1):
        res = wsat_exact(complete(n), f, budget)
        if res.exact is None:
            complete_scan = False
            break
        table.append((n, res.exact - (d - 1) * n))
    for (_, a), (_, b) in zip(table, table[1:]):
        if b > a:
            raise InternalError(f"phi increased from {a} to {b}; engine bug")
    d_F = table[-1][1]
    floor = n_min if d == 1 else s
    k = next((n for n, phi in table if phi == d_F and n >= floor), table[-1][0])
    return StabilityProfile(
        delta=d, d_F=d_F, k=k, phi_table=table, complete_scan=complete_scan
    )
