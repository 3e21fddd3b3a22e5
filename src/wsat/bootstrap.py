"""F-bootstrap percolation: closure inside a host, weak-saturation check,
and independent trace verification.

The closure of a seed is the unique maximal spanning subgraph of the host
reachable by repeatedly adding a host edge that completes a new copy of the
pattern through itself.  Addability is monotone under edge addition, so the
result is independent of processing order; the engine exploits that with a
work queue instead of full rescans.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from collections import deque

from .errors import ParameterError, PreconditionError
from .graph import Edge, Graph
from .patterns import CopyWitness, Pattern, contains_copy, copy_through_edge


@dataclass
class ActivationTrace:
    """Ordered (edge, witness) steps certifying a saturation process."""

    steps: list[tuple[Edge, CopyWitness]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    def to_json(self) -> str:
        return json.dumps(
            [
                {"edge": list(e), "witness": list(w.mapping)}
                for e, w in self.steps
            ]
        )

    @classmethod
    def from_json(cls, text: str) -> "ActivationTrace":
        """Parse the :meth:`to_json` form; anything else is a ParameterError."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ParameterError(f"trace is not JSON: {exc}") from None
        if not isinstance(data, list) or not all(
            isinstance(d, dict) and _ints(d.get("edge"), 2) and _ints(d.get("witness"))
            for d in data
        ):
            raise ParameterError('trace must be a list of {"edge": [u, v], '
                                 '"witness": [...]} objects with integer entries')
        return cls([(tuple(d["edge"]), CopyWitness(tuple(d["witness"]))) for d in data])


def _ints(xs, length: int | None = None) -> bool:
    """A JSON list of ints; bools and floats are rejected, not converted."""
    return (isinstance(xs, list) and length in (None, len(xs))
            and all(type(x) is int for x in xs))


@dataclass
class ClosureResult:
    host: Graph
    trace: ActivationTrace
    missing: frozenset[Edge]  # the host edges the closure does not reach

    @property
    def closure(self) -> Graph:
        return Graph(self.host.n, self.host.edge_set - self.missing)

    @property
    def percolates(self) -> bool:
        return not self.missing


class _Work:
    """Mutable adjacency view used internally during fixpoint computation."""

    __slots__ = ("n", "adj")

    def __init__(self, g: Graph):
        self.n = g.n
        self.adj = [set(s) for s in g.adj]

    def add(self, u: int, v: int) -> None:
        self.adj[u].add(v)
        self.adj[v].add(u)

    def remove(self, u: int, v: int) -> None:
        self.adj[u].discard(v)
        self.adj[v].discard(u)


def closure(host: Graph, f: Pattern, seed: Graph) -> ClosureResult:
    """Compute the F-closure of ``seed`` inside ``host`` with a full trace.

    Candidates that find no copy are set aside; every successful addition
    re-enqueues all of them, since the new edge may complete a copy through
    any of them.  The loop ends with the queue empty, so the set-aside edges
    are exactly ``missing``, the host edges the closure does not reach.

    For F = K_s, a re-enqueued edge xy goes back aside unsearched unless an
    edge added since xy last failed touched a common neighbour z of x and y.
    Sound: a new K_s through xy holds an edge added since, which has an end
    z other than x and y; z is in the K_s, so a common neighbour.  The queue
    order, and so the trace, is unchanged.
    """
    if not seed.is_spanning_subgraph_of(host):
        raise PreconditionError("seed must be a spanning subgraph of the host")
    work = _Work(seed)
    queue = deque((e, None) for e in sorted(host.edge_set - seed.edge_set))
    stalled: dict[Edge, int | None] = {}  # len(steps) at its last failure if F = K_s, else None
    steps: list[tuple[Edge, CopyWitness]] = []
    clique = 2 * f.t == f.s * (f.s - 1)
    touched = [0] * host.n  # len(steps) after the last added edge at v
    while queue:
        e, k = queue.popleft()
        x, y = e
        if k is not None and not any(touched[z] > k for z in work.adj[x] & work.adj[y]):
            stalled[e] = k
            continue
        work.add(x, y)
        w = copy_through_edge(work, f, e)
        if w is None:
            work.remove(x, y)
            stalled[e] = len(steps) if clique else None
            continue
        steps.append((e, w))
        touched[x] = touched[y] = len(steps)
        queue.extend(sorted(stalled.items()))
        stalled.clear()
    return ClosureResult(host, ActivationTrace(steps), frozenset(stalled))


def saturation_failure(host: Graph, f: Pattern, h: Graph) -> dict | None:
    """None when H is weakly (host, F)-saturated: F-free, with an F-closure
    that percolates.  Otherwise the reason: H contains a copy of F, or its
    closure stalls, naming the first host edge the closure misses."""
    if not h.is_spanning_subgraph_of(host):
        raise PreconditionError("H must be a spanning subgraph of the host")
    if contains_copy(h, f):
        return {"reason": "candidate contains a copy of the pattern"}
    missing = closure(host, f, h).missing
    if missing:
        return {"reason": "closure stalled", "first_unreachable_edge": min(missing)}
    return None


def is_weakly_saturated(host: Graph, f: Pattern, h: Graph) -> bool:
    """True iff H is F-free and its F-closure inside the host percolates."""
    return saturation_failure(host, f, h) is None


def verify_trace_detailed(
    host: Graph, f: Pattern, seed: Graph, trace: ActivationTrace
) -> tuple[bool, int | None, str]:
    """Replay a trace; on failure report (False, first bad step index, reason)."""
    if not seed.is_spanning_subgraph_of(host):
        return False, None, "seed is not a spanning subgraph of the host"
    work = _Work(seed)
    for i, (e, w) in enumerate(trace.steps):
        u, v = e
        edge = (u, v) if u < v else (v, u)
        if edge not in host.edge_set:
            return False, i, f"edge {edge} not in host"
        if v in work.adj[u]:
            return False, i, f"edge {edge} added twice (or already in seed)"
        work.add(*edge)
        if not w.validates(work, f, through=edge):
            return False, i, f"witness at step {i} is not a copy of F through {edge}"
    return True, None, "ok"


def verify_trace(host: Graph, f: Pattern, seed: Graph, trace: ActivationTrace) -> bool:
    ok, _, _ = verify_trace_detailed(host, f, seed, trace)
    return ok
