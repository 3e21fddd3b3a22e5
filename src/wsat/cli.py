"""Command-line front end.

Each job has its own parser, which takes exactly the flags its handler reads:
``wsat experiment {stability,sandwich,scan,neighborhood}`` and
``wsat construct {complete,random}`` are nested subcommands.

Graph arguments accept either a ``family:params`` shorthand (``complete:5``,
``cbip:2,3``, ``star:3``, ``path:4``, ``cycle:6``, ``empty:4``,
``matching:3``, ``gnp:20,0.5``) or a path to an edge-list file (first line
"n m", then "u v" lines, '#' comments); an existing file wins over shorthand.

Output: JSON payload on stdout (keys sorted), a one-line human summary on
stderr.  Exit codes: 0 success, 1 domain error (structure absent, failed
verification, out-of-range formula), 2 usage error (bad flags, a flag the
(sub)command does not take, unreadable input or unwritable ``--out`` files,
malformed graphs or traces).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict

from . import __version__
from .bootstrap import ActivationTrace, closure, verify_trace_detailed
from .errors import GraphParseError, ParameterError, WsatError
from .experiments import (
    ExperimentConfig,
    neighborhood_property_check,
    run_experiment,
)
from .formulas import (
    _PARAMETERS,
    FormulaQuery,
    closed_form_wsat,
    construct_complete_host_saturator,
    construct_random_host_saturator,
    stability_profile,
)
from .graph import (
    Graph,
    Seed,
    build_named_graph,
    decode_edge_list,
    encode_edge_list,
    sample_gnp,
)
from .patterns import Pattern, count_copies, normalize_pattern
from .solver import SearchBudget, greedy_upper_bound, wsat_exact

USAGE_ERRORS = (ParameterError, GraphParseError)


def parse_graph_arg(spec: str, seed: int = 0) -> Graph:
    """Edge-list file path or family:params shorthand; an existing file or a .el path wins."""
    if ":" in spec and not spec.endswith(".el") and not os.path.isfile(spec):
        tag, _, params = spec.partition(":")
        parts = [p for p in params.split(",") if p]
        if tag == "gnp":
            if len(parts) != 2:
                raise ParameterError("gnp takes two parameters: gnp:n,p")
            return sample_gnp(_number(int, parts[0]), _number(float, parts[1]), Seed(seed))
        return build_named_graph(tag, *(_number(int, p) for p in parts))
    return decode_edge_list(_read(spec, f"graph file {spec!r}"))


def _number(kind, text: str):
    """int(text) or float(text), as a usage error when text is not a number."""
    try:
        return kind(text)
    except ValueError:
        raise ParameterError(f"expected a number, got {text!r}") from None


def parse_pattern_arg(spec: str) -> Pattern:
    return normalize_pattern(parse_graph_arg(spec))


def _read(path: str, what: str) -> str:
    """Read an input file; one that cannot be read or decoded is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read {what}: {exc}") from exc


def _write_out(path: str, text: str) -> None:
    """Write an ``--out`` file; a path that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write {path!r}: {exc}") from exc


def _emit(payload: dict, summary: str, args) -> None:
    text = json.dumps(payload, sort_keys=True)
    if args.out:  # before stdout, so a failed write prints no payload
        _write_out(args.out, text + "\n")
    print(text)
    if not args.json:
        print(summary, file=sys.stderr)


# -- subcommand handlers -----------------------------------------------------


def cmd_closure(args) -> None:
    host = parse_graph_arg(args.host, args.rng_seed)
    f = parse_pattern_arg(args.pattern)
    seed_graph = parse_graph_arg(args.seed, args.rng_seed)
    res = closure(host, f, seed_graph)
    payload = {
        "percolates": res.percolates,
        "added": len(res.trace),
        "closure_edges": res.closure.m_edges,
        "trace": json.loads(res.trace.to_json()),
    }
    _emit(payload, f"closure added {len(res.trace)} edges; "
                   f"percolates={res.percolates}", args)


def cmd_verify(args) -> None:
    host = parse_graph_arg(args.host, args.rng_seed)
    f = parse_pattern_arg(args.pattern)
    seed_graph = parse_graph_arg(args.seed, args.rng_seed)
    trace = ActivationTrace.from_json(_read(args.trace, "trace file"))
    ok, idx, reason = verify_trace_detailed(host, f, seed_graph, trace)
    _emit({"valid": ok, "first_failure": idx, "reason": reason},
          f"trace valid={ok} ({reason})", args)


def cmd_solve(args) -> None:
    seed = args.rng_seed
    host = parse_graph_arg(args.host, seed)
    f = parse_pattern_arg(args.pattern)
    budget = SearchBudget(args.budget_nodes, args.budget_seconds)
    if args.greedy_repeats < 0:
        raise ParameterError("--greedy-repeats must be at least 0")
    res = wsat_exact(host, f, budget)
    payload = res.as_dict()
    if args.greedy_repeats > 0:
        best = min((greedy_upper_bound(host, f, Seed(seed, r)) for r in range(args.greedy_repeats)),
                   key=lambda g: g.upper)  # the first of the smallest
        payload["greedy_upper"] = best.upper
        if res.exact is None and best.upper < payload["upper"]:
            payload["upper"] = best.upper
    _emit(payload, f"wsat: exact={res.exact} lower={payload['lower']} "
                   f"upper={payload['upper']}", args)


def cmd_formula(args) -> None:
    q = FormulaQuery(family=args.family, n=args.n, s=args.s, t=args.t)
    value = closed_form_wsat(q)
    if isinstance(value, tuple):
        payload = {"family": args.family, "n": args.n, "lower": value[0], "upper": value[1]}
        summary = f"wsat in [{value[0]}, {value[1]}]"
    else:
        payload = {"family": args.family, "n": args.n, "value": value}
        summary = f"wsat = {value}"
    _emit(payload, summary, args)


def cmd_construct(args) -> None:
    seed = args.rng_seed
    f = parse_pattern_arg(args.pattern)
    least = 1 if args.method == "complete" else 0
    if args.m is not None and args.m < least:
        raise ParameterError(f"--m must be at least {least}")
    if args.method == "complete":
        m = args.m if args.m is not None else max(f.delta - 1, 1)
        core = parse_graph_arg(args.core, seed) if args.core else Seed(seed)
        h = construct_complete_host_saturator(args.n, f, m, core)
    else:
        host = parse_graph_arg(args.host, seed)
        h = construct_random_host_saturator(host, f, args.m, Seed(seed))
    payload = {
        "method": args.method,
        "n": h.n,
        "edges": h.m_edges,
        "verified": True,
        "edge_list": encode_edge_list(h),
    }
    _emit(payload, f"construction verified: {h.m_edges} edges on {h.n} vertices", args)


def cmd_profile(args) -> None:
    f = parse_pattern_arg(args.pattern)
    budget = SearchBudget(args.budget_nodes, args.budget_seconds)
    prof = stability_profile(f, args.nmax, budget)
    payload = asdict(prof)
    payload["d_f"] = payload.pop("d_F")
    _emit(payload, f"profile: d_F={prof.d_F} k={prof.k} ({prof.note})", args)


def cmd_experiment(args) -> None:
    seed = args.rng_seed
    f = parse_pattern_arg(args.pattern)
    pgrid = [_number(float, x) for x in args.pgrid.split(",")]
    # scan only tests containment, so it takes no budget
    budget = None if args.mode == "scan" else SearchBudget(args.budget_nodes, args.budget_seconds)
    cfg = ExperimentConfig(f=f, n=args.n, p_grid=pgrid, trials=args.trials,
                           master_seed=seed, mode=args.mode, budget=budget)
    report = run_experiment(cfg)
    if args.out:
        _write_out(args.out, report.to_csv())
    print(report.to_json())
    if not args.json:
        print(f"{args.mode}: {len(report.records)} trials over "
              f"{len(pgrid)} p-values", file=sys.stderr)


def cmd_neighborhood(args) -> None:
    f = parse_pattern_arg(args.pattern)
    host = parse_graph_arg(args.host, args.rng_seed)
    rep = neighborhood_property_check(host, f, args.k, args.p, args.cap, Seed(args.rng_seed))
    _emit(rep, "neighborhood fractions: "
               f"{rep['fraction_common_ge_floor']:.3f} common-size floor", args)


def cmd_count(args) -> None:
    host = parse_graph_arg(args.host, args.rng_seed)
    f = parse_pattern_arg(args.pattern)
    c = count_copies(host, f)
    _emit({"copies": c, "aut": f.aut}, f"{c} copies", args)


# -- parser ------------------------------------------------------------------


@functools.cache  # main() may run many times in one process
def build_parser() -> argparse.ArgumentParser:
    graphless = argparse.ArgumentParser(add_help=False)
    graphless.add_argument("--json", action="store_true",
                           help="suppress the human summary on stderr")
    graphless.add_argument("--out", metavar="FILE",
                           help="also write the payload (CSV for experiments) to FILE")

    patterned = argparse.ArgumentParser(add_help=False, parents=[graphless])
    patterned.add_argument("--pattern", required=True)
    common = argparse.ArgumentParser(add_help=False, parents=[patterned])
    common.add_argument("--seed", dest="rng_seed", type=int, default=0,
                        help="master RNG seed (drives every randomized choice)")

    def budget_flags(seconds: float) -> argparse.ArgumentParser:
        # one parent per default time limit: set_defaults on a child would
        # rewrite the default of the action its siblings share
        budget = argparse.ArgumentParser(add_help=False)
        budget.add_argument("--budget-nodes", type=int, default=10**8)
        budget.add_argument("--budget-seconds", type=float, default=seconds)
        return budget

    budget = budget_flags(60.0)

    # no abbreviated flags: each parser takes its own flags, spelled out
    strict = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    p = strict(prog="wsat", description=__doc__,
               formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=strict)

    seed_graph = argparse.ArgumentParser(add_help=False, parents=[patterned])
    seed_graph.add_argument("--host", required=True)
    seed_graph.add_argument("--seed", required=True, help="initial spanning subgraph")
    seed_graph.add_argument("--rng-seed", type=int, default=0, help="RNG seed for gnp: graphs")
    sub.add_parser("closure", parents=[seed_graph],
                   help="F-bootstrap closure of a seed graph inside a host"
                   ).set_defaults(func=cmd_closure)
    c = sub.add_parser("verify", parents=[seed_graph], help="replay and check an activation trace")
    c.add_argument("--trace", required=True, help="trace JSON file")
    c.set_defaults(func=cmd_verify)

    c = sub.add_parser("solve", parents=[common, budget], help="compute wsat(G,F)")
    c.add_argument("--host", required=True)
    c.add_argument("--greedy-repeats", type=int, default=0)
    c.set_defaults(func=cmd_solve)

    c = sub.add_parser("formula", parents=[graphless], help="closed-form wsat values")
    c.add_argument("--family", required=True, choices=list(_PARAMETERS))
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--s", type=int)
    c.add_argument("--t", type=int)
    c.set_defaults(func=cmd_formula)

    methods = sub.add_parser("construct", help="build and verify an explicit saturator"
                             ).add_subparsers(dest="method", required=True, parser_class=strict)
    c = methods.add_parser("complete", parents=[common],
                           help="core-plus-fringe saturator of K_n")
    c.add_argument("--n", type=int, required=True, help="host size")
    c.add_argument("--m", type=int, help="core size (default max(delta(F) - 1, 1))")
    c.add_argument("--core", help="core graph on --m vertices (default greedy)")
    c.set_defaults(func=cmd_construct)
    c = methods.add_parser("random", parents=[common],
                           help="clique-anchored saturator of a host graph")
    c.add_argument("--host", required=True)
    c.add_argument("--m", type=int, required=True, help="clique size")
    c.set_defaults(func=cmd_construct)

    c = sub.add_parser("profile", parents=[patterned, budget_flags(300.0)],
                       help="stability profile phi(n) up to --nmax")
    c.add_argument("--nmax", type=int, required=True)
    c.set_defaults(func=cmd_profile)

    modes = sub.add_parser("experiment", help="seeded random-graph experiments"
                           ).add_subparsers(dest="mode", required=True, parser_class=strict)
    for mode, parents, what in (
        ("stability", [common, budget], "does wsat(G(n,p), F) equal wsat(K_n, F)?"),
        ("sandwich", [common, budget], "|E| - X_F <= wsat(G(n,p), F) <= |E|"),
        ("scan", [common], "how often G(n,p) contains F"),
    ):
        c = modes.add_parser(mode, parents=parents, help=what)
        c.add_argument("--n", type=int, required=True)
        c.add_argument("--pgrid", default="0.5",
                       help="comma-separated increasing probabilities (default %(default)s)")
        c.add_argument("--trials", type=int, default=10, help="trials per p (default %(default)s)")
        c.set_defaults(func=cmd_experiment)
    c = modes.add_parser("neighborhood", parents=[common],
                         help="common neighbourhoods of k-subsets of a host")
    c.add_argument("--host", required=True)
    c.add_argument("--k", type=int, required=True, help="subset size")
    c.add_argument("--p", type=float, required=True, help="probability used for the floor")
    c.add_argument("--cap", type=int, default=10000,
                   help="subset sample cap (default %(default)s)")
    c.set_defaults(func=cmd_neighborhood)

    c = sub.add_parser("count", parents=[common], help="count copies of F in G")
    c.add_argument("--host", required=True)
    c.set_defaults(func=cmd_count)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WsatError as exc:
        msg = f"error: {exc}"
        diag = getattr(exc, "diagnostic", None)
        if diag is not None:
            msg += f" ({diag})"
        print(msg, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
