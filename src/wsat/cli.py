"""Command-line front end.

Graph arguments accept either a ``family:params`` shorthand (``complete:5``,
``cbip:2,3``, ``star:3``, ``path:4``, ``cycle:6``, ``empty:4``,
``matching:3``, ``gnp:20,0.5``) or a path to an edge-list file
(first line "n m", then "u v" lines, '#' comments).

Output: JSON payload on stdout (keys sorted), a one-line human summary on
stderr.  Exit codes: 0 success, 1 domain error (structure absent, failed
verification, out-of-range formula), 2 usage error (bad flags, unreadable
input or unwritable ``--out`` files, malformed graphs or traces).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .bootstrap import ActivationTrace, closure, verify_trace_detailed
from .errors import GraphParseError, ParameterError, WsatError
from .experiments import (
    ExperimentConfig,
    neighborhood_property_check,
    run_experiment,
)
from .formulas import (
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
    complete,
    decode_edge_list,
    encode_edge_list,
    sample_gnp,
)
from .patterns import Pattern, count_copies, normalize_pattern
from .solver import SearchBudget, greedy_upper_bound, wsat_exact

USAGE_ERRORS = (ParameterError, GraphParseError)


def parse_graph_arg(spec: str, seed: int = 0) -> Graph:
    """family:params shorthand or an edge-list file path."""
    if ":" in spec and not spec.endswith(".el"):
        tag, _, params = spec.partition(":")
        parts = [p for p in params.split(",") if p]
        if tag == "gnp":
            if len(parts) != 2:
                raise ParameterError("gnp takes two parameters: gnp:n,p")
            return sample_gnp(_number(int, parts[0]), _number(float, parts[1]), Seed(seed))
        return build_named_graph(tag, *(_number(int, p) for p in parts))
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            return decode_edge_list(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read graph file {spec!r}: {exc}") from exc


def _number(kind, text: str):
    """int(text) or float(text), as a usage error when text is not a number."""
    try:
        return kind(text)
    except ValueError:
        raise ParameterError(f"expected a number, got {text!r}") from None


def parse_pattern_arg(spec: str) -> Pattern:
    return normalize_pattern(parse_graph_arg(spec))


def _write_out(path: str, text: str) -> None:
    """Write an ``--out`` file; a path that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write {path!r}: {exc}") from exc


def _unread(args, names: str, context: str) -> None:
    """Usage error for any flag in ``names`` given where ``context`` reads none."""
    given = [f"--{x.replace('_', '-')}" for x in names.split() if getattr(args, x) is not None]
    if given:
        raise ParameterError(f"{', '.join(given)} not used by {context}")


def _emit(payload: dict, summary: str, args) -> None:
    text = json.dumps(payload, sort_keys=True)
    if args.out:  # before stdout, so a failed write prints no payload
        _write_out(args.out, text + "\n")
    print(text)
    if not args.json:
        print(summary, file=sys.stderr)


# -- subcommand handlers -----------------------------------------------------


def cmd_closure(args) -> int:
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
    return 0


def cmd_verify(args) -> int:
    host = parse_graph_arg(args.host, args.rng_seed)
    f = parse_pattern_arg(args.pattern)
    seed_graph = parse_graph_arg(args.seed, args.rng_seed)
    try:
        with open(args.trace, "r", encoding="utf-8") as fh:
            trace = ActivationTrace.from_json(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read trace file: {exc}") from exc
    ok, idx, reason = verify_trace_detailed(host, f, seed_graph, trace)
    _emit({"valid": ok, "first_failure": idx, "reason": reason},
          f"trace valid={ok} ({reason})", args)
    return 0


def cmd_solve(args) -> int:
    seed = args.rng_seed
    host = parse_graph_arg(args.host, seed)
    f = parse_pattern_arg(args.pattern)
    budget = SearchBudget(args.budget_nodes, args.budget_seconds)
    res = wsat_exact(host, f, budget)
    payload = res.as_dict()
    if args.greedy_repeats > 0:
        best = None
        for r in range(args.greedy_repeats):
            g = greedy_upper_bound(host, f, Seed(seed, r))
            if best is None or g.upper < best.upper:
                best = g
        payload["greedy_upper"] = best.upper
        if res.exact is None and best.upper < payload["upper"]:
            payload["upper"] = best.upper
    _emit(payload, f"wsat: exact={res.exact} lower={payload['lower']} "
                   f"upper={payload['upper']}", args)
    return 0


def cmd_formula(args) -> int:
    q = FormulaQuery(family=args.family, n=args.n, s=args.s, t=args.t)
    value = closed_form_wsat(q)
    if isinstance(value, tuple):
        payload = {"family": args.family, "n": args.n, "lower": value[0], "upper": value[1]}
        summary = f"wsat in [{value[0]}, {value[1]}]"
    else:
        payload = {"family": args.family, "n": args.n, "value": value}
        summary = f"wsat = {value}"
    _emit(payload, summary, args)
    return 0


def cmd_construct(args) -> int:
    seed = args.rng_seed
    f = parse_pattern_arg(args.pattern)
    if args.method == "complete":
        _unread(args, "host", "--method complete")
        if args.n is None:
            raise ParameterError("--n is required for --method complete")
        m = args.m if args.m is not None else max(f.delta - 1, 1)
        if args.core:
            core = parse_graph_arg(args.core)
        else:
            core_res = greedy_upper_bound(complete(m), f, Seed(seed))
            core = core_res.certificate[0]
        h = construct_complete_host_saturator(args.n, f, m, core)
    else:
        _unread(args, "n core", "--method random")
        if args.host is None or args.m is None:
            raise ParameterError("--host and --m are required for --method random")
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
    return 0


def cmd_profile(args) -> int:
    f = parse_pattern_arg(args.pattern)
    budget = SearchBudget(args.budget_nodes, args.budget_seconds)
    prof = stability_profile(f, args.nmax, budget)
    payload = {
        "delta": prof.delta,
        "d_f": prof.d_F,
        "k": prof.k,
        "phi_table": [[n, phi] for n, phi in prof.phi_table],
        "complete_scan": prof.complete_scan,
        "note": prof.note,
    }
    _emit(payload, f"profile: d_F={prof.d_F} k={prof.k} ({prof.note})", args)
    return 0


def cmd_experiment(args) -> int:
    seed = args.rng_seed
    f = parse_pattern_arg(args.pattern)
    if args.mode == "neighborhood":
        _unread(args, "n pgrid trials budget_nodes budget_seconds", "--mode neighborhood")
        if args.host is None or args.k is None or args.p is None:
            raise ParameterError("neighborhood mode needs --host, --k and --p")
        host = parse_graph_arg(args.host, seed)
        cap = 10000 if args.cap is None else args.cap
        rep = neighborhood_property_check(host, f, args.k, args.p, cap, Seed(seed))
        _emit(rep, "neighborhood fractions: "
                   f"{rep['fraction_common_ge_floor']:.3f} common-size floor", args)
        return 0
    _unread(args, "host k p cap", f"--mode {args.mode}")
    if args.n is None:
        raise ParameterError("--n is required")
    pgrid = [_number(float, x) for x in args.pgrid.split(",")] if args.pgrid else [0.5]
    budget = SearchBudget(10**8 if args.budget_nodes is None else args.budget_nodes,
                          60.0 if args.budget_seconds is None else args.budget_seconds)
    cfg = ExperimentConfig(
        f=f, n=args.n, p_grid=pgrid, trials=10 if args.trials is None else args.trials,
        master_seed=seed, mode=args.mode, budget=budget,
    )
    report = run_experiment(cfg)
    if args.out:
        _write_out(args.out, report.to_csv())
    print(report.to_json())
    if not args.json:
        print(f"{args.mode}: {len(report.records)} trials over "
              f"{len(pgrid)} p-values", file=sys.stderr)
    return 0


def cmd_count(args) -> int:
    host = parse_graph_arg(args.host, args.rng_seed)
    f = parse_pattern_arg(args.pattern)
    c = count_copies(host, f)
    _emit({"copies": c, "aut": f.aut}, f"{c} copies", args)
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    graphless = argparse.ArgumentParser(add_help=False)
    graphless.add_argument("--json", action="store_true",
                           help="suppress the human summary on stderr")
    graphless.add_argument("--out", metavar="FILE",
                           help="also write the payload (CSV for experiments) to FILE")

    common = argparse.ArgumentParser(add_help=False, parents=[graphless])
    common.add_argument("--seed", dest="rng_seed", type=int, default=0,
                        help="master RNG seed (drives every randomized choice)")

    p = argparse.ArgumentParser(prog="wsat", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("closure", parents=[graphless],
                       help="F-bootstrap closure of a seed graph inside a host")
    c.add_argument("--host", required=True)
    c.add_argument("--pattern", required=True)
    c.add_argument("--seed", required=True, help="initial spanning subgraph")
    c.add_argument("--rng-seed", type=int, default=0, help="RNG seed for gnp: graphs")
    c.set_defaults(func=cmd_closure)

    c = sub.add_parser("verify", parents=[graphless],
                       help="replay and check an activation trace")
    c.add_argument("--host", required=True)
    c.add_argument("--pattern", required=True)
    c.add_argument("--seed", required=True, help="initial spanning subgraph")
    c.add_argument("--rng-seed", type=int, default=0, help="RNG seed for gnp: graphs")
    c.add_argument("--trace", required=True, help="trace JSON file")
    c.set_defaults(func=cmd_verify)

    c = sub.add_parser("solve", parents=[common], help="compute wsat(G,F)")
    c.add_argument("--host", required=True)
    c.add_argument("--pattern", required=True)
    c.add_argument("--budget-nodes", type=int, default=10**8)
    c.add_argument("--budget-seconds", type=float, default=60.0)
    c.add_argument("--greedy-repeats", type=int, default=0)
    c.set_defaults(func=cmd_solve)

    c = sub.add_parser("formula", parents=[graphless], help="closed-form wsat values")
    c.add_argument("--family", required=True, choices=["ks", "ktt", "kst", "k2t", "k1t"])
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--s", type=int)
    c.add_argument("--t", type=int)
    c.set_defaults(func=cmd_formula)

    c = sub.add_parser("construct", parents=[common],
                       help="build and verify an explicit saturator")
    c.add_argument("--method", required=True, choices=["complete", "random"])
    c.add_argument("--pattern", required=True)
    c.add_argument("--host", help="host graph (random method)")
    c.add_argument("--n", type=int, help="host size (complete method)")
    c.add_argument("--m", type=int, help="clique/core size")
    c.add_argument("--core", help="core graph (complete method; default greedy)")
    c.set_defaults(func=cmd_construct)

    c = sub.add_parser("profile", parents=[graphless],
                       help="stability profile phi(n) up to --nmax")
    c.add_argument("--pattern", required=True)
    c.add_argument("--nmax", type=int, required=True)
    c.add_argument("--budget-nodes", type=int, default=10**8)
    c.add_argument("--budget-seconds", type=float, default=300.0)
    c.set_defaults(func=cmd_profile)

    c = sub.add_parser("experiment", parents=[common],
                       help="seeded random-graph experiments")
    c.add_argument("--mode", required=True,
                   choices=["stability", "sandwich", "neighborhood", "scan"])
    c.add_argument("--pattern", required=True)
    c.add_argument("--n", type=int)
    c.add_argument("--pgrid", help="comma-separated increasing probabilities")
    c.add_argument("--trials", type=int, help="trials per p (default 10)")
    c.add_argument("--host", help="host graph (neighborhood mode)")
    c.add_argument("--k", type=int, help="subset size (neighborhood mode)")
    c.add_argument("--p", type=float, help="probability used for the floor (neighborhood)")
    c.add_argument("--cap", type=int, help="subset sample cap (neighborhood; default 10000)")
    c.add_argument("--budget-nodes", type=int, help="default 10**8 (not neighborhood)")
    c.add_argument("--budget-seconds", type=float, help="default 60 (not neighborhood)")
    c.set_defaults(func=cmd_experiment)

    c = sub.add_parser("count", parents=[common], help="count copies of F in G")
    c.add_argument("--host", required=True)
    c.add_argument("--pattern", required=True)
    c.set_defaults(func=cmd_count)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())
