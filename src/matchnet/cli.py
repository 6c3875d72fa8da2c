"""Command line front end: generate/build/verify/route/oracle/bench/export.

Exit codes: 0 success (verification passed), 1 failure or bad input,
2 refused by a solver cap.  MATCHNET_CAP_OVERRIDE raises verifier caps;
each solver still refuses n past its own hard limit.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import constructions as cons
from .bench import SUITES, rows_to_csv, rows_to_table, run_suite
from .errors import CapError, ConstructionError
from .graphs import from_json, generate, to_json
from .network import network_from_json, network_to_json, plan_to_json
from .perms import check_permutation, random_permutation
from .routing import route_auto, route_depth_bound
from .verify import (RANDOM_DEFAULT_TRIALS, exact_rt, exact_rt_p, exact_st,
                     sandwich_check, verify_auto, verify_exhaustive,
                     verify_random, verify_zero_one)


def _cap_override() -> int | None:
    raw = os.environ.get("MATCHNET_CAP_OVERRIDE")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        print(f"ignoring non-integer MATCHNET_CAP_OVERRIDE={raw!r}",
              file=sys.stderr)
        return None
    if cap < 1:
        print(f"ignoring non-positive MATCHNET_CAP_OVERRIDE={cap}",
              file=sys.stderr)
        return None
    return cap


def _load_graph(arg: str):
    if os.path.exists(arg):
        with open(arg) as fh:
            g, _ = from_json(fh.read())
        return g
    return generate(arg)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _parse_order(raw: str, n: int) -> tuple[int, ...]:
    perm = tuple(int(x) for x in raw.replace(" ", "").split(","))
    check_permutation(perm, n)
    return perm


# ---------------------------------------------------------------------------
# subcommands

def cmd_generate(args) -> int:
    g = _load_graph(args.graph)
    _write(to_json(g), args.out)
    return 0


# library builder names accepted for the construction names
_ALIASES = {"odd_even_transposition": "odd_even",
            "bitonic_hypercube": "bitonic", "batcher_complete": "batcher",
            "contour_tree_sort": "contour", "subgraph_sort": "subgraph",
            "longest_path_sort": "longest_path",
            "parallel_subgraph_sort": "parallel_subgraph",
            "product_sort": "product", "pyramid_sort": "pyramid"}


def cmd_build(args) -> int:
    g = _load_graph(args.graph)
    name = _ALIASES.get(args.construction, args.construction)
    if name not in cons.BUILDERS:
        print(f"unknown construction {args.construction!r}; choose from "
              f"{sorted(cons.BUILDERS)}", file=sys.stderr)
        return 1
    net = cons.BUILDERS[name](g)
    _write(network_to_json(net), args.out)
    cert = net.certificate or {}
    print(f"built {name} on n={net.graph.n}: depth={net.depth} "
          f"bound={cert.get('claimed_bound', net.depth)}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    with open(args.net) as fh:
        net = network_from_json(fh.read())
    cap = _cap_override()
    if args.method == "auto":
        report = verify_auto(net, cap=cap)
    elif args.method == "zero_one":
        report = verify_zero_one(net, cap=cap)
    elif args.method == "exhaustive":
        report = verify_exhaustive(net, cap=cap)
    else:
        report = verify_random(net, trials=args.trials, seed=args.seed)
    if report.passed:
        print(f"PASS method={report.method} inputs={report.inputs_checked} "
              f"depth={net.depth}")
        return 0
    print(f"FAIL method={report.method} counterexample={report.counterexample}")
    return 1


def cmd_route(args) -> int:
    g = _load_graph(args.graph)
    if args.order is not None:
        perm = _parse_order(args.order, g.n)
    else:
        perm = random_permutation(g.n, random.Random(args.seed))
    plan = route_auto(g, perm)
    if args.out:
        _write(plan_to_json(plan), args.out)
    print(f"routed n={g.n}: depth={plan.depth} bound={route_depth_bound(g)}")
    return 0


def cmd_oracle(args) -> int:
    g = _load_graph(args.graph)
    cap = args.cap if args.cap is not None else _cap_override()
    order = _parse_order(args.order, g.n) if args.order else None
    if args.kind == "st":
        res = exact_st(g, order, cap=cap)
    elif args.kind == "rt":
        res = exact_rt(g, order, cap=cap)
    elif args.kind == "rt_p":
        res = exact_rt_p(g, args.p, cap=cap)
    else:
        report = sandwich_check(g, order, cap=cap)
        print(f"sandwich: {'holds' if report.passed else 'VIOLATED'}")
        return 0 if report.passed else 1
    print(f"{args.kind}={res.value} explored={res.explored}")
    return 0


def cmd_bench(args) -> int:
    rows = run_suite(args.suite, seed=args.seed)
    if args.format == "csv":
        _write(rows_to_csv(rows), args.out)
    else:
        sys.stdout.write(rows_to_table(rows, seed=args.seed))
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(rows_to_csv(rows))
    return 0 if all(r.verdict == "pass" for r in rows) else 1


def cmd_export(args) -> int:
    with open(args.net) as fh:
        net = network_from_json(fh.read())
    if args.format == "json":
        _write(network_to_json(net), args.out)
        return 0
    _write(_net_dot(net), args.out)
    return 0


def _net_dot(net) -> str:
    g = net.graph
    stage_of = {}
    for i, stage in enumerate(net.stages, start=1):
        for u, v, _ in stage:
            stage_of.setdefault((min(u, v), max(u, v)), []).append(i)
    lines = ["graph network {"]
    for v in range(1, g.n + 1):
        lines.append(f'  {v} [label="{v} (rank {net.order[v - 1]})"];')
    for u, v in g.sorted_edges():
        used = stage_of.get((u, v))
        if used:
            lines.append(f'  {u} -- {v} [label="{",".join(map(str, used))}"];')
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="matchnet",
        description="sorting networks and permutation routing on graphs")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a graph as JSON")
    p.add_argument("--graph", required=True,
                   help="family spec like mesh:3,3 or a JSON file")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("build", help="build a sorting network")
    p.add_argument("--construction", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("verify", help="verify a network file")
    p.add_argument("--net", required=True)
    p.add_argument("--method", default="auto",
                   choices=["auto", "zero_one", "exhaustive", "random"])
    p.add_argument("--trials", type=int, default=RANDOM_DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("route", help="plan a permutation routing")
    p.add_argument("--graph", required=True)
    p.add_argument("--order", help="target permutation, e.g. 2,1,3")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for a random permutation when --order is absent")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_route)

    p = sub.add_parser("oracle", help="exact small-instance solvers")
    p.add_argument("--kind", required=True,
                   choices=["st", "rt", "rt_p", "sandwich"])
    p.add_argument("--graph", required=True)
    p.add_argument("--order")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--cap", type=int)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("bench", help="run a benchmark suite")
    p.add_argument("--suite", default="all", choices=SUITES + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write the CSV here")
    p.add_argument("--format", default="table", choices=["table", "csv"])
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("export", help="export a network as DOT or JSON")
    p.add_argument("--net", required=True)
    p.add_argument("--format", default="dot", choices=["dot", "json"])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_export)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CapError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ConstructionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
