"""Golden outputs: bench CSV, CLI networks, longest_path_sort networks,
direct calls of the merge builders, route_auto plans and bounds, the
public family routers' plans, verify_random reports, and the exact
oracles' values, witnesses and explored-state counts.

The expected values live in golden.json next to this file.  They pin the
exact bytes the package emits, so a refactor that changes any output, on
any family or construction, fails here.  After a deliberate output change,
rewrite the file with

    PYTHONPATH=src python tests/test_golden.py

and say in the change why the outputs moved.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from matchnet import cli
from matchnet.constructions import (longest_path_sort, odd_even_transposition,
                                    parallel_subgraph_sort, product_sort,
                                    subgraph_sort)
from matchnet.graphs import (cartesian_product, generate, graph,
                             tree_diameter_path)
from matchnet.network import make_network, network_to_json, plan_to_json
from matchnet.perms import all_permutations
from matchnet.routing import (route_auto, route_complete, route_depth_bound,
                              route_multigrid, route_multipartite, route_path,
                              route_product, route_to_path, route_tree)
from matchnet.verify import (connected_graphs_upto_iso, exact_rt, exact_rt_p,
                             exact_rt_partial, exact_st, exact_st_all_orders,
                             sandwich_check, verify_random)

GOLDEN = Path(__file__).with_name("golden.json")

# one accepted host per CLI construction, plus the small hosts where a
# family generator emits a path or a complete graph
BUILDS = [("odd_even", "path:8"), ("bitonic", "hypercube:3"),
          ("batcher", "complete:6"), ("contour", "random_tree:9,2"),
          ("simulate_complete", "cycle:6"), ("subgraph", "star:7"),
          ("longest_path", "mesh:3,3"), ("parallel_subgraph", "mesh:2,4"),
          ("product", "mesh:3,4"), ("pyramid", "pyramid:2,2"),
          ("bitonic", "hypercube:1"), ("batcher", "path:2"),
          ("batcher", "path:1"), ("pyramid", "pyramid:2,1"),
          ("pyramid", "pyramid:1,1"), ("product", "mesh:1,4"),
          ("product", "mesh:3,1"), ("product_sort", "mesh:2,2,2")]

ROUTES = ["path:9", "cycle:8", "star:7", "complete:6", "multipartite:3,2",
          "hypercube:3", "hypercube:4", "mesh:7", "mesh:3,4", "mesh:2,2,3",
          "mesh:1,2,3", "pyramid:2,2", "pyramid:3,1", "multigrid:3,1",
          "random_tree:12,5", "path:3*cycle:4", "complete:3*mesh:2,2",
          "hypercube:1", "complete:2", "mesh:5", "mesh:1,4",
          "multipartite:2,1", "multipartite:3,1", "pyramid:2,1",
          "multigrid:2,1", "random_tree:2,0", "cycle:3",
          # hosts large enough to reach the tree rounds' recursion, the
          # high-degree centroid and the repeated product sub-solves
          "random_tree:64,1", "random_tree:256,2", "random_tree:1024,3",
          "star:256", "broom:40,120", "caterpillar:15,8", "hypercube:6",
          "hypercube:7", "pyramid:4,3", "mesh:8,8,8"]

# the public family routers on their own hosts, with the degenerate shapes
# family_of names otherwise: multipartite:4,1 is K4 and multipartite:2,1,
# multigrid:2,1 and path:1 times a factor are paths
ROUTERS = ([f"complete:{n}" for n in range(1, 5)]
           + ["multipartite:3,2", "multipartite:4,1", "multipartite:2,1",
              "multigrid:2,1", "multigrid:2,2", "multigrid:3,1",
              "product path:1*path:4", "product path:2*path:2",
              "product complete:3*path:2", "product star:4*path:3",
              "tree path:6", "tree random_tree:30,4",
              "tree path:1*random_tree:7,1", "path:9"])
TO_PATH_TREES = ["random_tree:40,7", "caterpillar:6,2", "star:9"]

# longest_path_sort routes every merge through route_to_path: a full path,
# a star (d = 2), and two hosts whose spanning trees branch off the path
LONGEST_PATHS = ["path:32", "star:24", "mesh:4,8", "hypercube:5"]

# merge-builder calls no CLI build makes: subgraph_sort with an H of odd
# size (the last block is short) and with an H that bends, the scattered
# columns of a mesh, and products whose arena nets swap, with 2q = 6
SUBGRAPHS = [("cycle:6", [1, 2, 3, 4]), ("cycle:8", [2, 3, 4, 5, 6]),
             ("mesh:3,4", [1, 2, 3, 4, 8, 12])]
COLUMNS = ("mesh:2,4", [[1, 5], [2, 6], [3, 7], [4, 8]])
PRODUCTS = [("multipartite:2,2", "path:3"), ("cycle:4", "path:3")]

# exact oracles: every connected graph with n <= 4 is a sandwich host too
SANDWICH_HOSTS = ["path:5", "star:5", "cycle:5", "random_tree:5,1"]
ST_HOSTS = ["path:2", "path:3", "complete:3", "path:4", "star:4", "cycle:4",
            "random_tree:5,1"]
ST_TABLES = [("path:4", None), ("path:4", 4), ("star:4", 5),
             ("cycle:4", 0), ("random_tree:5,1", None),
             ("random_tree:5,1", 6)]
# st(G) witnesses on the 32-bit word's largest host and the 64-bit word
ST_CAPPED = [("star:5", None), ("path:6", 6)]
RT_HOSTS = ["path:7", "star:7", "complete:7", "random_tree:7,4"]
RT_PI_HOSTS = ["path:5", "star:6", "complete:5", "mesh:2,3",
               "random_tree:7,4"]
RT_PARTIAL = [("path:7", (1, 2, 3), (5, 6, 7)),
              ("star:7", (1, 2, 3, 4), (4, 5, 6, 7)),
              ("mesh:2,3", (1, 6), (2, 5)), ("cycle:6", (2,), (5,))]
RT_P = [("path:6", 2), ("star:6", 3), ("complete:5", 5),
        ("random_tree:7,4", 2), ("cycle:6", 3)]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def broom(handle: int, leaves: int):
    """Path 1..handle whose last vertex carries `leaves` more leaves."""
    edges = [(i, i + 1) for i in range(1, handle)]
    edges += [(handle, handle + j) for j in range(1, leaves + 1)]
    return graph(handle + leaves, edges)


def caterpillar(spine: int, legs: int):
    """Path 1..spine; every spine vertex carries `legs` leaves."""
    edges = [(i, i + 1) for i in range(1, spine)]
    leaf = spine
    for v in range(1, spine + 1):
        for _ in range(legs):
            leaf += 1
            edges.append((v, leaf))
    return graph(leaf, edges)


TREES = {"broom": broom, "caterpillar": caterpillar}  # unlabelled trees


def _host(spec: str):
    if "*" in spec:  # an in-memory cartesian product of two generator specs
        return cartesian_product(*(generate(s) for s in spec.split("*")))
    name, _, args = spec.partition(":")
    if name in TREES:
        return TREES[name](*(int(a) for a in args.split(",")))
    return generate(spec)


def _cli_out(argv, tmp: Path) -> str:
    out = tmp / "out.txt"
    assert cli.main(argv + ["--out", str(out)]) == 0, argv
    return out.read_text()


def bench_csv(tmp: Path) -> str:
    return _cli_out(["bench", "--suite", "all", "--seed", "0",
                     "--format", "csv"], tmp)


def network_digests(tmp: Path) -> dict:
    return {f"{c} {spec}": _sha(_cli_out(["build", "--construction", c,
                                          "--graph", spec], tmp))
            for c, spec in BUILDS}


def plan_digests() -> dict:
    out = {}
    for spec in ROUTES:
        g = _host(spec)
        pi = list(range(1, g.n + 1))
        random.Random(spec).shuffle(pi)
        out[spec] = _sha(plan_to_json(route_auto(g, tuple(pi))))
    return out


def _router(key: str):
    """(the router of key as a function of pi, its host's vertex count)."""
    kind, _, spec = key.rpartition(" ")
    if kind == "product":
        g1, g2 = (_host(s) for s in spec.split("*"))
        return lambda pi: route_product(g1, g2, pi), g1.n * g2.n
    if kind == "tree":
        t = _host(spec)
        return lambda pi: route_tree(t, pi), t.n
    name, _, args = spec.partition(":")
    ints = [int(a) for a in args.split(",")]
    g = generate(spec)
    if name == "path":
        return lambda pi: route_path(g, pi), g.n
    route = {"complete": route_complete, "multipartite": route_multipartite,
             "multigrid": route_multigrid}[name]
    return lambda pi: route(*ints, pi), g.n


def router_digests() -> dict:
    """Plans of the public routers: a seeded permutation per host, every
    permutation on multigrid:2,1, and route_to_path from seeded sources to
    seeded diameter-path targets."""
    out = {}
    for key in ROUTERS:
        route, n = _router(key)
        pis = (all_permutations(n) if key == "multigrid:2,1"
               else [_shuffled(key, n)])
        for pi in pis:
            out[f"{key} pi={tuple(pi)}"] = _sha(plan_to_json(route(pi)))
    for spec in TO_PATH_TREES:
        t = _host(spec)
        rng = random.Random(spec)
        dpath = tree_diameter_path(t)
        k = rng.randint(1, len(dpath) - 1)
        sources = rng.sample(range(1, t.n + 1), k)
        targets = rng.sample(dpath, k)
        out[f"to_path {spec} {sources}->{targets}"] = _sha(
            plan_to_json(route_to_path(t, sources, targets)))
    return out


def bounds() -> dict:
    return {spec: route_depth_bound(_host(spec)) for spec in ROUTES}


def longest_path_digests() -> dict:
    return {spec: _sha(network_to_json(longest_path_sort(generate(spec))))
            for spec in LONGEST_PATHS}


def merge_digests() -> dict:
    out = {}
    for spec, h in SUBGRAPHS:
        net = subgraph_sort(generate(spec), h, odd_even_transposition(len(h)))
        out[f"subgraph_sort {spec} {h}"] = _sha(network_to_json(net))
    spec, cols = COLUMNS
    net = parallel_subgraph_sort(generate(spec), cols,
                                 [odd_even_transposition(2)] * len(cols))
    out[f"parallel_subgraph_sort {spec} {cols}"] = _sha(network_to_json(net))
    for a, b in PRODUCTS:
        net = product_sort(generate(a), generate(b))
        out[f"product_sort {a}*{b}"] = _sha(network_to_json(net))
    return out


def _random_report(rep) -> dict:
    return {"passed": rep.passed, "method": rep.method,
            "inputs_checked": rep.inputs_checked,
            "counterexample": rep.counterexample, "detail": rep.detail}


def random_reports() -> dict:
    """A pass at the benchmark's 1024 trials, and a planted fault that is
    first seen in the last of four input chunks (rows 110,001..120,000)."""
    base = odd_even_transposition(24)
    stages = [list(s) for s in base.stages]
    del stages[0][6]
    faulty = make_network(base.graph, base.order, stages)
    return {
        "longest_path mesh:4,8 trials=1024":
            _random_report(verify_random(
                longest_path_sort(generate("mesh:4,8")), 1024)),
        "odd_even:24 without stage 0 comparator 6 trials=120000":
            _random_report(verify_random(faulty, 120_000))}


def _shuffled(spec: str, n: int) -> tuple:
    pi = list(range(1, n + 1))
    random.Random(spec + " pi").shuffle(pi)
    return tuple(pi)


def _report(rep) -> dict:
    data = rep.data
    table = [[list(o), v] for o, v in data["st_by_order"].items()]
    return {"passed": rep.passed, "counterexample": rep.counterexample,
            "detail": rep.detail, "inputs_checked": rep.inputs_checked,
            "rt": data["rt"], "st_min": data["st_min"],
            "orders_checked": data["orders_checked"],
            "st_by_order": _sha(json.dumps(table))}


def sandwich_outputs() -> dict:
    hosts = [g for n in range(1, 5) for g in connected_graphs_upto_iso(n)]
    out = {f"n={g.n} edges={sorted(g.edges)}": _report(sandwich_check(g))
           for g in hosts}
    for spec in SANDWICH_HOSTS:
        out[spec] = _report(sandwich_check(generate(spec)))
    g = generate("path:4")
    out["path:4 pi=(2, 4, 1, 3)"] = _report(sandwich_check(g, (2, 4, 1, 3)))
    return out


def _st(res) -> dict:
    return {"value": res.value, "explored": res.explored,
            "witness": _sha(network_to_json(res.witness))}


def st_outputs() -> dict:
    out = {}
    for spec in ST_HOSTS:
        g = generate(spec)
        pi = tuple(range(g.n, 0, -1))
        out[spec] = _st(exact_st(g))
        out[f"{spec} pi={pi}"] = _st(exact_st(g, pi))
    out["path:4 comparator_only"] = _st(exact_st(generate("path:4"),
                                                 comparator_only=True))
    for spec, cap in ST_CAPPED:
        out[f"{spec} cap={cap}"] = _st(exact_st(generate(spec), cap=cap))
    for spec, depth_cap in ST_TABLES:
        table = exact_st_all_orders(generate(spec), depth_cap=depth_cap)
        items = [[list(o), v] for o, v in table.items()]
        out[f"{spec} all orders depth_cap={depth_cap}"] = {
            "unsorted": sum(v is None for v in table.values()),
            "table": _sha(json.dumps(items))}
    return out


def rt_outputs() -> dict:
    out = {}
    for spec in RT_HOSTS:
        res = exact_rt(generate(spec))
        out[spec] = {"value": res.value, "explored": res.explored,
                     "witness": list(res.witness)}
    for spec in RT_PI_HOSTS:
        g = generate(spec)
        pi = _shuffled(spec, g.n)
        res = exact_rt(g, pi)
        out[f"{spec} pi={pi}"] = {"value": res.value,
                                  "explored": res.explored,
                                  "witness": _sha(plan_to_json(res.witness))}
    for spec, a, b in RT_PARTIAL:
        res = exact_rt_partial(generate(spec), a, b)
        out[f"{spec} partial {a}->{b}"] = {
            "value": res.value, "explored": res.explored,
            "witness": sorted(res.witness.items())}
    for spec, p in RT_P:
        res = exact_rt_p(generate(spec), p)
        sources, mapping = res.witness
        out[f"{spec} rt_p p={p}"] = {
            "value": res.value, "explored": res.explored,
            "witness": [list(sources), sorted(mapping.items())]}
    return out


def _json(doc):
    """The doc as golden.json stores it (tuples read back as lists)."""
    return json.loads(json.dumps(doc))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_bench_csv_is_unchanged(golden, tmp_path):
    assert bench_csv(tmp_path) == golden["bench_csv"]


def test_cli_networks_are_unchanged(golden, tmp_path):
    assert network_digests(tmp_path) == golden["networks"]


def test_longest_path_networks_are_unchanged(golden):
    assert longest_path_digests() == golden["longest_path"]


def test_merge_networks_are_unchanged(golden):
    assert merge_digests() == golden["merges"]


def test_verify_random_reports_are_unchanged(golden):
    assert _json(random_reports()) == golden["verify_random"]


def test_route_auto_plans_are_unchanged(golden):
    assert plan_digests() == golden["plans"]


def test_public_router_plans_are_unchanged(golden):
    assert router_digests() == golden["routers"]


def test_route_depth_bounds_are_unchanged(golden):
    assert bounds() == golden["bounds"]


def test_sandwich_checks_are_unchanged(golden):
    assert _json(sandwich_outputs()) == golden["sandwich"]


def test_exact_st_is_unchanged(golden):
    assert _json(st_outputs()) == golden["st"]


def test_exact_rt_is_unchanged(golden):
    assert _json(rt_outputs()) == golden["rt"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        doc = {"bench_csv": bench_csv(Path(d)),
               "networks": network_digests(Path(d)),
               "longest_path": longest_path_digests(),
               "merges": merge_digests(),
               "verify_random": random_reports(),
               "plans": plan_digests(), "routers": router_digests(),
               "bounds": bounds(),
               "sandwich": sandwich_outputs(), "st": st_outputs(),
               "rt": rt_outputs()}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
