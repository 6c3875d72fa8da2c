"""The three benchmark workloads, as lists of ops built from the seed.

An op is one user-level task. `op.run(tr)` calls the library and returns
the op's outputs; every library call goes through `call`, which wraps it
in a layer span when a tracer is given. `op.check(out, full)` re-derives
the answer without trusting the library and returns an error message or
None; the full check runs on the first pass, later passes are compared
byte for byte against it. `op.canon(out)` is the op's canonical output
for the workload digest, `op.depth(out)` its (achieved, bound) pair and
`op.counts(out)` the per-layer counters of the traced run.

The library receives only the graphs, permutations and networks made
here; every random choice comes from the workload seed.
"""

from __future__ import annotations

import json
import random
from collections import deque

# route: host mix over every family planner. Trees and hypercube:7 set the
# tail; complete:128 and multipartite:16,16 make generation and plan JSON
# a large share of the op; path/cycle/star exercise the spanning-tree path.
# Each host gets two permutations, bar the two costliest (about 1 s and
# 0.4 s an op), so that a pass stays near six seconds and a run makes four
# or more passes.
ROUTE_TREE_SIZES = (128, 256, 512, 1024)
ROUTE_TREES_PER_SIZE = 2  # distinct trees, one permutation each
ROUTE_HOSTS = (("path:256", 2), ("path:512", 2), ("cycle:256", 2),
               ("star:256", 2), ("mesh:16,16", 2), ("mesh:32,32", 2),
               ("mesh:8,8,8", 2), ("hypercube:6", 2), ("hypercube:7", 1),
               ("complete:128", 2), ("multipartite:16,16", 2),
               ("pyramid:5,2", 2), ("pyramid:4,3", 1), ("multigrid:5,2", 2))

# build_verify: networks past the 0-1 cap (n > 20) get a seeded spot check
# with this many inputs, well below the CLI default of 200k, so that the
# random kernel takes about a third of a pass and construction and stage
# validation keep a visible share.
BUILD_TREE_SIZES = (8, 12, 16, 20, 24, 32, 48, 64)
BUILD_TREES_PER_SIZE = 3
# longest_path_sort runs on fixed hosts, three per tree size above, not on
# random trees: its partial router `route_to_path` fails its own round-count
# assertion on about one random tree in 200 (n = 12 to 64, e.g.
# random_tree:12,205556668), which would fail one op on several seeds in a
# hundred. test_perfbench.py keeps that case as a strict expected failure;
# once it is fixed, random trees can come back here.
LONGEST_PATH_HOSTS = ("path:8", "star:8", "mesh:2,4",
                      "cycle:12", "mesh:3,4", "star:12",
                      "path:16", "mesh:4,4", "hypercube:4",
                      "mesh:4,5", "cycle:20", "complete:20",
                      "mesh:4,6", "path:24", "star:24",
                      "path:32", "mesh:4,8", "hypercube:5",
                      "cycle:48", "mesh:6,8", "path:48",
                      "mesh:8,8", "mesh:4,4,4", "path:64")
ZERO_ONE_MAX_N = 20
RANDOM_TRIALS = 1024
SPOT_INPUTS = 8

# oracle: exact_rt / exact_rt_p hosts with closed forms where known.
RT_HOSTS = ("path:7", "cycle:7", "star:7", "complete:7", "path:8")
RT_TREES = 2
RT_P_HOSTS = ("path:7", "cycle:7", "complete:7")
ST_HOSTS = ("path:5", "star:5")
ST_TREES = 2


def call(tr, span: str, fn, *args, **kwargs):
    """Call into the library, inside a span named after the layer."""
    if tr is None:
        return fn(*args, **kwargs)
    with tr.span(span):
        return fn(*args, **kwargs)


def call_verify(tr, fn, *args, **kwargs):
    """Like `call`, naming the span after the method the report names."""
    if tr is None:
        return fn(*args, **kwargs)
    with tr.span("verify") as rec:
        report = fn(*args, **kwargs)
        rec["name"] = "verify." + report.method
    return report


# ---------------------------------------------------------------------------
# independent re-derivations used by the checks


def replay_swaps(n: int, edges, stages):
    """Final vertex of each pebble, or an error string.

    Checks every stage is a matching of swaps on host edges.
    """
    at = list(range(n + 1))  # at[v] = pebble on vertex v
    for k, stage in enumerate(stages):
        used = set()
        for u, v, kind in stage:
            if kind != "swap":
                return f"stage {k}: {kind!r} in a routing plan"
            if (min(u, v), max(u, v)) not in edges:
                return f"stage {k}: ({u},{v}) is not a host edge"
            if u in used or v in used:
                return f"stage {k}: not a matching at ({u},{v})"
            used.update((u, v))
            at[u], at[v] = at[v], at[u]
    realized = [0] * n
    for v in range(1, n + 1):
        realized[at[v] - 1] = v
    return realized


def sorts(order, stages, keys) -> bool:
    """True when the stages leave `keys` nondecreasing along `order`."""
    k = list(keys)
    for stage in stages:
        for u, v, kind in stage:
            a, b = k[u - 1], k[v - 1]
            if kind == "swap" or b < a:
                k[u - 1], k[v - 1] = b, a
    by_rank = sorted(range(len(k)), key=lambda i: order[i])
    vals = [k[i] for i in by_rank]
    return all(x <= y for x, y in zip(vals, vals[1:]))


def diameter(n: int, edges) -> int:
    adj = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    best = 0
    for s in adj:
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        best = max(best, max(dist.values()))
    return best


def _dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# route: generate -> route_auto -> plan_to_json -> plan_from_json


class RouteOp:
    def __init__(self, lib, spec: str, pi: tuple, bound: int, router=None):
        self.lib = lib
        self.spec = spec
        self.pi = pi
        self.bound = bound
        self.router = router or lib.route_auto
        self.n = len(pi)
        self.name = f"route {spec}"
        self.key = ["route", spec, list(pi)]

    def run(self, tr):
        lib = self.lib
        g = call(tr, "graphs.generate", lib.generate, self.spec)
        plan = call(tr, "routing.route", self.router, g, self.pi)
        text = call(tr, "network.to_json", lib.plan_to_json, plan)
        back = call(tr, "network.from_json", lib.plan_from_json, text)
        return g, plan, text, back

    def check(self, out, full: bool):
        g, plan, _, back = out
        if back.depth > self.bound:
            return f"plan depth {back.depth} exceeds bound {self.bound}"
        if not full:
            return None
        if back.stages != plan.stages:
            return "reloaded plan differs from the routed one"
        realized = replay_swaps(self.n, g.edges, back.stages)
        if isinstance(realized, str):
            return realized
        if tuple(realized) != self.pi:
            return "plan does not realize the permutation"
        return None

    def canon(self, out):
        return out[2].encode()

    def depth(self, out):
        return out[3].depth, self.bound

    def counts(self, out):
        g, plan, text, back = out
        return {"graphs.edges": len(g.edges),
                "routing.calls": 1,
                "routing.swaps": sum(len(s) for s in plan.stages),
                "routing.depth": plan.depth,
                "routing.bound": self.bound,
                "network.json_bytes": len(text),
                "network.stages_loaded": back.depth,
                "network.comparators_loaded": sum(len(s) for s in back.stages)}


def route_ops(lib, rng: random.Random) -> list:
    trees = [(f"random_tree:{n},{rng.randrange(1 << 30)}", 1)
             for n in ROUTE_TREE_SIZES for _ in range(ROUTE_TREES_PER_SIZE)]
    ops = []
    for spec, perms in trees + list(ROUTE_HOSTS):
        g = lib.generate(spec)
        bound = lib.route_depth_bound(g)
        for _ in range(perms):
            pi = list(range(1, g.n + 1))
            rng.shuffle(pi)
            ops.append(RouteOp(lib, spec, tuple(pi), bound))
    return ops


# ---------------------------------------------------------------------------
# build_verify: build -> network_to_json -> network_from_json -> verify


class BuildOp:
    def __init__(self, lib, name: str, specs: tuple, build, seed: int):
        self.lib = lib
        self.name = name
        self.specs = specs  # host specs generated inside the op
        self.build = build  # build(*graphs) -> SortingNetwork
        self.seed = seed
        self.key = ["build_verify", name, list(specs), seed]

    def run(self, tr):
        lib = self.lib
        hosts = [call(tr, "graphs.generate", lib.generate, s)
                 for s in self.specs]
        net = call(tr, "constructions.build", self.build, *hosts)
        text = call(tr, "network.to_json", lib.network_to_json, net)
        back = call(tr, "network.from_json", lib.network_from_json, text)
        if back.graph.n <= ZERO_ONE_MAX_N:
            report = call_verify(tr, lib.verify_auto, back)
        else:
            report = call_verify(tr, lib.verify_random, back,
                                 trials=RANDOM_TRIALS, seed=self.seed)
        return hosts, net, text, back, report

    def check(self, out, full: bool):
        _, net, _, back, report = out
        if not report.passed:
            return f"{report.method} verification failed: {report.detail}"
        if net.certificate is None:
            return "network has no depth certificate"
        bound = net.certificate["claimed_bound"]
        if back.depth > bound:
            return f"depth {back.depth} exceeds claimed bound {bound}"
        if not full:
            return None
        if back.stages != net.stages or back.order != net.order:
            return "reloaded network differs from the built one"
        rng = random.Random(self.seed)
        n = back.graph.n
        for _ in range(SPOT_INPUTS):
            keys = [rng.randrange(n) for _ in range(n)]
            if not sorts(back.order, back.stages, keys):
                return f"network leaves {keys} unsorted"
        return None

    def canon(self, out):
        return out[2].encode()

    def depth(self, out):
        net = out[1]
        return net.depth, net.certificate["claimed_bound"]

    def counts(self, out):
        hosts, net, text, back, report = out
        comparators = net.comparator_count()
        return {"graphs.edges": sum(len(g.edges) for g in hosts),
                "constructions.calls": 1,
                "constructions.comparators": comparators,
                "constructions.depth": net.depth,
                "constructions.bound": net.certificate["claimed_bound"],
                "network.json_bytes": len(text),
                "network.stages_loaded": back.depth,
                "network.comparators_loaded": back.comparator_count(),
                "verify.inputs_checked": report.inputs_checked,
                "verify.cmp_evals": comparators * report.inputs_checked,
                "verify.failed": int(not report.passed)}


def build_ops(lib, rng: random.Random) -> list:
    def seed():
        return rng.randrange(1 << 30)

    def simulate(g):
        return lib.simulate_complete(g, lib.batcher_complete(g.n))

    table = [
        ("odd_even 20", (), lambda: lib.odd_even_transposition(20)),
        ("odd_even 64", (), lambda: lib.odd_even_transposition(64)),
        ("bitonic 4", (), lambda: lib.bitonic_hypercube(4)),
        ("bitonic 6", (), lambda: lib.bitonic_hypercube(6)),
        ("batcher 20", (), lambda: lib.batcher_complete(20)),
        ("batcher 64", (), lambda: lib.batcher_complete(64)),
    ]
    for n in BUILD_TREE_SIZES:
        for _ in range(BUILD_TREES_PER_SIZE):
            table.append(("contour", (f"random_tree:{n},{seed()}",),
                          lib.contour_tree_sort))
    table += [("longest_path", (spec,), lib.longest_path_sort)
              for spec in LONGEST_PATH_HOSTS]
    table += [
        ("product 4x5", ("path:4", "path:5"), lib.product_sort),
        ("product 8x8", ("path:8", "path:8"), lib.product_sort),
        ("simulate_complete", ("multipartite:4,5",), simulate),
        ("simulate_complete", ("multipartite:8,8",), simulate),
        ("pyramid 3,2", (), lambda: lib.pyramid_sort(3, 2)),
        ("pyramid 4,2", (), lambda: lib.pyramid_sort(4, 2)),
    ]
    return [BuildOp(lib, " ".join((name,) + specs), specs, build, seed())
            for name, specs, build in table]


# ---------------------------------------------------------------------------
# oracle: sandwich_check / exact_st / exact_rt / exact_rt_p


class OracleOp:
    """One oracle call on a graph given by spec, or by the graph itself."""

    def __init__(self, lib, kind: str, host, n: int, edges, bound: int):
        self.lib = lib
        self.kind = kind  # "sandwich", "st", "rt" or "rt_p"
        self.host = host  # a spec string, generated inside the op, or a Graph
        self.n = n
        self.bound = bound  # route_depth_bound of the host
        self.diam = diameter(n, edges)
        label = host if isinstance(host, str) else \
            f"n={n} edges={sorted(edges)}"
        self.name = f"{kind} {label}"
        self.key = ["oracle", kind, label]

    def run(self, tr):
        lib = self.lib
        g = self.host
        if isinstance(g, str):
            g = call(tr, "graphs.generate", lib.generate, g)
        if self.kind == "sandwich":
            return g, call(tr, "verify.sandwich", lib.sandwich_check, g)
        if self.kind == "st":
            return g, call(tr, "verify.st", lib.exact_st, g)
        if self.kind == "rt":
            return g, call(tr, "verify.rt", lib.exact_rt, g)
        return g, call(tr, "verify.rt_p", lib.exact_rt_p, g, 2)

    def _rt_value(self, res):
        return res.data["rt"] if self.kind == "sandwich" else res.value

    def check(self, out, full: bool):
        g, res = out
        family = self.host.partition(":")[0] if isinstance(self.host, str) \
            else None
        if self.kind == "sandwich" and not res.passed:
            return f"sandwich violated: {res.detail}"
        if self.kind == "st":
            if family == "path" and res.value != self.n:
                return f"st(P_{self.n}) = {res.value}, expected {self.n}"
            net = res.witness
            if net.depth != res.value:
                return f"st witness depth {net.depth} != value {res.value}"
            for x in range(1 << self.n):
                keys = [(x >> i) & 1 for i in range(self.n)]
                if not sorts(net.order, net.stages, keys):
                    return f"st witness leaves 0-1 input {x} unsorted"
            return None
        rt = self._rt_value(res)
        expected = None
        if self.kind == "rt":
            expected = {"path": self.n, "complete": 2,
                        "star": 3 * (self.n - 1) // 2}.get(family)
            if sorted(res.witness) != list(range(1, self.n + 1)):
                return "rt witness is not a permutation"
        elif self.kind == "rt_p" and family == "complete":
            expected = 1
        if expected is not None and rt != expected:
            return f"{self.kind}({self.host}) = {rt}, expected {expected}"
        if not self.diam <= rt <= self.bound:
            return (f"{self.kind} = {rt} outside [diameter {self.diam}, "
                    f"planner bound {self.bound}]")
        return None

    def canon(self, out):
        _, res = out
        if self.kind == "sandwich":
            data = res.data
            return _dump([self.kind, res.passed, data["rt"], data["st_min"],
                          sorted([list(k), v]
                                 for k, v in data["st_by_order"].items())])
        if self.kind == "st":
            net = res.witness
            return _dump([self.kind, res.value, list(net.order),
                          [list(map(list, s)) for s in net.stages]])
        if self.kind == "rt":
            return _dump([self.kind, res.value, list(res.witness)])
        sources, mapping = res.witness
        return _dump([self.kind, res.value, list(sources),
                      sorted(mapping.items())])

    def depth(self, out):
        if self.kind == "st":
            return None
        return self._rt_value(out[1]), self.bound

    def counts(self, out):
        g, res = out
        c = {"graphs.edges": len(g.edges) if isinstance(self.host, str) else 0}
        if self.kind == "st":
            c["verify.st_states"] = res.explored
        elif self.kind in ("rt", "rt_p"):
            c["verify.rt_states"] = res.explored
        return c


def oracle_ops(lib, rng: random.Random) -> list:
    def op(kind, host):
        g = lib.generate(host) if isinstance(host, str) else host
        return OracleOp(lib, kind, host, g.n, g.edges,
                        lib.route_depth_bound(g))

    small = [g for n in range(1, lib.verify.ST_CAP + 1)
             for g in lib.verify.connected_graphs_upto_iso(n)]
    ops = [op("sandwich", g) for g in small]
    trees5 = [f"random_tree:5,{rng.randrange(1 << 30)}" for _ in range(ST_TREES)]
    ops += [op("st", s) for s in ST_HOSTS + tuple(trees5)]
    trees7 = [f"random_tree:7,{rng.randrange(1 << 30)}" for _ in range(RT_TREES)]
    ops += [op("rt", s) for s in RT_HOSTS + tuple(trees7)]
    ops += [op("rt_p", s) for s in RT_P_HOSTS]
    return ops


WORKLOADS = {"route": route_ops, "build_verify": build_ops,
             "oracle": oracle_ops}


def make_ops(workload: str, lib, seed: int) -> list:
    """The workload's op list; the same seed gives the same inputs."""
    rng = random.Random(f"matchnet-bench/{workload}/{seed}")
    return WORKLOADS[workload](lib, rng)
