"""Sorting networks restricted to graph edges, and their execution.

A stage is a tuple of comparator triples (u, v, kind) whose edges form a
matching of the host graph:

- kind "dir":  compare-exchange; after the stage vertex u holds the
  smaller key and v the larger.  Orientation is positional, so (u, v)
  and (v, u) are different comparators.
- kind "swap": unconditional exchange of the two keys.

A network carries a target order: a permutation pi where pi[v-1] is the
rank vertex v must hold once sorting finishes, i.e. reading vertices in
increasing rank gives nondecreasing keys.

A routing plan is the swap-only special case; its semantic payload is
the realized permutation (pebble starting at v ends at realized[v-1]),
which is recomputed by simulation and never trusted from input.

run_stages is the one simulation kernel: execute, plan_realized, the
verifiers and the st stage tables hand it one column per vertex and a
compare-exchange, so only it knows how comparators act on values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from . import graphs, perms
from .errors import ConstructionError, StructureError, TaskError

DIR = "dir"
SWAP = "swap"

Comparator = tuple  # (u, v, kind)
Stage = tuple  # tuple of Comparator


def make_stage(g: graphs.Graph, comparators: Sequence) -> Stage:
    """Validate and freeze one stage: edges exist and form a matching."""
    edges = g.edges
    seen: set[int] = set()
    out = []
    for u, v, kind in comparators:
        if kind not in (DIR, SWAP):
            raise StructureError(f"bad comparator kind {kind!r}")
        if ((u, v) if u < v else (v, u)) not in edges:
            raise ConstructionError(f"({u},{v}) is not an edge of the host graph")
        if u in seen or v in seen:
            raise ConstructionError(f"stage is not a matching at ({u},{v})")
        seen.add(u)
        seen.add(v)
        if kind == SWAP and u > v:
            u, v = v, u
        out.append((u, v, kind))
    return tuple(out)


@dataclass(frozen=True)
class SortingNetwork:
    graph: graphs.Graph
    order: tuple  # target ranks, order[v-1] = rank of vertex v
    stages: tuple  # tuple of Stage
    provenance: dict = field(default_factory=dict, compare=False)
    certificate: dict | None = field(default=None, compare=False)

    @property
    def depth(self) -> int:
        return len(self.stages)

    def comparator_count(self) -> int:
        return sum(len(s) for s in self.stages)


def make_network(g: graphs.Graph, order: Sequence[int], stages: Sequence,
                 provenance: dict | None = None,
                 certificate: dict | None = None) -> SortingNetwork:
    order = perms.check_permutation(order, g.n)
    frozen = tuple(make_stage(g, s) for s in stages)
    return SortingNetwork(graph=g, order=order, stages=frozen,
                          provenance=provenance or {},
                          certificate=certificate)


@dataclass(frozen=True)
class RoutingPlan:
    graph: graphs.Graph
    stages: tuple  # swap-only stages
    realized: tuple  # realized[v-1] = final vertex of the pebble from v

    @property
    def depth(self) -> int:
        return len(self.stages)


def make_plan(g: graphs.Graph, stages: Sequence) -> RoutingPlan:
    frozen = []
    for s in stages:
        for u, v, kind in s:
            if kind != SWAP:
                raise StructureError("routing plans may only contain swaps")
        frozen.append(make_stage(g, s))
    realized = plan_realized(g.n, frozen)
    return RoutingPlan(graph=g, stages=tuple(frozen), realized=realized)


def plan_realized(n: int, stages: Sequence) -> tuple:
    """Where swap-only stages take each pebble: the one from v ends at [v-1]."""
    return perms.inverse(run_stages(stages, list(range(1, n + 1)), None))


# ---------------------------------------------------------------------------
# execution


def run_stages(stages: Sequence, cols: list, cx) -> list:
    """Run every stage over cols in place, cols[v-1] = what vertex v holds.

    A swap exchanges two entries; a dir comparator (u, v) sets
    (cols[u-1], cols[v-1]) = cx(a, b).  Returns cols.
    """
    for s in stages:
        for u, v, kind in s:
            a, b = cols[u - 1], cols[v - 1]
            cols[u - 1], cols[v - 1] = cx(a, b) if kind == DIR else (b, a)
    return cols


def execute(net: SortingNetwork | RoutingPlan, keys: Sequence) -> list:
    """Run every stage over a pebble configuration (keys[v-1] on vertex v)."""
    if len(keys) != net.graph.n:
        raise TaskError(f"expected {net.graph.n} keys, got {len(keys)}")
    return run_stages(net.stages, list(keys),
                      lambda a, b: (b, a) if b < a else (a, b))


def is_sorted_for(order: Sequence[int], keys: Sequence) -> bool:
    """Keys read along increasing rank are nondecreasing."""
    ranked = [keys[v - 1] for v in perms.inverse(order)]
    return not any(b < a for a, b in zip(ranked, ranked[1:]))


def concatenate(a: SortingNetwork, b: SortingNetwork) -> SortingNetwork:
    """Run a's stages then b's; both must share the host graph."""
    if a.graph.n != b.graph.n or a.graph.edges != b.graph.edges:
        raise StructureError("concatenate needs the same host graph")
    return SortingNetwork(graph=a.graph, order=b.order,
                          stages=a.stages + b.stages,
                          provenance={"concat": [a.provenance, b.provenance]},
                          certificate=None)


# ---------------------------------------------------------------------------
# serialization


def _stages_doc(stages: Sequence) -> list:
    return [{"cmp": [[u, v, kind] for u, v, kind in s]} for s in stages]


def network_to_json(net: SortingNetwork) -> str:
    doc = {
        "version": 1,
        "graph": graphs.graph_doc(net.graph),
        "order": list(net.order),
        "stages": _stages_doc(net.stages),
    }
    if net.provenance:
        doc["provenance"] = net.provenance
    if net.certificate is not None:
        doc["certificate"] = net.certificate
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def plan_to_json(plan: RoutingPlan) -> str:
    doc = {
        "version": 1,
        "graph": graphs.graph_doc(plan.graph),
        "order": list(plan.realized),
        "stages": _stages_doc(plan.stages),
        "plan": True,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _read(text: str) -> tuple[graphs.Graph, list, dict]:
    """Host graph, comparator lists and document of network or plan JSON."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise StructureError(f"bad network JSON: {e}") from e
    if not isinstance(doc, dict) or doc.get("version") != 1:
        raise StructureError("unsupported network JSON version")
    for key in ("graph", "order", "stages"):
        if key not in doc:
            raise StructureError(f"network JSON missing {key!r}")
    try:
        stages = [[(c[0], c[1], c[2]) for c in s["cmp"]] for s in doc["stages"]]
    except (KeyError, IndexError, TypeError) as e:
        raise StructureError(f"malformed stage in network JSON: {e!r}") from e
    return graphs.graph_from_doc(doc["graph"]), stages, doc


def network_from_json(text: str) -> SortingNetwork:
    g, stages, doc = _read(text)
    return make_network(g, doc["order"], stages,
                        provenance=doc.get("provenance") or {},
                        certificate=doc.get("certificate"))


def plan_from_json(text: str) -> RoutingPlan:
    g, stages, doc = _read(text)
    plan = make_plan(g, stages)
    stored = doc.get("order")
    if stored is not None and tuple(stored) != plan.realized:
        raise StructureError("stored plan permutation disagrees with simulation")
    return plan
