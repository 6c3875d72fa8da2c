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
compare-exchange.  It works on the caller's list in place, with one
leading slot for the run so that vertex v is cols[v]; a copy would keep
every replaced column alive (the 0-1 verifier's are 2^n bits each).

_freeze is the one validation kernel: make_network, make_plan, the
readers and routing._plan hand it a whole stage list.  A stage object
that recurs, as the contour and pyramid sorters' rounds do, is checked
once and frozen into one tuple that every repeat shares; repeats are
found by identity, as hashing every stage would cost more than they
save.  The identity pass finds the distinct comparator objects with one
np.unique of their ids; routing._checked and the reader already hold
that table (cmps, which, lens) and hand it in.  The array pass checks
each distinct comparator once: an allowed kind, plain-int ids in 1..n
(range first: (0, 7) on n = 4 keys like edge (1, 2)), membership by one
searchsorted against the graph's sorted edge keys, and the matching test
by one sort of (stage, vertex) keys.  Swaps with u > v are flipped, and
only the stages that hold one are rebuilt.  When a check fails, the
distinct stages go through make_stage in order of first appearance, so
the error is the one make_stage on every stage would raise; make_stage
is the single-stage API and the only per-comparator loop.

The writers put out exactly graphs.dumps of the whole document, each
distinct comparator formatted once, with "stages" and "version" appended
after the head, as they sort after every other key.  A stage that is not
a tuple of canonical triples can only be built by hand; they refuse it.

_read is the one reader.  A document as the writers put it out ends in
],"version":1}, and its stage body, after the last ,"stages":[, is read
without a parse tree: the ids through np.fromstring, the kinds from their
s and d bytes, the stage bounds from the { bytes.  It is taken only when
_stage_texts rebuilds it byte for byte; equal stage texts share one tuple,
and _freeze gets the table of the distinct ones.  Any other text is
parsed, its version (exactly the int 1) and top-level keys checked, and
written back with graphs.dumps and read the same way, at the same call
depth, so a document nested near the recursion limit gets one answer.  A
stage body declined even then is refused with one StructureError that
states the stage rule.  The host goes through graphs.graph_from_doc, and
its order must be null.  A comparator or order fault in a file is
malformed input, raised as StructureError; builders keep
ConstructionError and TaskError.  Neither reader takes the other's
document, refused after the stage checks so that a bad comparator gets
one text from either.

_gc_paused keeps CPython's cyclic collector out of routing.route_auto,
plan_from_json and network_from_json: they allocate hundreds of
thousands of tuples that stay alive, and each full collection would
rescan them all for nothing.  The covered code makes no reference cycles
(a test requires gc.collect() == 0 after it), so the pause holds back no
garbage; it restores the collector's state on the way out, and the
readers drop their parse inside it.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Sequence

import numpy as np

from . import graphs, perms
from .errors import ConstructionError, StructureError, TaskError

DIR = "dir"
SWAP = "swap"

Comparator = tuple  # (u, v, kind)
Stage = tuple  # tuple of Comparator


@contextmanager
def _gc_paused():
    """Disable the cyclic collector for the block (see the module docstring).

    It is re-enabled on the way out, also on an exception, only if it was
    on before, so pauses nest and a caller's gc.disable() is kept.
    """
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


def make_stage(g: graphs.Graph, comparators: Sequence) -> Stage:
    """Validate and freeze one stage: edges exist and form a matching.

    Vertex ids must be plain ints (a bool or float is refused, though it
    would hash like an int).
    """
    edges = g.edges
    seen: set[int] = set()
    out = []
    for u, v, kind in comparators:
        if kind not in (DIR, SWAP):
            raise StructureError(f"bad comparator kind {kind!r}")
        if type(u) is not int or type(v) is not int:
            raise StructureError(f"comparator ({u!r},{v!r}) has a "
                                 f"non-integer vertex id")
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
    return SortingNetwork(graph=g, order=order, stages=_freeze(g, stages),
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
    frozen = _freeze(g, stages, swaps_only=True)
    return RoutingPlan(graph=g, stages=frozen,
                       realized=plan_realized(g.n, frozen))


def _freeze(g: graphs.Graph, stages, swaps_only: bool = False,
            table: tuple | None = None) -> tuple:
    """Validate and freeze a whole stage list (see the module docstring).

    The result equals make_stage on every stage, after make_plan's
    swap-only test when swaps_only; so does any exception raised.  A
    producer that holds the table (cmps, which, lens, as _passed reads
    it) of the stages _freeze keeps, the first of each repeated stage
    object in order, hands it in, and the identity pass is skipped.
    """
    stages = list(stages)  # keeps every caller's stage, and so its id, alive
    at = None  # where each stage's frozen one is, when a stage object repeats
    if len(set(map(id, stages))) < len(stages):
        first, at, distinct = {}, [], []
        for k, s in enumerate(stages):  # an iterator yields once: no repeat
            key = id(s) if type(s) in (tuple, list) else -1 - k
            if key not in first:
                first[key] = len(distinct)
                distinct.append(s)
            at.append(first[key])
        stages = distinct
    held = []  # each iterated once, so generators survive a retry
    for s in stages:
        try:
            held.append(s if type(s) is tuple else tuple(s))
        except TypeError:
            held.append(s)  # not iterable: make_stage raises on it below
    try:
        if table is None:
            frozen = _checked(g, held, swaps_only)
        elif list(table[2]) != list(map(len, held)) \
                or len(table[1]) != sum(table[2]):
            frozen = None  # a table that disagrees with the stages
        else:
            frozen = _passed(g, held, swaps_only, table)
    except (TypeError, ValueError, OverflowError):
        frozen = None  # malformed comparators: make_stage names the fault
    if frozen is None:  # a repeat passed where it first appeared, so this
        frozen = []  # raises what make_stage on every stage would
        for s in held:
            if swaps_only and any(kind != SWAP for _, _, kind in s):
                raise StructureError("routing plans may only contain swaps")
            frozen.append(make_stage(g, s))
    return tuple(frozen if at is None else map(frozen.__getitem__, at))


def _checked(g: graphs.Graph, held: list, swaps_only: bool) -> tuple | None:
    """_freeze's check of stages that come without a table: the identity
    pass (_distinct over every occurrence, and the stage lengths), then
    the array pass."""
    cmps, which = _distinct(list(chain.from_iterable(held)))
    return _passed(g, held, swaps_only, (cmps, which, list(map(len, held))))


def _passed(g: graphs.Graph, held: list, swaps_only: bool,
            table: tuple) -> tuple | None:
    """The array pass of _freeze: frozen stages, or None on any fault.

    table is (cmps, which, lens) of held: the distinct comparator
    objects, each occurrence's index into cmps, and each stage's length.
    Each comparator object is checked once, however many stages hold it:
    only the matching test reads every occurrence.
    """
    cmps, which, lens = table
    if not len(which):
        return tuple(held)
    if set(map(len, cmps)) != {3}:
        return None
    cells = list(chain.from_iterable(cmps))
    us, vs, ks = cells[0::3], cells[1::3], cells[2::3]
    del cells
    if not set(ks) <= ({SWAP} if swaps_only else {DIR, SWAP}) \
            or set(map(type, us)) | set(map(type, vs)) != {int}:
        return None
    n, d = g.n, len(cmps)
    uv = np.fromiter(chain(us, vs), np.int32, 2 * d)  # OverflowError past 2^31
    del us, vs
    if uv.min() < 1 or uv.max() > n:  # before keying: (0, 7) keys (1, 2)
        return None
    u, v = uv[:d], uv[d:]
    key = np.minimum(u, v).astype(np.int64) * (n + 1) + np.maximum(u, v)
    edge_keys = graphs.edge_keys(g)
    if not len(edge_keys) or (edge_keys.take(np.searchsorted(
            edge_keys, key), mode="clip") != key).any():
        return None
    del key
    stage = np.repeat(np.arange(len(held), dtype=np.int64), lens)
    ends = np.sort(uv.reshape(2, d)[:, which] + stage * (n + 1), axis=None)
    if (ends[1:] == ends[:-1]).any():
        return None
    del ends
    # swaps with u > v are flipped and other sequences made tuples; only
    # the stages that hold one are rebuilt
    change = [i for i in np.flatnonzero(u > v).tolist() if ks[i] == SWAP]
    change += [i for i, t in enumerate(map(type, cmps)) if t is not tuple]
    del uv, u, v
    if not change:
        return tuple(held)
    cmps = list(cmps)  # the producer's table stays as it was
    for i in change:
        a, b, kind = cmps[i]
        cmps[i] = (b, a, SWAP) if kind == SWAP and a > b else (a, b, kind)
    changed = np.zeros(d, bool)
    changed[change] = True
    frozen = list(held)
    bounds = list(accumulate(lens, initial=0))
    for k in np.unique(stage[changed[which]]).tolist():
        frozen[k] = tuple(map(cmps.__getitem__,
                              which[bounds[k]:bounds[k + 1]].tolist()))
    return tuple(frozen)


def _distinct(flat: list) -> tuple[list, np.ndarray]:
    """Each object of flat once, keyed by identity, and for each item of
    flat its index in that list."""
    ids, which = np.unique(np.fromiter(map(id, flat), np.intp, len(flat)),
                           return_inverse=True)
    # any occurrence stands for its object (return_index would sort stably)
    ids[which] = np.arange(len(flat))
    return list(map(flat.__getitem__, ids.tolist())), which


def plan_realized(n: int, stages: Sequence) -> tuple:
    """Where swap-only stages take each pebble: the one from v ends at [v-1]."""
    return perms.inverse(run_stages(stages, list(range(1, n + 1)), None))


# ---------------------------------------------------------------------------
# execution


def run_stages(stages: Sequence, cols: list, cx) -> list:
    """Run every stage over cols in place, cols[v-1] = what vertex v holds.

    A swap exchanges two entries; a dir comparator (u, v) sets
    (cols[u-1], cols[v-1]) = cx(a, b).  Returns cols.  For the run, cols
    holds one leading slot, so vertex v is cols[v]; the slot goes again
    on the way out, also when cx raises.
    """
    cols.insert(0, None)
    try:
        for s in stages:
            for u, v, kind in s:
                if kind == SWAP:
                    cols[u], cols[v] = cols[v], cols[u]
                else:
                    cols[u], cols[v] = cx(cols[u], cols[v])
    finally:
        del cols[0]
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
    if a.graph.n != b.graph.n or not np.array_equal(
            graphs.edge_keys(a.graph), graphs.edge_keys(b.graph)):
        raise StructureError("concatenate needs the same host graph")
    return SortingNetwork(graph=a.graph, order=b.order,
                          stages=a.stages + b.stages,
                          provenance={"concat": [a.provenance, b.provenance]},
                          certificate=None)


# ---------------------------------------------------------------------------
# serialization


_RULE = ('each stage must be {"cmp": [[u, v, kind], ...]}, with integer '
         'vertex ids u, v in 1..n and kind "dir" or "swap"')


def _cmp_texts(cmps: list) -> list:
    """Each comparator as graphs.dumps writes it, [u,v,"kind"]; equal ones
    are equal text, so each value is formatted once.  Anything but a
    canonical triple (exact-int ids, a str kind equal to "dir" or "swap",
    as _freeze keeps them) is refused."""
    if {tuple}.issuperset(map(type, cmps)) and {3}.issuperset(map(len, cmps)):
        cells = list(chain.from_iterable(cmps))
        ends, kinds = cells[0::3] + cells[1::3], cells[2::3]
        if {int}.issuperset(map(type, ends)) \
                and all(issubclass(t, str) for t in set(map(type, kinds))) \
                and {DIR, SWAP}.issuperset(kinds):
            values = list(dict.fromkeys(cmps))
            text = dict(zip(values, [f'[{u},{v},"{kind}"]'
                                     for u, v, kind in values]))
            return list(map(text.__getitem__, cmps))
    raise StructureError(f"cannot write a malformed stage: {_RULE}")


_SPLIT, _TAIL = ',"stages":[', '],"version":1}'


def _stage_texts(cmps: list, which: np.ndarray, lens) -> list:
    """Each stage's text, {"cmp":[...]}, as graphs.dumps writes it: cmps
    are the distinct comparators, which is each occurrence's index into
    cmps, and lens are the stage lengths."""
    texts = np.array(_cmp_texts(cmps), object)[which].tolist()
    bounds = list(accumulate(lens, initial=0))
    return ['{"cmp":[' + ",".join(texts[a:b]) + "]}"
            for a, b in zip(bounds, bounds[1:])]


def _to_json(head: dict, stages: Sequence) -> str:
    """graphs.dumps of head with "stages" and "version" added (both sort
    after every head key), each distinct comparator's text built once."""
    stages = list(stages)
    if not {tuple}.issuperset(map(type, stages)):
        raise StructureError(f"cannot write a malformed stage: {_RULE}")
    cmps, which = _distinct(list(chain.from_iterable(stages)))
    return graphs.dumps(head)[:-1] + _SPLIT \
        + ",".join(_stage_texts(cmps, which, map(len, stages))) + _TAIL


def network_to_json(net: SortingNetwork) -> str:
    head = {"graph": graphs.graph_doc(net.graph), "order": list(net.order)}
    if net.provenance:
        head["provenance"] = net.provenance
    if net.certificate is not None:
        head["certificate"] = net.certificate
    return _to_json(head, net.stages)


def plan_to_json(plan: RoutingPlan) -> str:
    return _to_json({"graph": graphs.graph_doc(plan.graph),
                     "order": list(plan.realized), "plan": True}, plan.stages)


def _read(text: str) -> tuple[graphs.Graph, list, dict, tuple]:
    """Host graph, stage tuples, whichever of order, provenance,
    certificate and plan flag a network or plan JSON document carries,
    and the stages' table for _freeze; the rest of the parse is dropped."""
    read = _read_canonical(text)
    if read is None:
        doc = graphs.loads(text, "network")
        if type(doc) is not dict or type(doc.get("version")) is not int \
                or doc["version"] != 1:
            raise StructureError("unsupported network JSON version")
        _check_head(doc)
        text = graphs.dumps(doc)
        del doc
        read = _read_canonical(text)
        if read is None:
            raise StructureError(f"malformed stage in network JSON: {_RULE}")
    return read


_DIGITS = bytes(c if 48 <= c <= 57 else 32 for c in range(256))  # 1:1
_ID_CAP = 2 ** 31  # u * _ID_CAP + v, doubled, plus the kind, fits int64
_KINDS = np.array([DIR, SWAP], object)


def _read_canonical(text: str) -> tuple | None:
    """What _read returns or raises on a text as the writers put it out
    (trailing whitespace allowed); None on any other text."""
    if type(text) is not str:
        return None
    text = text.rstrip(" \t\n\r")
    at = text.rfind(_SPLIT)
    if at < 0 or not text.endswith(_TAIL):
        return None
    body = text[at + len(_SPLIT):len(text) - len(_TAIL)]
    if not body.isascii():
        return None
    raw = body.encode()
    cells = np.frombuffer(raw, np.uint8)
    kind_at = np.flatnonzero((cells == ord("s")) | (cells == ord("d")))
    d = len(kind_at)
    # np.fromstring reads a text of spaces only as [0]
    ids = np.fromstring(raw.translate(_DIGITS), np.int64, sep=" ") if d \
        else np.zeros(0, np.int64)
    lens = np.diff(np.searchsorted(kind_at, np.flatnonzero(cells == ord("{"))),
                   append=d).tolist()
    if len(ids) != 2 * d or d and ids.max() >= _ID_CAP:
        return None
    key = (ids[0::2] * _ID_CAP + ids[1::2]) * 2 + (cells[kind_at] == ord("s"))
    del raw, cells, kind_at, ids
    keys, which = np.unique(key, return_inverse=True)
    del key
    cmps = list(zip((keys >> 32).tolist(), (keys >> 1 & _ID_CAP - 1).tolist(),
                    _KINDS[keys & 1].tolist()))
    texts = _stage_texts(cmps, which, lens)
    if ",".join(texts) != body:
        return None
    del body
    try:
        doc = json.loads(text[:at] + "}")
    except (ValueError, RecursionError):
        return None
    if type(doc) is not dict or not doc:
        return None
    # json.loads(text) is doc with "stages" and "version" set, as the last
    # of equal keys wins; equal stage texts share one tuple
    occ = np.fromiter(cmps, object, len(cmps))[which].tolist()
    bounds = list(accumulate(lens, initial=0))
    last = dict(zip(texts, range(len(texts))))
    built = {t: tuple(occ[bounds[k]:bounds[k + 1]]) for t, k in last.items()}
    doc["stages"] = stages = list(map(built.__getitem__, texts))
    _check_head(doc)
    if len(last) < len(texts):  # the table of the stages _freeze keeps
        which = np.concatenate([which[bounds[k]:bounds[k + 1]]
                                for k in last.values()])
        lens = list(map(lens.__getitem__, last.values()))
    kept = {k: doc[k] for k in ("order", "provenance", "certificate", "plan")
            if k in doc}  # the graph is built last, after the stage checks
    g = graphs.graph_from_doc(doc["graph"])
    if doc["graph"].get("order") is not None:  # graph_doc writes it null
        raise StructureError("network JSON graph order must be null")
    return g, stages, kept, (cmps, which, lens)


_KEYS = {"certificate", "graph", "order", "plan", "provenance", "stages",
         "version"}


def _check_head(doc: dict) -> None:
    """The top-level keys' checks, on a parsed document or a canonical
    head with its stages."""
    for key in ("graph", "order", "stages"):
        if key not in doc:
            raise StructureError(f"network JSON missing {key!r}")
    if type(doc["order"]) is not list \
            or not {int}.issuperset(map(type, doc["order"])):
        raise StructureError("network JSON order must be a list of integers")
    if not _KEYS.issuperset(doc):
        raise StructureError("network JSON has an unknown top-level key "
                             f"{min(set(doc) - _KEYS)!r}")


def network_from_json(text: str) -> SortingNetwork:
    with _gc_paused():
        g, stages, doc, table = _read(text)
        try:  # make_network, handing _freeze the table
            order = perms.check_permutation(doc["order"], g.n)
            net = SortingNetwork(g, order, _freeze(g, stages, table=table),
                                 provenance=doc.get("provenance") or {},
                                 certificate=doc.get("certificate"))
        except (ConstructionError, TaskError) as e:  # a bad comparator or
            raise StructureError(str(e)) from e  # order in the file
        if "plan" in doc:
            raise StructureError('network JSON must not carry "plan": '
                                 'it is a routing plan (read it as one)')
    cert = net.certificate
    if cert is not None and not (
            type(cert) is dict and type(cert.get("achieved_depth")) is int
            and type(cert.get("claimed_bound")) is int
            and cert["claimed_bound"] >= max(cert["achieved_depth"], net.depth)):
        raise StructureError(
            "network JSON certificate must have integer achieved_depth and "
            f"claimed_bound, the bound no lower than it or {net.depth} stages")
    return net


def plan_from_json(text: str) -> RoutingPlan:
    with _gc_paused():
        g, stages, doc, table = _read(text)
        if doc.get("plan") is not True:  # plan_to_json writes it as true
            raise StructureError('plan JSON must have "plan": true')
        try:  # make_plan, handing _freeze the table
            frozen = _freeze(g, stages, swaps_only=True, table=table)
        except ConstructionError as e:  # a bad comparator in the file
            raise StructureError(str(e)) from e
        plan = RoutingPlan(g, frozen, plan_realized(g.n, frozen))
        for key in ("provenance", "certificate"):
            if key in doc:
                raise StructureError(f"plan JSON must not carry {key!r}: "
                                     "it is a network's key")
    if tuple(doc["order"]) != plan.realized:
        raise StructureError("stored plan permutation disagrees with simulation")
    return plan
