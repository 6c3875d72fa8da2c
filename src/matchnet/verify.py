"""Verification of networks and exact brute-force oracles.

Verification methods, each running the stages through the shared kernel
network.run_stages (one column per vertex) with its own compare-exchange:

- verify_zero_one: all 2^n binary inputs at once, one big-int bitmask per
  vertex (bit x of mask v = value at v on input x).  A comparator is one
  AND plus one OR; the sortedness test is an implication check between
  consecutive ranks.  Sound and complete for sorting by the 0-1 principle.
- verify_exhaustive: all n! distinct-key inputs, one numpy column per
  vertex (entry i = value on input i), compared with np.minimum and
  np.maximum; a swap exchanges two column references.  n >= 11 is
  refused whatever the cap (EXHAUSTIVE_LIMIT).
- verify_random: the same columns over seeded blocks of permutations and
  of keys with repeats.

Oracles (small n, exact):

- exact_rt / exact_rt_partial / exact_rt_p: one BFS over pebble
  arrangements (at[v-1] = pebble on v, 0 for an untracked pebble) where
  one move applies any matching of the graph as parallel swaps, each
  matching precomputed as an index permutation.  The partial oracles
  start it from the arrangement of A and read each assignment's
  distance.  n >= 10 is refused whatever the cap (RT_LIMIT).
- exact_st: BFS over network prefixes.  Two prefixes are interchangeable
  when they have the same image set on binary inputs (any suffix sorts
  one iff it sorts the other), so the state is the set of reachable 0-1
  configurations, packed as a bitmask over the 2^n possible configs.  A
  prefix sorts toward pi iff its image set lies inside the n+1 pi-sorted
  configs.  One BFS therefore answers st(G, pi) for every pi at once;
  each stage acts through byte lookup tables built with numpy over the
  2^n configurations.
- sandwich_check: one st BFS for all orders (st(G) is the minimum) and
  one rt BFS.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import graphs, network, perms
from .errors import CapError, ConstructionError, ParameterError, TaskError

ZERO_ONE_CAP = 20
EXHAUSTIVE_CAP = 8
EXHAUSTIVE_LIMIT = 10  # all n! inputs at once: ~0.6 GB at n = 10, 11x that at 11
RANDOM_DEFAULT_TRIALS = 200_000  # half permutations, half repeat-valued
RT_CAP = 8
RT_PARTIAL_CAP = 7
RT_LIMIT = 9  # the arrangement BFS holds up to n! states: 9! = 362,880
ST_CAP = 5
ST_WORD_LIMIT = 6  # st image sets are uint64 masks over the 2^n configurations


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    method: str
    inputs_checked: int
    counterexample: tuple | None = None
    detail: str = ""
    data: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class OracleResult:
    value: int
    witness: object = None
    explored: int = 0
    detail: str = ""


def _check_cap(n: int, cap: int | None, default: int, what: str,
               hard: int | None = None) -> None:
    """Refuse n past cap (default when None), and past hard whatever the cap."""
    limit = default if cap is None else cap
    if hard is not None:
        limit = min(limit, hard)
    if n > limit:
        raise CapError(f"{what} refused: n={n} exceeds cap {limit}")


# ---------------------------------------------------------------------------
# 0-1 verification


def truth_columns(n: int) -> list[int]:
    """Column masks over all 2^n inputs; bit x of column v = bit v of x."""
    total = 1 << n
    cols = []
    for b in range(n):
        run = 1 << b
        pattern = ((1 << run) - 1) << run
        width = 2 * run
        while width < total:
            pattern |= pattern << width
            width *= 2
        cols.append(pattern)
    return cols


def _and_or(a, b) -> tuple:
    return a & b, a | b


def verify_zero_one(net: network.SortingNetwork, cap: int | None = None) -> VerificationReport:
    n = net.graph.n
    _check_cap(n, cap, ZERO_ONE_CAP, "zero-one verification")
    cols = network.run_stages(net.stages, truth_columns(n), _and_or)
    inv = perms.inverse(net.order)
    full = (1 << (1 << n)) - 1
    for r in range(1, n):
        lo, hi = cols[inv[r - 1] - 1], cols[inv[r] - 1]
        bad = lo & (full ^ hi)  # inputs where rank r holds 1 but rank r+1 holds 0
        if bad:
            x = (bad & -bad).bit_length() - 1
            cex = tuple((x >> (v - 1)) & 1 for v in range(1, n + 1))
            return VerificationReport(
                passed=False, method="zero_one", inputs_checked=1 << n,
                counterexample=cex,
                detail=f"rank {r} above rank {r + 1} on input {x}")
    return VerificationReport(passed=True, method="zero_one",
                              inputs_checked=1 << n)


# ---------------------------------------------------------------------------
# exhaustive and randomized verification


def _sorted_rows(net: network.SortingNetwork, arr: np.ndarray) -> np.ndarray:
    """Which rows of the input block (rows = inputs) the network sorts."""
    cols = network.run_stages(net.stages, list(arr.T.copy()),
                              lambda a, b: (np.minimum(a, b), np.maximum(a, b)))
    ranked = [cols[v - 1] for v in perms.inverse(net.order)]
    ok = np.ones(len(arr), dtype=bool)
    for lo, hi in zip(ranked, ranked[1:]):
        ok &= lo <= hi
    return ok


def verify_exhaustive(net: network.SortingNetwork, cap: int | None = None) -> VerificationReport:
    n = net.graph.n
    _check_cap(n, cap, EXHAUSTIVE_CAP, "exhaustive verification", EXHAUSTIVE_LIMIT)
    inputs = np.array(list(itertools.permutations(range(1, n + 1))),
                      dtype=np.int16)
    ok = _sorted_rows(net, inputs)
    if not ok.all():
        i = int(np.argmin(ok))
        return VerificationReport(
            passed=False, method="exhaustive",
            inputs_checked=len(inputs),
            counterexample=tuple(int(x) for x in inputs[i]),
            detail="permutation input left unsorted")
    return VerificationReport(passed=True, method="exhaustive",
                              inputs_checked=len(inputs))


def verify_random(net: network.SortingNetwork, trials: int = RANDOM_DEFAULT_TRIALS,
                  seed: int = 0) -> VerificationReport:
    """Seeded spot check: half permutations, half keys with repeats.

    Non-certifying; this is the only method available past the caps.
    """
    rng = np.random.default_rng(seed)
    n = net.graph.n
    half = trials // 2
    checked = 0
    for block, count in (("perm", half), ("repeat", trials - half)):
        done = 0
        while done < count:
            rows = min(50_000, count - done)
            if block == "perm":
                arr = np.tile(np.arange(1, n + 1, dtype=np.int32), (rows, 1))
                arr = rng.permuted(arr, axis=1)
            else:
                arr = rng.integers(0, n + 1, size=(rows, n), dtype=np.int32)
            ok = _sorted_rows(net, arr)
            if not ok.all():
                i = int(np.argmin(ok))
                return VerificationReport(
                    passed=False, method="random",
                    inputs_checked=checked + i + 1,
                    counterexample=tuple(int(x) for x in arr[i]),
                    detail="random input left unsorted")
            done += rows
            checked += rows
    return VerificationReport(passed=True, method="random",
                              inputs_checked=trials)


def verify_auto(net: network.SortingNetwork, cap: int | None = None) -> VerificationReport:
    """Exhaustive when n is small enough, 0-1 otherwise."""
    if net.graph.n <= EXHAUSTIVE_CAP:
        return verify_exhaustive(net)
    return verify_zero_one(net, cap=cap)


# ---------------------------------------------------------------------------
# matchings as routing moves


def all_matchings(g: graphs.Graph) -> list[tuple]:
    """Every nonempty matching of g (order deterministic)."""
    adj = graphs.adjacency(g)
    n = g.n
    out: list[tuple] = []

    def rec(v: int, used: set, cur: list):
        if v > n:
            if cur:
                out.append(tuple(cur))
            return
        if v in used:
            rec(v + 1, used, cur)
            return
        rec(v + 1, used, cur)  # leave v unmatched
        for w in adj[v]:
            if w > v and w not in used:
                cur.append((v, w))
                used.add(v)
                used.add(w)
                rec(v + 1, used, cur)
                used.discard(v)
                used.discard(w)
                cur.pop()

    rec(1, set(), [])
    return out


# ---------------------------------------------------------------------------
# exact routing numbers


def _rt_bfs(g: graphs.Graph, start: tuple, stop_at: tuple | None = None):
    """BFS from start over arrangements (at[v-1] = pebble on v, 0 for an
    untracked pebble) where one move swaps along every edge of a matching.

    Returns (dist, parent) where parent maps state -> (prev, matching); the
    search stops as soon as it reaches stop_at.
    """
    moves = []
    for m in all_matchings(g):
        idx = list(range(g.n))
        for u, v in m:
            idx[u - 1], idx[v - 1] = v - 1, u - 1
        moves.append((operator.itemgetter(*idx), m))
    dist = {start: 0}
    parent: dict = {start: None}
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for state in frontier:
            for move, m in moves:
                s = move(state)
                if s not in dist:
                    dist[s] = d
                    parent[s] = (state, m)
                    nxt.append(s)
                    if s == stop_at:
                        return dist, parent
        frontier = nxt
    return dist, parent


def exact_rt(g: graphs.Graph, pi=None, cap: int | None = None) -> OracleResult:
    """rt(G, pi), or rt(G) = max over pi when pi is None."""
    graphs.check_connected(g)
    _check_cap(g.n, cap, RT_CAP, "exact rt", RT_LIMIT)
    start = perms.identity(g.n)
    if pi is not None:
        pi = perms.check_permutation(pi, g.n)
        target = perms.inverse(pi)  # at[pi(v)-1] = v
        dist, parent = _rt_bfs(g, start, stop_at=target)
        if target not in dist:
            raise TaskError("target arrangement unreachable (graph disconnected?)")
        stages, state = [], target
        while parent[state] is not None:
            state, m = parent[state]
            stages.append([(u, v, network.SWAP) for u, v in m])
        return OracleResult(value=dist[target],
                            witness=network.make_plan(g, stages[::-1]),
                            explored=len(dist))
    dist, _ = _rt_bfs(g, start)
    if len(dist) != math.factorial(g.n):
        raise TaskError("arrangement space not fully reachable")
    worst = max(dist.values())
    arg = min(s for s, d in dist.items() if d == worst)
    return OracleResult(value=worst, witness=perms.inverse(arg),
                        explored=len(dist),
                        detail="witness is a hardest target permutation")


def _placed(n: int, pebbles: tuple, spots: tuple) -> tuple:
    """Arrangement with pebble pebbles[i] on vertex spots[i], 0 elsewhere."""
    at = [0] * n
    for p, v in zip(pebbles, spots):
        at[v - 1] = p
    return tuple(at)


def _rt_worst(g: graphs.Graph, A: tuple, B) -> tuple:
    """(steps, map, explored) of the worst bijection A -> B, the pebbles
    named after their sources in A and every other pebble untracked."""
    dist, _ = _rt_bfs(g, _placed(g.n, A, A))
    worst, worst_map = -1, None
    for assignment in itertools.permutations(B):
        d = dist[_placed(g.n, A, assignment)]
        if d > worst:
            worst, worst_map = d, dict(zip(A, assignment))
    return worst, worst_map, len(dist)


def exact_rt_partial(g: graphs.Graph, A, B, cap: int | None = None) -> OracleResult:
    """rt(G, A, B): worst bijection A -> B, tracked pebbles only."""
    graphs.check_connected(g)
    _check_cap(g.n, cap, RT_PARTIAL_CAP, "exact partial rt", RT_LIMIT)
    A = tuple(sorted(set(A)))
    B = tuple(sorted(set(B)))
    if len(A) != len(B) or not A:
        raise TaskError("need |A| = |B| >= 1")
    for x in A + B:
        if not (1 <= x <= g.n):
            raise TaskError(f"vertex {x} out of range")
    worst, worst_map, explored = _rt_worst(g, A, B)
    return OracleResult(value=worst, witness=worst_map, explored=explored)


def exact_rt_p(g: graphs.Graph, p: int, cap: int | None = None) -> OracleResult:
    """rt_p(G): worst permutation that moves at most p pebbles.

    Max of rt(G, A, A) over |A| <= p.  Chain instances with B != A (a
    pebble landing on a vacated foreign source) are not permutations and
    are excluded; admitting them would force rt_2(K_n) = 2 instead of 1.
    """
    graphs.check_connected(g)
    _check_cap(g.n, cap, RT_PARTIAL_CAP, "exact rt_p", RT_LIMIT)
    if p < 1:
        raise TaskError("p >= 1 required")
    best, witness = 0, None
    explored = 0
    for k in range(1, min(p, g.n) + 1):
        for A in itertools.combinations(range(1, g.n + 1), k):
            worst, worst_map, seen = _rt_worst(g, A, A)
            explored += seen
            if worst > best:
                best, witness = worst, (A, worst_map)
    return OracleResult(value=best, witness=witness, explored=explored)


# ---------------------------------------------------------------------------
# exact sorting number


def _decorated_stages(g: graphs.Graph, comparator_only: bool) -> list[tuple]:
    """All stages: every nonempty matching, each edge decorated with an
    orientation or (optionally) an unconditional swap."""
    kinds_per_edge = 2 if comparator_only else 3
    out = []
    for m in all_matchings(g):
        for combo in itertools.product(range(kinds_per_edge), repeat=len(m)):
            stage = []
            for (u, v), c in zip(m, combo):
                if c == 0:
                    stage.append((u, v, network.DIR))
                elif c == 1:
                    stage.append((v, u, network.DIR))
                else:
                    stage.append((u, v, network.SWAP))
            out.append(tuple(stage))
    return out


def _stage_luts(stages: list[tuple], n: int) -> np.ndarray:
    """Byte-indexed OR-image tables, luts[stage, byte, b]: applying a stage
    to an image-set mask is one lookup per mask byte, ORed together."""
    size = 1 << n
    nbytes = (size + 7) // 8
    cfgs = np.arange(size, dtype=np.int64)
    bits = [(cfgs >> b) & 1 for b in range(n)]
    img = np.zeros((len(stages), nbytes * 8), dtype=np.uint64)
    for si, stage in enumerate(stages):
        cols = network.run_stages((stage,), list(bits), _and_or)
        c = sum(col << b for b, col in enumerate(cols))
        img[si, :size] = np.uint64(1) << c.astype(np.uint64)
    img = img.reshape(len(stages), nbytes, 8)
    luts = np.zeros((len(stages), nbytes, 256), dtype=np.uint64)
    for bit in range(8):  # bytes with top bit `bit` extend those below it
        luts[:, :, 1 << bit:2 << bit] = luts[:, :, :1 << bit] | img[:, :, bit, None]
    return luts


def _sort_targets(orders, n: int) -> dict:
    """order -> mask of its n+1 sorted configs (the top k ranks hold 1s)."""
    targets = {}
    for order in map(tuple, orders):
        inv = perms.inverse(order)
        cfg, mask = 0, 1  # k = 0: all zeros
        for r in range(n, 0, -1):
            cfg |= 1 << (inv[r - 1] - 1)
            mask |= 1 << cfg
        targets[order] = mask
    return targets


def _apply_stages(frontier: np.ndarray, luts: np.ndarray) -> np.ndarray:
    """Images of every frontier mask under every stage, shape (stages, masks)."""
    acc = luts[:, 0, frontier & np.uint64(0xFF)]
    for bp in range(1, luts.shape[1]):
        acc |= luts[:, bp, (frontier >> np.uint64(8 * bp)) & np.uint64(0xFF)]
    return acc


class _StSearch:
    """Layered BFS over image-set states shared by all exact_st modes."""

    def __init__(self, g: graphs.Graph, comparator_only: bool):
        graphs.check_connected(g)
        self.n = g.n
        self.stages = _decorated_stages(g, comparator_only)
        self.luts = _stage_luts(self.stages, self.n)
        init = (1 << (1 << self.n)) - 1  # empty prefix reaches every config
        self.layers = [np.array([init], dtype=np.uint64)]
        self.visited = {init}
        self.exhausted = False

    def grow(self) -> np.ndarray:
        """Extend the BFS by one layer; returns the new layer (may be empty)."""
        if self.exhausted:
            return np.empty(0, dtype=np.uint64)
        merged = np.unique(_apply_stages(self.layers[-1], self.luts))
        fresh = [x for x in merged.tolist() if x not in self.visited]
        self.visited.update(fresh)
        layer = np.array(fresh, dtype=np.uint64)
        self.layers.append(layer)
        if len(layer) == 0:
            self.exhausted = True
        return layer

    def satisfied(self, layer: np.ndarray, sorted_mask: int) -> int:
        """Index of a state in layer inside the sorted mask, or -1."""
        bad = layer & np.uint64(~sorted_mask & ((1 << 64) - 1))
        hits = np.flatnonzero(bad == 0)
        return int(hits[0]) if len(hits) else -1

    def walk(self, targets: dict, depth_cap: int | None = None):
        """Yield (depth, hits) for depth 0, 1, ...: hits lists (order, index
        of a sorting state in the layer) for every order of targets first
        sorted at that depth, in targets' order.

        Ends once every order is sorted, the state space is exhausted or
        depth_cap is passed; a layer is grown only when the walk reaches it.
        """
        pending = dict(targets)
        depth = 0
        while pending and (depth_cap is None or depth <= depth_cap):
            layer = self.layers[depth] if depth < len(self.layers) else self.grow()
            hits = [(order, idx) for order, mask in pending.items()
                    if (idx := self.satisfied(layer, mask)) >= 0]
            for order, _ in hits:
                del pending[order]
            yield depth, hits
            if self.exhausted:
                return
            depth += 1

    def witness_stages(self, depth: int, idx: int) -> list[tuple]:
        """Reconstruct one stage sequence reaching layers[depth][idx]."""
        chosen = []
        target = self.layers[depth][idx]
        for d in range(depth, 0, -1):
            prev = self.layers[d - 1]
            hits = np.argwhere(_apply_stages(prev, self.luts) == target)
            if not len(hits):
                raise ConstructionError("BFS layer bookkeeping broken")
            si, i = hits[0]
            chosen.append(self.stages[si])
            target = prev[i]
        chosen.reverse()
        return chosen


def exact_st(g: graphs.Graph, pi=None, cap: int | None = None,
             comparator_only: bool = False) -> OracleResult:
    """st(G, pi), or st(G) = min over pi when pi is None.

    The witness is a SortingNetwork achieving the optimum.
    """
    _check_cap(g.n, cap, ST_CAP, "exact st", ST_WORD_LIMIT)
    n = g.n
    orders = [perms.check_permutation(pi, n)] if pi is not None \
        else perms.all_permutations(n)
    targets = _sort_targets(orders, n)
    search = _StSearch(g, comparator_only)
    for depth, hits in search.walk(targets):
        if hits:
            order, idx = hits[0]
            stages = search.witness_stages(depth, idx)
            net = network.make_network(g, order, stages,
                                       provenance={"built_by": "exact_st"})
            return OracleResult(value=depth, witness=net,
                                explored=len(search.visited))
    raise TaskError("state space exhausted without sorting; bug")


def exact_st_all_orders(g: graphs.Graph, cap: int | None = None,
                        depth_cap: int | None = None,
                        comparator_only: bool = False) -> dict:
    """st(G, pi) for every order pi, stopping at depth_cap if given.

    Orders still unsorted at depth_cap are reported with value None.
    """
    _check_cap(g.n, cap, ST_CAP, "exact st", ST_WORD_LIMIT)
    targets = _sort_targets(perms.all_permutations(g.n), g.n)
    found: dict = {}
    for depth, hits in _StSearch(g, comparator_only).walk(targets, depth_cap):
        for order, _ in hits:
            found[order] = depth
    return found | {order: None for order in targets if order not in found}


# ---------------------------------------------------------------------------
# sorting-vs-routing sandwich check


def sandwich_check(g: graphs.Graph, pi=None, cap: int | None = None) -> VerificationReport:
    """Check max(rt(G), log2 n) <= st(G, pi) <= st(G) + rt(G).

    With pi=None every target order is checked.  All st values come from
    one BFS; st(G) is their minimum, and any order not sorted within
    st(G) + rt(G) is an upper-bound violation, reported with value None.
    """
    _check_cap(g.n, cap, ST_CAP, "sandwich check")
    n = g.n
    rt = exact_rt(g).value
    all_st = exact_st_all_orders(g, cap=cap)
    st_min = min(v for v in all_st.values() if v is not None)
    bound = st_min + rt
    orders = [perms.check_permutation(pi, n)] if pi is not None \
        else sorted(all_st)
    lower = max(rt, math.log2(n)) if n > 1 else 0.0
    violations = []
    st_by_order = {}
    for order in orders:
        st_pi = all_st[order]
        if st_pi is None or st_pi > bound:
            st_pi = None
            violations.append((order, f"st > {bound} = st(G)+rt(G)"))
        elif st_pi < lower:
            violations.append((order, f"st={st_pi} below max(rt, log2 n)={lower}"))
        st_by_order[order] = st_pi
    data = {"rt": rt, "st_min": st_min, "orders_checked": len(orders),
            "st_by_order": st_by_order}
    return VerificationReport(
        passed=not violations, method="sandwich",
        inputs_checked=len(orders),
        counterexample=violations[0][0] if violations else None,
        detail="; ".join(f"{o}: {msg}" for o, msg in violations),
        data=data)


# ---------------------------------------------------------------------------
# small-graph enumeration (used by the sandwich acceptance sweep)


def connected_graphs_upto_iso(n: int) -> list[graphs.Graph]:
    """All connected graphs on n <= 5 vertices, one per isomorphism class."""
    if n < 1 or n > ST_CAP:
        raise ParameterError(f"enumeration supports 1 <= n <= {ST_CAP}")
    if n == 1:
        return [graphs.graph(1, [])]
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    relabelings = list(itertools.permutations(range(1, n + 1)))
    seen = set()
    out = []
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        if len(edges) < n - 1:
            continue
        g = graphs.graph(n, edges)
        if not graphs.is_connected(g):
            continue
        canon = min(
            tuple(sorted((min(p[u - 1], p[v - 1]), max(p[u - 1], p[v - 1]))
                         for u, v in edges))
            for p in relabelings)
        if canon not in seen:
            seen.add(canon)
            out.append(g)
    return out
