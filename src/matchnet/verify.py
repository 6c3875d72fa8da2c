"""Verification of networks and exact brute-force oracles.

Verification methods:

- verify_zero_one: all 2^n binary inputs at once, one big-int bitmask per
  vertex (bit x of mask v = value at v on input x).  A comparator is one
  AND plus one OR; the sortedness test is an implication check between
  consecutive ranks.  Sound and complete for sorting by the 0-1 principle.
- verify_exhaustive: all n! distinct-key inputs, simulated as one numpy
  matrix (rows = inputs).
- verify_random: seeded spot check with permutations and with repeated
  keys.

Oracles (small n, exact):

- exact_rt / exact_rt_partial: BFS over pebble arrangements where one
  move applies any matching of the graph as parallel swaps.
- exact_st: BFS over network prefixes.  Two prefixes are interchangeable
  when they have the same image set on binary inputs (any suffix sorts
  one iff it sorts the other), so the state is the set of reachable 0-1
  configurations, packed as a bitmask over the 2^n possible configs.  A
  prefix sorts toward pi iff its image set lies inside the n+1 pi-sorted
  configs.  One BFS therefore answers st(G, pi) for every pi at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import graphs, network, perms
from .errors import CapError, ParameterError, TaskError

ZERO_ONE_CAP = 20
EXHAUSTIVE_CAP = 8
RANDOM_DEFAULT_TRIALS = 200_000  # half permutations, half repeat-valued
RT_CAP = 8
RT_PARTIAL_CAP = 7
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


def _check_cap(n: int, cap: int | None, default: int, what: str) -> None:
    limit = default if cap is None else cap
    if n > limit:
        raise CapError(f"{what} refused: n={n} exceeds cap {limit}")


def _check_st_cap(n: int, cap: int | None) -> None:
    limit = ST_CAP if cap is None else cap
    _check_cap(n, min(limit, ST_WORD_LIMIT), ST_CAP, "exact st")


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


def verify_zero_one(net: network.SortingNetwork, cap: int | None = None) -> VerificationReport:
    n = net.graph.n
    _check_cap(n, cap, ZERO_ONE_CAP, "zero-one verification")
    cols = truth_columns(n)
    for stage in net.stages:
        for u, v, kind in stage:
            a, b = cols[u - 1], cols[v - 1]
            if kind == network.DIR:
                cols[u - 1], cols[v - 1] = a & b, a | b
            else:
                cols[u - 1], cols[v - 1] = b, a
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


def _run_matrix(net: network.SortingNetwork, arr: np.ndarray) -> np.ndarray:
    for stage in net.stages:
        for u, v, kind in stage:
            cu, cv = arr[:, u - 1].copy(), arr[:, v - 1].copy()
            if kind == network.DIR:
                np.minimum(cu, cv, out=arr[:, u - 1])
                np.maximum(cu, cv, out=arr[:, v - 1])
            else:
                arr[:, u - 1], arr[:, v - 1] = cv, cu
    return arr


def _sorted_rows(net: network.SortingNetwork, arr: np.ndarray) -> np.ndarray:
    inv_idx = [v - 1 for v in perms.inverse(net.order)]
    ranked = arr[:, inv_idx]
    return np.all(np.diff(ranked.astype(np.int64), axis=1) >= 0, axis=1)


def verify_exhaustive(net: network.SortingNetwork, cap: int | None = None) -> VerificationReport:
    n = net.graph.n
    _check_cap(n, cap, EXHAUSTIVE_CAP, "exhaustive verification")
    inputs = np.array(list(itertools.permutations(range(1, n + 1))),
                      dtype=np.int16)
    out = _run_matrix(net, inputs.copy())
    ok = _sorted_rows(net, out)
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
            inputs = arr.copy()
            ok = _sorted_rows(net, _run_matrix(net, arr))
            if not ok.all():
                i = int(np.argmin(ok))
                return VerificationReport(
                    passed=False, method="random",
                    inputs_checked=checked + i + 1,
                    counterexample=tuple(int(x) for x in inputs[i]),
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


def _rt_bfs(g: graphs.Graph, stop_at: tuple | None = None):
    """BFS over arrangements (at[v-1] = pebble on v) under matching moves.

    Returns (dist, parent) where parent maps state -> (prev, matching).
    """
    n = g.n
    moves = []
    for m in all_matchings(g):
        moves.append(tuple((u - 1, v - 1) for u, v in m))
    start = tuple(range(1, n + 1))
    dist = {start: 0}
    parent: dict = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            d = dist[state] + 1
            base = list(state)
            for mv in moves:
                s = base[:]
                for i, j in mv:
                    s[i], s[j] = s[j], s[i]
                st = tuple(s)
                if st not in dist:
                    dist[st] = d
                    parent[st] = (state, mv)
                    nxt.append(st)
                    if st == stop_at:
                        return dist, parent
        frontier = nxt
    return dist, parent


def _witness_plan(g: graphs.Graph, parent: dict, state: tuple) -> network.RoutingPlan:
    stages = []
    while parent[state] is not None:
        prev, mv = parent[state]
        stages.append([(i + 1, j + 1, network.SWAP) for i, j in mv])
        state = prev
    stages.reverse()
    return network.make_plan(g, stages)


def exact_rt(g: graphs.Graph, pi=None, cap: int | None = None) -> OracleResult:
    """rt(G, pi), or rt(G) = max over pi when pi is None."""
    graphs.check_connected(g)
    _check_cap(g.n, cap, RT_CAP, "exact rt")
    if pi is not None:
        pi = perms.check_permutation(pi, g.n)
        target = perms.inverse(pi)  # at[pi(v)-1] = v
        dist, parent = _rt_bfs(g, stop_at=target)
        if target not in dist:
            raise TaskError("target arrangement unreachable (graph disconnected?)")
        return OracleResult(value=dist[target],
                            witness=_witness_plan(g, parent, target),
                            explored=len(dist))
    dist, parent = _rt_bfs(g)
    if len(dist) != math.factorial(g.n):
        raise TaskError("arrangement space not fully reachable")
    worst = max(dist.values())
    arg = min(s for s, d in dist.items() if d == worst)
    return OracleResult(value=worst, witness=perms.inverse(arg),
                        explored=len(dist),
                        detail="witness is a hardest target permutation")


def _rt_partial_bfs(g: graphs.Graph, A: tuple):
    """Distances over placements of the tracked pebbles that start on A."""
    moves = []
    for m in all_matchings(g):
        mp = {}
        for u, v in m:
            mp[u] = v
            mp[v] = u
        moves.append(mp)
    start = A
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            d = dist[state] + 1
            for mp in moves:
                st = tuple(mp.get(x, x) for x in state)
                if st not in dist:
                    dist[st] = d
                    nxt.append(st)
        frontier = nxt
    return dist


def exact_rt_partial(g: graphs.Graph, A, B, cap: int | None = None) -> OracleResult:
    """rt(G, A, B): worst bijection A -> B, tracked pebbles only."""
    graphs.check_connected(g)
    _check_cap(g.n, cap, RT_PARTIAL_CAP, "exact partial rt")
    A = tuple(sorted(set(A)))
    B = tuple(sorted(set(B)))
    if len(A) != len(B) or not A:
        raise TaskError("need |A| = |B| >= 1")
    for x in A + B:
        if not (1 <= x <= g.n):
            raise TaskError(f"vertex {x} out of range")
    dist = _rt_partial_bfs(g, A)
    worst, worst_map = -1, None
    for assignment in itertools.permutations(B):
        d = dist[assignment]
        if d > worst:
            worst, worst_map = d, dict(zip(A, assignment))
    return OracleResult(value=worst, witness=worst_map, explored=len(dist))


def exact_rt_p(g: graphs.Graph, p: int, cap: int | None = None) -> OracleResult:
    """rt_p(G): worst permutation that moves at most p pebbles.

    Max of rt(G, A, A) over |A| <= p.  Chain instances with B != A (a
    pebble landing on a vacated foreign source) are not permutations and
    are excluded; admitting them would force rt_2(K_n) = 2 instead of 1.
    """
    graphs.check_connected(g)
    _check_cap(g.n, cap, RT_PARTIAL_CAP, "exact rt_p")
    if p < 1:
        raise TaskError("p >= 1 required")
    best, witness = 0, None
    explored = 0
    verts = range(1, g.n + 1)
    for k in range(1, min(p, g.n) + 1):
        for A in itertools.combinations(verts, k):
            dist = _rt_partial_bfs(g, A)
            explored += len(dist)
            for assignment in itertools.permutations(A):
                d = dist[assignment]
                if d > best:
                    best = d
                    witness = (A, dict(zip(A, assignment)))
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


def _stage_config_map(stage: tuple, n: int) -> list[int]:
    size = 1 << n
    table = []
    for cfg in range(size):
        c = cfg
        for u, v, kind in stage:
            a = (c >> (u - 1)) & 1
            b = (c >> (v - 1)) & 1
            if kind == network.DIR:
                na, nb = a & b, a | b
            else:
                na, nb = b, a
            c = (c & ~(1 << (u - 1)) & ~(1 << (v - 1))) \
                | (na << (u - 1)) | (nb << (v - 1))
        table.append(c)
    return table


def _stage_luts(stages: list[tuple], n: int) -> list[list[np.ndarray]]:
    """Byte-indexed OR-image tables: applying a stage to an image-set mask
    is 4 lookups and 3 ORs."""
    size = 1 << n
    nbytes = (size + 7) // 8
    luts = []
    for stage in stages:
        table = _stage_config_map(stage, n)
        img = [np.uint64(1) << np.uint64(t) for t in table]
        per_stage = []
        for bp in range(nbytes):
            lut = np.zeros(256, dtype=np.uint64)
            for b in range(1, 256):
                low = b & (-b)
                idx = bp * 8 + low.bit_length() - 1
                contrib = img[idx] if idx < size else np.uint64(0)
                lut[b] = lut[b & (b - 1)] | contrib
            per_stage.append(lut)
        luts.append(per_stage)
    return luts


def _sorted_mask(order: tuple, n: int) -> int:
    inv = perms.inverse(order)
    mask = 0
    for k in range(n + 1):
        cfg = 0
        for r in range(n - k + 1, n + 1):
            cfg |= 1 << (inv[r - 1] - 1)
        mask |= 1 << cfg
    return mask


def _apply_all_stages(frontier: np.ndarray, luts) -> list[np.ndarray]:
    out = []
    for per_stage in luts:
        acc = per_stage[0][frontier & np.uint64(0xFF)]
        for bp in range(1, len(per_stage)):
            shifted = (frontier >> np.uint64(8 * bp)) & np.uint64(0xFF)
            acc = acc | per_stage[bp][shifted]
        out.append(acc)
    return out


class _StSearch:
    """Layered BFS over image-set states shared by all exact_st modes."""

    def __init__(self, g: graphs.Graph, comparator_only: bool):
        graphs.check_connected(g)
        self.g = g
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
        frontier = self.layers[-1]
        succ = _apply_all_stages(frontier, self.luts)
        merged = np.unique(np.concatenate(succ)) if succ else np.empty(0, np.uint64)
        fresh = [x for x in merged.tolist() if x not in self.visited]
        self.visited.update(fresh)
        layer = np.array(fresh, dtype=np.uint64)
        self.layers.append(layer)
        if len(layer) == 0:
            self.exhausted = True
        return layer

    def satisfied(self, layer: np.ndarray, sorted_mask: int) -> int:
        """Index of a state in layer inside the sorted mask, or -1."""
        if len(layer) == 0:
            return -1
        bad = layer & np.uint64(~sorted_mask & ((1 << 64) - 1))
        hits = np.flatnonzero(bad == 0)
        return int(hits[0]) if len(hits) else -1

    def witness_stages(self, depth: int, idx: int) -> list[tuple]:
        """Reconstruct one stage sequence reaching layers[depth][idx]."""
        chosen = []
        target = self.layers[depth][idx]
        for d in range(depth, 0, -1):
            prev = self.layers[d - 1]
            found = False
            for si, per_stage in enumerate(self.luts):
                imgs = _apply_all_stages(prev, [per_stage])[0]
                hits = np.flatnonzero(imgs == target)
                if len(hits):
                    chosen.append(self.stages[si])
                    target = prev[int(hits[0])]
                    found = True
                    break
            assert found, "BFS layer bookkeeping broken"
        chosen.reverse()
        return chosen


def exact_st(g: graphs.Graph, pi=None, cap: int | None = None,
             comparator_only: bool = False) -> OracleResult:
    """st(G, pi), or st(G) = min over pi when pi is None.

    The witness is a SortingNetwork achieving the optimum.
    """
    _check_st_cap(g.n, cap)
    n = g.n
    if pi is not None:
        targets = {perms.check_permutation(pi, n): _sorted_mask(tuple(pi), n)}
    else:
        targets = {tuple(p): _sorted_mask(tuple(p), n)
                   for p in perms.all_permutations(n)}
    search = _StSearch(g, comparator_only)
    depth = 0
    while True:
        layer = search.layers[depth] if depth < len(search.layers) else search.grow()
        for order, mask in targets.items():
            idx = search.satisfied(layer, mask)
            if idx >= 0:
                stages = search.witness_stages(depth, idx)
                net = network.make_network(g, order, stages,
                                           provenance={"built_by": "exact_st"})
                return OracleResult(value=depth, witness=net,
                                    explored=len(search.visited))
        if search.exhausted:
            raise TaskError("state space exhausted without sorting; bug")
        depth += 1


def exact_st_all_orders(g: graphs.Graph, cap: int | None = None,
                        depth_cap: int | None = None,
                        comparator_only: bool = False) -> dict:
    """st(G, pi) for every order pi, stopping at depth_cap if given.

    Orders still unsorted at depth_cap are reported with value None.
    """
    _check_st_cap(g.n, cap)
    n = g.n
    pending = {tuple(p): _sorted_mask(tuple(p), n)
               for p in perms.all_permutations(n)}
    found: dict = {}
    search = _StSearch(g, comparator_only)
    depth = 0
    while pending:
        if depth_cap is not None and depth > depth_cap:
            break
        layer = search.layers[depth] if depth < len(search.layers) else search.grow()
        done = [order for order, mask in pending.items()
                if search.satisfied(layer, mask) >= 0]
        for order in done:
            found[order] = depth
            del pending[order]
        if search.exhausted and pending:
            break
        depth += 1
    for order in pending:
        found[order] = None
    return found


# ---------------------------------------------------------------------------
# sorting-vs-routing sandwich check


def sandwich_check(g: graphs.Graph, pi=None, cap: int | None = None) -> VerificationReport:
    """Check max(rt(G), log2 n) <= st(G, pi) <= st(G) + rt(G).

    With pi=None every target order is checked.  st values come from one
    shared BFS capped at st(G) + rt(G); any order not sorted by that
    depth is itself an upper-bound violation.
    """
    _check_cap(g.n, cap, ST_CAP, "sandwich check")
    n = g.n
    rt = exact_rt(g).value
    st_min = exact_st(g, cap=cap).value
    bound = st_min + rt
    all_st = exact_st_all_orders(g, cap=cap, depth_cap=bound)
    orders = [perms.check_permutation(pi, n)] if pi is not None \
        else sorted(all_st)
    lower = max(rt, math.log2(n)) if n > 1 else 0.0
    violations = []
    for order in orders:
        st_pi = all_st[order]
        if st_pi is None:
            violations.append((order, f"st > {bound} = st(G)+rt(G)"))
        elif st_pi < lower:
            violations.append((order, f"st={st_pi} below max(rt, log2 n)={lower}"))
    data = {"rt": rt, "st_min": st_min, "orders_checked": len(orders),
            "st_by_order": {order: all_st[order] for order in orders}}
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
