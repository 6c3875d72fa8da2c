"""Permutation routing: move pebbles to target vertices via disjoint swaps.

Every planner here produces rounds of vertex-disjoint swaps on host edges.
Pebbles start on their home vertices (pebble v on vertex v) and the plan
realizes a permutation pi, meaning the pebble from v ends on pi(v).  The
planners are deterministic: same input, same plan, byte for byte.

Internally all planners work with "rounds": plain lists of swap pairs.
_ROUTES is the one table of family planners and bounds.  Every route
leaves through _routed or _to_path_stages, which pass _checked: it raises,
also under python -O, when a wanted pebble ends off its target or the
depth passes its bound.  A plan of depth d is a sequence of matchings
of the host, so it holds up to d*n/2 swaps but only |E| distinct ones.
_checked gives each distinct pair of its route one index and one
(u, v, SWAP) tuple, and gathers every stage from those indices, so each
plan, and each builder stage list a route feeds, holds each comparator
once.  It returns that table (the tuples, each swap's index, each
stage's length) with the stages: public routers hand it to
network._freeze, which then checks each distinct comparator once
without finding them again, and builders drop it, leaving their stages
to their closing make_network.

The tree planner (_tree_rounds, route_tree and the spanning-tree
fallback) recurses over the host's own vertex ids: each centroid
component is found by a search over the vertices still alive, works in
flat lists of the host that it writes only for its own vertices, and
the components' rounds are interleaved as they come back, so no
component builds a graph or relabels its rounds.

The product router (route_product, and through it meshes, hypercubes and
the level meshes of pyramids and multigrids) keeps the shallower of its
two phase orders, inner-first on a tie, without planning both in full.
Each of the six phases first gets a lower bound: the most edges any
pebble must cross inside its factor copy (exact on paths, meshes,
hypercubes and complete factors, 0 on others), since a swap round moves
a pebble along one edge at most and a phase swaps on copy edges only.
The outer-first order is planned in full first when its bound sum is
smaller, else the inner-first one.  The other is planned copy by copy
and dropped once its rounds so far, plus its longest copy so far, plus
the bounds of the phases left pass the depth it must meet to be kept:
the first order's depth when it is inner-first, one less when it is
outer-first and so loses ties.  A dropped order would have come out
deeper, or as deep and losing the tie; one that is not dropped meets
that depth and is kept.  So the plan is byte for byte the one that
planning both orders in full gives.

route_auto runs with CPython's cyclic collector paused
(network._gc_paused): its planners allocate hundreds of thousands of
rounds, pairs and comparators that stay alive until the plan is built,
and the full collections they would trigger only rescan them.  The
planners make no reference cycles (no closure calls itself; _augment is
a module-level function for that reason), so the pause holds back no
garbage: reference counting frees everything they drop.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from collections import defaultdict
from functools import partial
from itertools import accumulate, chain, pairwise, zip_longest

import numpy as np

from .errors import ConstructionError, ParameterError, StructureError, TaskError
from .graphs import (
    Graph,
    PyramidInfo,
    _mesh_points,
    adjacency,
    cartesian_product,
    check_connected,
    check_tree,
    complete_graph,
    family_of,
    hypercube_graph,
    is_tree,
    mesh_graph,
    multigrid_graph,
    multipartite_graph,
    path_graph,
    path_projection,
    spanning_tree,
)
from . import network
from .network import SWAP, RoutingPlan, _gc_paused, plan_realized
from .perms import check_permutation, compose, cycles, identity

# rounds: list of rounds, each round a list of disjoint (u, v) swap pairs


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _merge_parallel(blocks):
    """Interleave (rounds, verts) blocks on disjoint vertex sets, local
    vertex i+1 of a block becoming verts[i]; every caller's verts increase.
    Plain loops: a comprehension per round is a call, and rounds are short."""
    ats = [[0, *verts] for _, verts in blocks]
    merged = []
    for chunk in zip_longest(*(rounds for rounds, _ in blocks), fillvalue=()):
        pairs = []
        for at, rnd in zip(ats, chunk):
            for u, v in rnd:
                pairs.append((at[u], at[v]))
        if pairs:
            merged.append(pairs)
    return merged


def _checked(n: int, rounds, want_pairs, bound) -> tuple[list, tuple, tuple]:
    """Swap stages of the non-empty rounds, not yet validated, the
    permutation they realize, and their table for network._freeze;
    refuses any (s, u) in want_pairs whose pebble from s ends off u, and
    depth past bound.  The table holds one (u, v, SWAP) tuple per
    distinct pair, each swap's index into them and each stage's length,
    and the stages are gathered from that index, so they share those
    tuples."""
    rounds = [rnd for rnd in rounds if rnd]
    pairs = list(set(chain.from_iterable(rounds)))
    index = dict(zip(pairs, range(len(pairs))))
    which = np.array(list(map(index.__getitem__, chain.from_iterable(rounds))),
                     np.intp)
    cmps = [(*p, SWAP) for p in pairs]
    lens = list(map(len, rounds))
    occ = np.fromiter(cmps, object, len(cmps))[which].tolist()
    stages = [occ[a:b] for a, b in pairwise(accumulate(lens, initial=0))]
    realized = plan_realized(n, stages)
    for s, u in want_pairs:
        if realized[s - 1] != u:
            raise ConstructionError(
                f"route does not realize its targets: pebble {s} ends on "
                f"{realized[s - 1]}, not on its target {u}")
    if len(stages) > bound:
        raise ConstructionError(f"depth {len(stages)} exceeds bound {bound}")
    return stages, realized, (cmps, which, lens)


def _plan(host: Graph, routed) -> RoutingPlan:
    """The RoutingPlan of a checked route's (stages, realized, table)."""
    stages, realized, table = routed
    return RoutingPlan(host, network._freeze(host, stages, swaps_only=True,
                                             table=table), realized)


def complete_assignment(n: int, want: dict[int, int]) -> list[int]:
    """Extend a partial position->target map to a full permutation.

    Unconstrained positions are sent to the unused targets in ascending
    order, so the result is deterministic.
    """
    for v in want:
        if v not in range(1, n + 1):  # never placed: free targets run short
            raise ParameterError(f"source {v!r} is not a vertex of 1..{n}")
    targets = set(want.values())
    if len(targets) != len(want):
        raise ParameterError("duplicate targets in partial assignment")
    free = iter(sorted(set(range(1, n + 1)) - targets))
    pi = [want[v] if v in want else next(free) for v in range(1, n + 1)]
    check_permutation(pi, n)
    return pi


# ---------------------------------------------------------------------------
# involutions

def two_cycle_decompose(pi) -> tuple[tuple, tuple]:
    """Split pi into two involutions with pi = pi2 . pi1 (pi1 applied first).

    Within each cycle (c_0 .. c_{k-1}) the first involution maps c_j to
    c_{-j mod k} and the second maps c_j to c_{1-j mod k}; both are products
    of disjoint transpositions and their composition walks the cycle.
    """
    n = len(pi)
    check_permutation(pi, n)
    mu1 = list(identity(n))
    mu2 = list(identity(n))
    for cyc in cycles(pi):
        k = len(cyc)
        for j, v in enumerate(cyc):
            mu1[v - 1] = cyc[(-j) % k]
            mu2[v - 1] = cyc[(1 - j) % k]
    if compose(mu2, mu1) != tuple(pi):
        raise ConstructionError("two-cycle decomposition does not compose to pi")
    for mu in (mu1, mu2):
        if any(mu[mu[v - 1] - 1] != v for v in range(1, n + 1)):
            raise ConstructionError(
                "two-cycle decomposition factor is not an involution")
    return tuple(mu1), tuple(mu2)


def _involution_pairs(mu) -> list[tuple[int, int]]:
    return [(v, mu[v - 1]) for v in range(1, len(mu) + 1) if mu[v - 1] > v]


def _by_involutions(pi, involution_rounds) -> list:
    """The non-empty rounds of involution_rounds(mu) for each involution
    mu of two_cycle_decompose(pi), in order: the complete, multipartite
    and multigrid planners route pi as two involutions."""
    return [rnd for mu in two_cycle_decompose(pi)
            for rnd in involution_rounds(mu) if rnd]


# ---------------------------------------------------------------------------
# complete graphs

def route_complete(n: int, pi) -> RoutingPlan:
    """Route any permutation on K_n in at most two swap rounds."""
    check_permutation(pi, n)
    return _route(complete_graph(n), pi, ("complete", (n,)))


# ---------------------------------------------------------------------------
# paths

def _path_rounds(n: int, pi):
    """Odd-even transposition on destination indices; n rounds always sort."""
    key = list(pi)
    rounds = []
    for r in range(n):
        pairs = []
        for i in range(1 + r % 2, n, 2):  # 1-based positions (i, i+1)
            if key[i - 1] > key[i]:
                key[i - 1], key[i] = key[i], key[i - 1]
                pairs.append((i, i + 1))
        if pairs:
            rounds.append(pairs)
    # n odd-even rounds sort any n keys: no input reaches this
    assert key == list(range(1, n + 1))
    return rounds


def route_path(g: Graph, pi) -> RoutingPlan:
    """Route on the path 1-2-..-n; depth at most n."""
    if family_of(g)[0] != "path":
        raise StructureError("route_path needs the canonical path graph")
    return _route(g, pi)


# ---------------------------------------------------------------------------
# trees

def _tree_rounds(t: Graph, pi):
    """The rounds of the centroid planner on the tree t (see route_tree).

    Every centroid component is planned in host labels by _tree_part,
    over flat lists of the host that each call writes only for its own
    component, so no component builds a graph or relabels its rounds.
    """
    n = t.n
    return _tree_part(adjacency(t), 1, [0, *pi], [True] * (n + 1),
                      *([0] * (n + 1) for _ in range(5)),
                      [set() for _ in range(n + 1)])


def _alive_bfs(adj, alive, parent, root) -> list:
    """The alive vertices reachable from root in BFS order, neighbours in
    increasing id, each one's parent written (0 for root)."""
    parent[root] = 0
    order = [root]
    for v in order:  # order grows as it is read
        p = parent[v]
        for w in adj[v]:
            if w != p and alive[w]:
                parent[w] = v
                order.append(w)
    return order


def _tree_part(adj, root, dest, alive, parent, size, comp, ok, rank,
               bad_kids):
    """The rounds, in host labels, that route the component of root among
    the alive vertices, dest[v] being the target of the pebble now on v.

    A component's vertices rank by host id as they did by local id when
    each component was its own graph numbered in vertex order, so every
    tie-break is unchanged: the centroid, the (depth, v) rank, the
    smallest improper child, neighbour order and the path's smaller end.
    The centroid's components then recurse, and their rounds interleave.
    """
    order = _alive_bfs(adj, alive, parent, root)
    if all(dest[v] == v for v in order):
        return []
    m = len(order)
    if all(sum(map(alive.__getitem__, adj[v])) <= 2 for v in order):
        end = min(v for v in order
                  if sum(map(alive.__getitem__, adj[v])) <= 1)
        line = _alive_bfs(adj, alive, parent, end)
        at = {v: i for i, v in enumerate(line, 1)}
        edge = [_norm(a, b) for a, b in zip(line, line[1:])]  # (i, i+1)
        return [[edge[i - 1] for i, _ in rnd]
                for rnd in _path_rounds(m, [at[dest[v]] for v in line])]

    # the centroid: its largest component is smallest, the smaller id on
    # a tie (size[0] collects the root, unread)
    for v in order:
        size[v] = 1
    for v in reversed(order):
        size[parent[v]] += size[v]
    best, c = m + 1, 0
    for v in order:
        heaviest, p = m - size[v], parent[v]
        for w in adj[v]:
            if w != p and alive[w] and size[w] > heaviest:
                heaviest = size[w]
        if heaviest < best or (heaviest == best and v < c):
            best, c = heaviest, v

    # BFS from c: comp[v] is the root neighbour above v (0 for c), so v is
    # proper when comp[dest[v]] == comp[v], for c too; rank[v] orders by
    # (depth, v) as depth * step + v
    order = _alive_bfs(adj, alive, parent, c)
    step = len(dest)
    comp[c], rank[c] = 0, c
    for v in order[1:]:
        p = parent[v]
        comp[v] = v if p == c else comp[p]
        rank[v] = rank[p] - p + step + v

    # Each round swaps the centre with one root neighbour, and every proper
    # non-centre parent with its smallest improper child.  The improper
    # vertices are kept per parent, and the parents that can swap in a
    # frontier, so a round costs what it swaps, not a scan of the tree.
    # Every pebble ends proper, so bad_kids ends empty for the next call.
    bad = 0
    for v in order:
        ok[v] = comp[dest[v]] == comp[v]
        if not ok[v]:
            bad += 1
            bad_kids[parent[v]].add(v)  # [0]: c
    frontier = {p for p in order if p != c and ok[p] and bad_kids[p]}
    rounds = []
    while bad:
        pairs = []
        if not ok[c]:
            q = comp[dest[c]]  # pebble on c belongs past this root
            if not ok[q]:
                pairs.append((c, q) if c < q else (q, c))
        elif bad_kids[c]:
            q = min(bad_kids[c])
            pairs.append((c, q) if c < q else (q, c))
        for v in sorted([min(bad_kids[p]) for p in frontier],
                        key=rank.__getitem__):
            p = parent[v]
            pairs.append((p, v) if p < v else (v, p))
        if not pairs:
            raise ConstructionError("tree routing stalled")
        for u, v in pairs:
            dest[u], dest[v] = dest[v], dest[u]
        changed = []  # vertices whose ok flipped, and their parents
        for v in chain.from_iterable(pairs):
            if (comp[dest[v]] == comp[v]) != ok[v]:
                ok[v] = not ok[v]
                if ok[v]:
                    bad -= 1
                    bad_kids[parent[v]].discard(v)
                else:
                    bad += 1
                    bad_kids[parent[v]].add(v)
                changed += (v, parent[v])
        for v in changed:  # only their frontier membership can change
            if v != c and v and ok[v] and bad_kids[v]:
                frontier.add(v)
            else:
                frontier.discard(v)
        rounds.append(pairs)
        if len(rounds) > 6 * m:
            raise ConstructionError("tree routing did not converge")

    # the components of c route in parallel on disjoint vertices
    alive[c] = False
    parts = [_tree_part(adj, r, dest, alive, parent, size, comp, ok, rank,
                        bad_kids) for r in adj[c] if alive[r]]
    return rounds + [list(chain.from_iterable(chunk))
                     for chunk in zip_longest(*parts, fillvalue=())]


def route_tree(t: Graph, pi) -> RoutingPlan:
    """Route any permutation on a tree; depth at most 3n.

    Phase one drags every pebble into the centroid component holding its
    target (promoting misplaced pebbles rootward, exchanging across the
    centroid one pebble per round); the components then recurse in
    parallel, halving the problem size each level.
    """
    check_tree(t)
    return _route(t, pi, ("tree", ()))


# ---------------------------------------------------------------------------
# partial routing onto a diameter path

def route_to_path(t: Graph, sources, targets) -> RoutingPlan:
    """Bring k tagged pebbles onto diameter-path targets (_to_path_rounds),
    checked against d + 2(k-1) rounds, none for k = 0; the schedule still
    overruns that on about 1.3 % of random trees, and the call raises."""
    return _plan(t, _to_path_stages(t, sources, targets))


def _to_path_stages(t: Graph, sources, targets):
    """_to_path_rounds' (stages, realized, table), checked against
    d + 2(k-1)."""
    rounds, pairs = _to_path_rounds(t, sources, targets)
    k, d = len(pairs), len(path_projection(t).path) - 1
    return _checked(t.n, rounds, pairs, d + 2 * (k - 1) if k else 0)


def _to_path_rounds(t: Graph, sources, targets):
    """Rounds bringing k tagged pebbles onto targets on a diameter path,
    and the (source, target) pairs they deliver.

    Targets are assigned farthest-source-first to its nearest remaining
    target (ties by smallest vertex id).  Pebble i in that reversed order
    gets the arrival deadline d + 2i and starts walking just in time, so
    walks overlap without ever displacing an already delivered pebble.
    Depth is meant to be at most d + 2(k-1) for k >= 1, as _to_path_stages
    checks, but about 1.3 % of random trees overrun it (assert below).

    Distances come from the tree's projection onto its diameter path
    (graphs.path_projection, one BFS cached on t): dist(s, path[j]) is
    height[s] + |anchor[s] - j|, and the step toward path[j] is up[s] off
    the path and one index along it.  A call costs O(n) for the tree
    check, O(k^2 log k) for the selection, which finds each source's
    nearest remaining target by bisecting the sorted target indices, and
    O(k(d + k)) for the walk.
    """
    dpath, anchor, height, up = path_projection(t)
    d = len(dpath) - 1
    sources, targets = list(sources), list(targets)
    for x in sources + targets:  # as in make_stage: True would route as 1
        if type(x) is not int:
            raise StructureError(
                f"source or target {x!r} is a non-integer vertex id")
    if len(sources) != len(targets):
        raise ParameterError("sources and targets must pair up")
    if len(set(sources)) != len(sources) or len(set(targets)) != len(targets):
        raise ParameterError("sources and targets must be distinct vertices")
    on_path = set(dpath)
    for u in targets:
        if u not in on_path:
            raise ParameterError(f"target {u} is not on the diameter path")
    k = len(sources)
    if k > d:
        raise TaskError(f"cannot place {k} pebbles with diameter {d}")
    if k == 0:
        return [], []
    for s in sources:
        if not 1 <= s <= t.n:
            raise ParameterError(f"source {s} is not a vertex")

    left = sorted(anchor[u] for u in targets)  # path indices still free

    def nearest(s):
        """(distance, vertex) of the nearest free target, smallest id first:
        the free index just below anchor[s] or the one at or above it."""
        a = anchor[s]
        i = bisect_left(left, a)
        return min((height[s] + abs(a - j), dpath[j])
                   for j in left[max(i - 1, 0):i + 1])

    # a source's nearest free target changes only when that target is taken
    near = {s: nearest(s) for s in sources}
    selection = []
    while near:
        v = min(near, key=lambda s: (-near[s][0], s))
        u = near.pop(v)[1]
        selection.append((v, u))
        left.remove(anchor[u])
        for s in [s for s, (_, w) in near.items() if w == u]:
            near[s] = nearest(s)
    order = selection[::-1]  # order[i] must arrive by round d + 2i

    def toward(v, j):
        """The next vertex from v (not path[j]) toward path[j]."""
        if height[v]:
            return up[v]
        return dpath[anchor[v] + 1] if anchor[v] < j else dpath[anchor[v] - 1]

    pos = [s for s, _ in order]
    goal = [u for _, u in order]
    gidx = [anchor[u] for u in goal]
    start = [d + 2 * i - height[pos[i]] - abs(anchor[pos[i]] - gidx[i]) + 1
             for i in range(k)]
    occ = {pos[i]: i for i in range(k)}
    settled = [False] * k

    # Walk rules, applied in deadline order each round: a moving pebble may
    # push through untracked pebbles, waiting pebbles, and parked pebbles
    # (a parked one steps aside and re-parks two rounds later), but yields
    # to a pebble that is itself walking; two walkers meeting head-on share
    # one swap.  Yield-to-walker is what rules out displacement ping-pong.
    rounds = []
    limit = d + 2 * k + 4 * t.n + 8
    tick = 0
    while not all(settled):
        tick += 1
        if tick > limit:
            raise ConstructionError("partial routing did not converge")
        pairs = []
        used = set()
        for i in range(k):
            if tick < start[i] or pos[i] == goal[i] or pos[i] in used:
                continue
            cur = pos[i]
            nxt = toward(cur, gidx[i])
            if nxt in used:
                continue
            j = occ.get(nxt)
            if (j is not None and pos[j] != goal[j] and tick >= start[j]
                    and toward(pos[j], gidx[j]) != cur):
                continue  # yield to a walker going somewhere else
            pairs.append(_norm(cur, nxt))
            used.update((cur, nxt))
            del occ[cur]
            if j is not None:
                occ[cur] = j
                pos[j] = cur
                settled[j] = False
            pos[i] = nxt
            occ[nxt] = i
        if pairs:
            rounds.append(pairs)
        # arrival only counts from the scheduled start on, so a pebble parked
        # early stays displaceable and cannot wall off a later walker
        for i in range(k):
            if not settled[i] and pos[i] == goal[i] and tick >= start[i]:
                settled[i] = True

    assert len(rounds) <= d + 2 * (k - 1)
    return rounds, selection


# ---------------------------------------------------------------------------
# cartesian products

def _regular_bipartite_matchings(count, n: int, degree: int):
    """Split an n x n degree-regular demand matrix into `degree` perfect
    matchings (augmenting-path search, deterministic order).

    Each row keeps the sorted list of its nonzero columns, so augment
    scans at most `degree` entries, in the order a full row scan would.
    """
    count = [row[:] for row in count]
    cols = [[b for b, c in enumerate(row) if c > 0] for row in count]
    matchings = []
    for _ in range(degree):
        match_l = {}
        match_r = {}
        for a in range(1, n + 1):
            if a not in match_l and not _augment(a, set(), cols, match_l,
                                                 match_r):
                raise ConstructionError(
                    "regular demand matrix failed to decompose")
        for a, b in match_l.items():
            count[a][b] -= 1
            if not count[a][b]:
                cols[a].remove(b)
        matchings.append(match_l)
    if any(cols):
        raise ConstructionError(
            f"demand matrix is not {degree}-regular: entries left over")
    return matchings


def _augment(a, seen, cols, match_l, match_r) -> bool:
    """Extend the matching by an augmenting path from row a (DFS, column
    order).  A module-level function, not a closure: a closure that
    calls itself is a reference cycle, one left behind per matching."""
    for b in cols[a]:
        if b not in seen:
            seen.add(b)
            if b not in match_r or _augment(match_r[b], seen, cols,
                                            match_l, match_r):
                match_l[a] = b
                match_r[b] = a
                return True
    return False


def _phase_order(a, b, da, db, mid_n: int, inner: bool):
    """The three phases of one phase order of the product router.

    Pebble p starts at coordinates (a[p], b[p]) and ends at (da[p],
    db[p]); a is the coordinate along the factor of order mid_n.  The
    phases move b to an intermediate coordinate, in the inner (g2) copies
    when inner, else in the outer (g1) ones, then a to da along the other
    factor, then the intermediate to db.  The intermediate coordinates
    come from decomposing the a-to-da demand matrix into perfect
    matchings: the k-th pebble of a group with the same (a, da) gets the
    index of the k-th matching that pairs them.  Each phase is (inner,
    fixed, start, target): lists indexed by pebble of the coordinate the
    phase keeps, and of the coordinate along its factor before and after.
    """
    n = len(a) - 1
    groups = defaultdict(list)  # each in increasing pebble order
    for p in range(1, n + 1):
        groups[(a[p], da[p])].append(p)
    count = [[0] * (mid_n + 1) for _ in range(mid_n + 1)]
    for (x, y), pebbles in groups.items():
        count[x][y] = len(pebbles)
    matchings = _regular_bipartite_matchings(count, mid_n, n // mid_n)
    groups = {key: iter(pebbles) for key, pebbles in groups.items()}
    mid = [0] * (n + 1)
    for idx, m in enumerate(matchings, 1):
        for key in m.items():
            mid[next(groups[key])] = idx
    return ((inner, a, b, mid), (not inner, mid, a, da), (inner, da, mid, db))


def _product_phases(g1: Graph, g2: Graph, pi):
    """The phases of the product router's two phase orders (_phase_order):
    inner-first, inner -> outer -> inner through an intermediate g2
    coordinate, and its mirror outer-first."""
    n2 = g2.n

    def coords(vs):  # the g1 and g2 coordinates of each of vs, from index 1
        return ([0, *((v - 1) // n2 + 1 for v in vs)],
                [0, *((v - 1) % n2 + 1 for v in vs)])

    row, col = coords(range(1, len(pi) + 1))  # where each pebble starts
    drow, dcol = coords(pi)  # and where it ends
    return (_phase_order(row, col, drow, dcol, g1.n, True),
            _phase_order(col, row, dcol, drow, n2, False))


def _hop_bound(g: Graph, start, target) -> int:
    """The most edges of g any pebble p must cross, from vertex start[p]
    to target[p].  A swap round moves a pebble along at most one edge, so
    no plan on g is shallower.  Distances are exact on paths, meshes,
    hypercubes and complete graphs; any other graph gets 0."""
    name, params = family_of(g)
    if name == "path":
        return max(map(abs, map(operator.sub, start, target)))
    if name == "complete":
        return int(start != target)
    if name == "hypercube":
        return max(((a - 1) ^ (b - 1)).bit_count()
                   for a, b in zip(start, target))
    if name == "mesh":
        at = [(), *_mesh_points(params)]  # at[v] = coordinates of v
        return max(sum(map(abs, map(operator.sub, at[a], at[b])))
                   for a, b in zip(start, target))
    return 0


def _order_rounds(g1: Graph, g2: Graph, phases, bounds, memo, limit):
    """The rounds of one phase order, planned phase by phase and copy by
    copy, or None as soon as they must take more than limit rounds.

    Every planner's rounds are non-empty, so a phase takes as many rounds
    as its longest copy, and at least its hop bound.  The order needs at
    least the rounds of its done phases, plus the longest copy so far
    (or the current phase's bound), plus the bounds of the phases left.
    """
    n2 = g2.n
    n = g1.n * n2
    rounds = []
    for k, (inner, fixed, start, target) in enumerate(phases):
        g = g2 if inner else g1
        floor = len(rounds) + sum(bounds[k + 1:])
        longest = bounds[k]
        if floor + longest > limit:
            return None
        subs = [[0] * g.n for _ in range(n // g.n)]  # one per copy
        for p in range(1, n + 1):
            subs[fixed[p] - 1][start[p] - 1] = target[p]
        blocks = []
        for c, sub in enumerate(subs):
            block = _auto_rounds(g, sub, memo)
            if len(block) > longest:
                longest = len(block)
                if floor + longest > limit:
                    return None
            verts = (range(c * n2 + 1, c * n2 + n2 + 1) if inner
                     else range(c + 1, n + 1, n2))
            blocks.append((block, verts))
        rounds += _merge_parallel(blocks)
    return rounds


def _product_rounds(g1: Graph, g2: Graph, pi, memo):
    """The shallower of the two phase orders, inner-first on a tie, the
    second one planned only up to the depth it must meet to be kept (see
    the module docstring)."""
    orders = [(phases, [_hop_bound(g2 if inner else g1, start, target)
                        for inner, _, start, target in phases])
              for phases in _product_phases(g1, g2, pi)]
    outer_first = sum(orders[1][1]) < sum(orders[0][1])
    first, second = orders[::-1] if outer_first else orders
    best = _order_rounds(g1, g2, *first, memo, math.inf)
    rounds = _order_rounds(g1, g2, *second, memo,
                           len(best) if outer_first else len(best) - 1)
    return best if rounds is None else rounds


def route_product(g1: Graph, g2: Graph, pi) -> RoutingPlan:
    """Route on the cartesian product of two routable factors.

    The plan takes the shallower of the two phase orders (inner-outer-inner
    and its mirror), inner-first on a tie, and is within bound(g1) +
    bound(g2) + min(bound(g1), bound(g2)) rounds.
    """
    return _route(cartesian_product(g1, g2), pi, ("product", ()))


# ---------------------------------------------------------------------------
# complete multipartite graphs

def _multipartite_involution_rounds(p: int, s: int, pairs):
    """Realize one involution on K_{s,..,s} in at most three rounds.

    Cross-part transpositions swap directly.  Same-part transpositions
    pair up across parts (two rounds through a 4-cycle of cross edges);
    when exactly three parts hold one transposition each, a three-round
    rotation over their six vertices settles all three with no outside
    help.  Leftovers, necessarily confined to a single part, either share
    the 4-cycle with a fully-outside cross transposition or walk through
    an idle outside vertex in three rounds; a counting argument over the
    outside vertices shows one of the two escapes always exists.
    """
    n = p * s
    part = lambda v: (v - 1) // s + 1
    slots = [[], [], []]
    cross = []
    same = defaultdict(list)
    for u, v in sorted(pairs):
        if part(u) == part(v):
            same[part(u)].append((u, v))
        else:
            cross.append((u, v))

    while True:
        live = sorted((x for x in same if same[x]),
                      key=lambda x: (-len(same[x]), x))
        if len(live) < 2:
            break
        if len(live) == 3 and all(len(same[x]) == 1 for x in live):
            (u1, v1), (u2, v2), (u3, v3) = (same[x].pop(0) for x in sorted(live))
            slots[0] += [_norm(u1, u2), _norm(v1, u3), _norm(v2, v3)]
            slots[1] += [_norm(u1, v2), _norm(v1, v3)]
            slots[2] += [_norm(u1, u3), _norm(v1, u2)]
            continue
        (u, v), (w, z) = same[live[0]].pop(0), same[live[1]].pop(0)
        slots[0] += [_norm(u, w), _norm(v, z)]
        slots[1] += [_norm(u, z), _norm(v, w)]

    leftover_part = next((x for x in same if same[x]), None)
    if leftover_part is not None:
        x = leftover_part
        mates = [cp for cp in cross if part(cp[0]) != x and part(cp[1]) != x]
        paired = {v for pr in pairs for v in pr}
        idle = [w for w in range(1, n + 1) if w not in paired and part(w) != x]
        for u, v in same[x]:
            if mates:
                a, b = mates.pop(0)
                cross.remove((a, b))
                slots[0] += [_norm(u, a), _norm(v, b)]
                slots[1] += [_norm(u, b), _norm(v, a)]
            else:
                if not idle:
                    raise ConstructionError(
                        "no escape vertex for a same-part transposition")
                w = idle.pop(0)
                slots[0].append(_norm(u, w))
                slots[1].append(_norm(w, v))
                slots[2].append(_norm(u, w))
    slots[0] += cross
    return [sorted(slot) for slot in slots if slot]


def route_multipartite(p: int, s: int, pi) -> RoutingPlan:
    """Route on the complete p-partite graph with parts of size s; depth <= 6."""
    return _route(multipartite_graph(p, s), pi, ("multipartite", (p, s)))


# ---------------------------------------------------------------------------
# multigrids (and pyramids, whose edges are a superset)

def _multigrid_groups(info: PyramidInfo, mu):
    """The level-crossing pairs (u, v) of the involution mu, u above v,
    grouped by u's level i: (i, the pairs sorted, the vertical paths that
    top out at i), in increasing i.  Each path seats one pair per wave, so
    a level with more than twice as many pairs as paths raises."""
    paths_at = defaultdict(list)
    for path in info.vertical_paths():
        paths_at[info.level[path[0]]].append(path)
    by_upper = defaultdict(list)
    for u, v in _involution_pairs(mu):  # u < v, so level[u] <= level[v]
        if info.level[u] < info.level[v]:
            by_upper[info.level[u]].append((u, v))
    groups = []
    for i in sorted(by_upper):
        group, paths = sorted(by_upper[i]), paths_at[i]
        if len(group) > 2 * len(paths):
            raise ConstructionError(
                f"vertical path capacity exceeded at level {i}: "
                f"{len(group)} pairs, {2 * len(paths)} seats")
        groups.append((i, group, paths))
    return groups


def _multigrid_involution_rounds(info: PyramidInfo, mu, memo):
    """Five macro-rounds for one involution: seat pebbles on vertical paths
    inside their levels, ride the paths in two waves, then settle every
    level.  Pair (u, v) rides a path topping out at u's level, from its
    first vertex to its vertex on v's level."""
    n = info.n
    if all(mu[v - 1] == v for v in range(1, n + 1)):
        return []
    waves = ([], [])
    for i, group, paths in _multigrid_groups(info, mu):
        rides = [(u, v, info.level[v] - i) for u, v in group]
        waves[0].extend(zip(rides, paths))
        waves[1].extend(zip(rides[len(paths):], paths))

    at = list(range(n + 1))  # at[vertex] = pebble (named by start vertex)

    def run(rounds):
        for rnd in rounds:
            for a, b in rnd:
                at[a], at[b] = at[b], at[a]
        return rounds

    def settle(goal):
        """Route every level in its own mesh (local ids are mesh ids): each
        pebble in goal to its goal vertex, which must be on its level, and
        the others, in vertex order, to the vertices left."""
        blocks = []
        for level in range(info.m):
            verts = info.level_vertices(level)
            base = verts[0] - 1
            sub = []
            for v in verts:
                target = goal.get(at[v], 0)
                if target and info.level[target] != level:
                    raise ConstructionError(f"pebble {at[v]} on the wrong level")
                sub.append(target and target - base)
            free = iter(sorted(set(range(1, len(verts) + 1)).difference(sub)))
            sub = [s or next(free) for s in sub]
            mesh = _factor(memo, mesh_graph, info.lengths(level))
            blocks.append((_auto_rounds(mesh, sub, memo), verts))
        return run(_merge_parallel(blocks))

    rounds = []
    for wave in waves:
        seats, blocks = {}, []
        for (u, v, k), path in wave:
            seats[u], seats[v] = path[0], path[k]
        rounds += settle(seats)
        for (u, v, k), path in wave:
            if at[path[0]] != u or at[path[k]] != v:
                raise ConstructionError(
                    f"pebbles {u} and {v} are not on their path seats")
            sub = list(range(1, len(path) + 1))
            sub[0], sub[k] = k + 1, 1
            blocks.append((_path_rounds(len(path), sub), path))
        rounds += run(_merge_parallel(blocks))
    rounds += settle(dict(enumerate(mu, 1)))
    if any(at[t] != p for p, t in enumerate(mu, 1)):
        raise ConstructionError("multigrid involution rounds miss a target")
    return rounds


def multigrid_accounting(m: int, d: int, pi) -> list[dict]:
    """Per-involution vertical-pair counts: {upper level: (count, capacity)}."""
    info = PyramidInfo(m, d)
    return [{i: (len(group), 2 * len(paths))
             for i, group, paths in _multigrid_groups(info, mu)}
            for mu in two_cycle_decompose(pi)]


def route_multigrid(m: int, d: int, pi) -> RoutingPlan:
    """Route on the multigrid (pyramid with thinned vertical edges).

    The plan is also valid on the full pyramid, whose edge set is a
    superset.
    """
    return _route(multigrid_graph(m, d), pi, ("multigrid", (m, d)))


# ---------------------------------------------------------------------------
# generic fallback and dispatch

def _product_bound(b1: int, b2: int) -> int:
    return b1 + b2 + min(b1, b2)


def _mesh_bound(lengths) -> int:
    """route_depth_bound of mesh:lengths without building the mesh."""
    if sum(x > 1 for x in lengths) <= 1:
        return math.prod(lengths)  # the mesh is a path
    return _product_bound(lengths[0], _mesh_bound(lengths[1:]))


def _factor(memo: dict, build, *args) -> Graph:
    """build(*args), made once per route_auto call and kept in its memo."""
    key = (build, args)
    if key not in memo:
        memo[key] = build(*args)
    return memo[key]


# family_of name -> (rounds(g, params, pi, memo), depth bound(g, params));
# "tree", which family_of never names, is route_tree's spanning-tree planner.
# Complete, multipartite and multigrid hosts route pi as two involutions.
# The hypercube routes as path:2 times the cube one dimension down; its
# bound 4 dim - 2 is that product bound unrolled from the 1-cube's 2.  Each
# multigrid involution takes three level settles and two rides of <= m.
_ROUTES = {
    "path": (lambda g, ps, pi, memo: _path_rounds(g.n, pi),
             lambda g, ps: g.n),
    "complete": (lambda g, ps, pi, memo: _by_involutions(
                     pi, lambda mu: [_involution_pairs(mu)]),
                 lambda g, ps: 2),
    "multipartite": (lambda g, ps, pi, memo: _by_involutions(
                         pi, lambda mu: _multipartite_involution_rounds(
                             *ps, _involution_pairs(mu))),
                     lambda g, ps: 6),
    "hypercube": (lambda g, ps, pi, memo: _product_rounds(
                      _factor(memo, path_graph, 2),
                      _factor(memo, hypercube_graph, ps[0] - 1), pi, memo),
                  lambda g, ps: 4 * ps[0] - 2),
    "mesh": (lambda g, ps, pi, memo: _product_rounds(
                 _factor(memo, path_graph, ps[0]),
                 _factor(memo, mesh_graph, ps[1:]), pi, memo),
             lambda g, ps: _mesh_bound(ps)),
    "multigrid": (lambda g, ps, pi, memo: _by_involutions(
                      pi, partial(_multigrid_involution_rounds,
                                  PyramidInfo(*ps), memo=memo)),
                  lambda g, ps: 2 * (3 * _mesh_bound(
                      (1 << (ps[0] - 1),) * ps[1]) + 2 * ps[0])),
    "product": (lambda g, ps, pi, memo: _product_rounds(*g.factors, pi, memo),
                lambda g, ps: _product_bound(
                    *(route_depth_bound(f) for f in g.factors))),
    "tree": (lambda g, ps, pi, memo: _tree_rounds(g, pi),
             lambda g, ps: 3 * g.n),
}
_ROUTES["pyramid"] = _ROUTES["multigrid"]  # pyramid edges are a superset
_GENERIC = (lambda g, ps, pi, memo: _tree_rounds(
                g if is_tree(g) else spanning_tree(g), pi), _ROUTES["tree"][1])


def _auto_rounds(g: Graph, pi, memo: dict):
    """Rounds of the family planner for g.

    A named family's planner other than "product" depends only on (name,
    params, pi), and the product planners meet the same factor sub-problem
    many times over (both phase orders, at every level), so those rounds
    are kept in memo, which lives for one route_auto call.  Rounds taken
    from it are shared: no caller may mutate them.  The factor graphs the
    planners build (paths, meshes, cubes) are kept in memo too.
    """
    if all(pi[v - 1] == v for v in range(1, g.n + 1)):
        return []
    name, params = family_of(g)
    rounds = _ROUTES.get(name, _GENERIC)[0]
    if name not in _ROUTES or name == "product":
        return rounds(g, params, pi, memo)
    key = (name, params, tuple(pi))
    if key not in memo:
        memo[key] = rounds(g, params, pi, memo)
    return memo[key]


def _routed(g: Graph, want, family=None) -> tuple[list, tuple, tuple]:
    """The checked (stages, realized, table) of a route on g that takes
    pebble s to u for each (s, u) in want (a dict or pairs) and the rest
    as complete_assignment does, planned and bounded by _ROUTES for
    family: family_of(g) unless given, since family_of names
    multigrid:2,1 a path, pyramid:2,1 and path:1 x K3 triangles.  The
    collector stays paused."""
    want = dict(want)
    pi = complete_assignment(g.n, want)
    name, params = family or family_of(g)
    planner, bound = _ROUTES.get(name, _GENERIC)
    with _gc_paused():
        rounds = (_auto_rounds(g, pi, {}) if family is None
                  else planner(g, params, pi, {}))
        return _checked(g.n, rounds, want.items(), bound(g, params))


def _route(host: Graph, pi, family=None) -> RoutingPlan:
    """The plan of a public router: pi checked, then routed on host as
    _routed does for family."""
    check_permutation(pi, host.n)
    return _plan(host, _routed(host, enumerate(pi, 1), family))


def route_auto(g: Graph, pi) -> RoutingPlan:
    """Route on any connected graph, dispatching to the family planner.

    The cyclic collector is paused while it runs (see the module docstring).
    """
    with _gc_paused():
        check_connected(g)
        return _route(g, pi)


def route_depth_bound(g: Graph) -> int:
    """Worst-case plan depth promised by route_auto for this graph."""
    name, params = family_of(g)
    return _ROUTES.get(name, _GENERIC)[1](g, params)
