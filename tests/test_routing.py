import gc
import json
import math
import random
import tracemalloc
import weakref
from contextlib import contextmanager
from itertools import chain, zip_longest

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collections import defaultdict

from matchnet import constructions, network, routing
from matchnet.errors import (ConstructionError, ParameterError, StructureError,
                             TaskError)
from matchnet.graphs import (PyramidInfo, adjacency, bfs,
                             cartesian_product, check_tree, complete_graph,
                             cycle_graph,
                             generate, graph,
                             hypercube_graph, mesh_graph, multigrid_graph,
                             multipartite_graph, path_graph, pyramid_graph,
                             random_tree, spanning_tree, star_graph,
                             tree_diameter_path)
from matchnet.network import (_gc_paused, make_network, make_plan,
                              network_from_json, network_to_json,
                              plan_from_json, plan_realized, plan_to_json)
from matchnet.perms import all_permutations, identity, random_permutation
from matchnet.routing import (_norm, _path_rounds, _tree_rounds,
                              complete_assignment,
                              multigrid_accounting, route_auto, route_complete,
                              route_depth_bound, route_multigrid,
                              route_multipartite, route_path, route_product,
                              route_to_path, route_tree, two_cycle_decompose)


def _relabel_rounds(rounds, order):
    """The relabel of the reference planners: local vertex i+1 becomes
    order[i], smaller id first, for any order."""
    out = []
    for rnd in rounds:
        pairs = []
        for u, v in rnd:
            a, b = order[u - 1], order[v - 1]
            pairs.append((a, b) if a < b else (b, a))
        out.append(pairs)
    return out


def _merge_parallel(blocks):
    """The merge of the reference planners: interleave round lists that
    touch disjoint vertex sets."""
    merged = []
    for chunk in zip_longest(*blocks, fillvalue=()):
        pairs = [p for part in chunk for p in part]
        if pairs:
            merged.append(pairs)
    return merged


def _check(plan, pi):
    assert plan.realized == tuple(pi)
    assert plan_realized(plan.graph.n, plan.stages) == tuple(pi)


def test_routed_graph_dies_with_its_last_reference():
    g = random_tree(256, 7)
    pi = list(range(1, 257))
    random.Random(7).shuffle(pi)
    _check(route_auto(g, pi), pi)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None  # no module-level cache keeps the graph alive


def test_two_cycle_decompose_checks_raise_without_asserts(monkeypatch):
    pi = (2, 3, 1)
    monkeypatch.setattr(routing, "compose", lambda a, b: (1, 2, 3))
    with pytest.raises(ConstructionError, match="does not compose"):
        two_cycle_decompose(pi)
    # overlapping "cycles" make mu2 = (2, 3, 2), which is no involution
    monkeypatch.setattr(routing, "compose", lambda a, b: pi)
    monkeypatch.setattr(routing, "cycles", lambda p: [(1, 2), (2, 3)])
    with pytest.raises(ConstructionError, match="not an involution"):
        two_cycle_decompose(pi)


def test_two_cycle_decompose_known():
    mu1, mu2 = two_cycle_decompose((2, 3, 4, 5, 1))
    assert mu1 == (1, 5, 4, 3, 2)
    assert mu2 == (2, 1, 5, 4, 3)


@given(st.integers(1, 40).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))))
def test_two_cycle_decompose_properties(p):
    p = tuple(p)
    mu1, mu2 = two_cycle_decompose(p)
    for mu in (mu1, mu2):
        for v in range(1, len(p) + 1):
            assert mu[mu[v - 1] - 1] == v  # involution
    # mu1 applied first, then mu2
    assert tuple(mu2[mu1[v - 1] - 1] for v in range(1, len(p) + 1)) == p


def test_complete_assignment():
    out = complete_assignment(5, {2: 4, 4: 2})
    assert sorted(out) == [1, 2, 3, 4, 5]
    assert out[1] == 4 and out[3] == 2
    assert out[0] == 1 and out[2] == 3 and out[4] == 5
    with pytest.raises(ParameterError):
        complete_assignment(3, {1: 2, 2: 2})
    # a source outside 1..n would leave a free target short
    for want, source in (({99: 1}, "99"), ({0: 2}, "0"), ({4: 1, 1: 2}, "4")):
        with pytest.raises(ParameterError, match=f"source {source} is not"):
            complete_assignment(3, want)


def test_route_complete_two_stages_all_perms():
    for n in (2, 3, 4, 5):
        for p in all_permutations(n):
            plan = route_complete(n, p)
            assert plan.depth <= 2
            _check(plan, p)


def test_route_path_reversal():
    n = 9
    rev = tuple(range(n, 0, -1))
    plan = route_path(path_graph(n), rev)
    assert plan.depth <= n
    _check(plan, rev)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 16), st.integers(0, 10_000))
def test_route_path_fuzz(n, seed):
    pi = random_permutation(n, random.Random(seed))
    plan = route_path(path_graph(n), pi)
    assert plan.depth <= n
    _check(plan, pi)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 20), st.integers(0, 10_000))
def test_route_tree_fuzz(n, seed):
    rng = random.Random(seed)
    t = random_tree(n, seed)
    pi = random_permutation(n, rng)
    plan = route_tree(t, pi)
    assert plan.depth <= 3 * n
    _check(plan, pi)


def test_route_to_path_single_pebble_within_d():
    for seed in range(20):
        t = random_tree(12, seed)
        d = len(tree_diameter_path(t)) - 1
        rng = random.Random(seed)
        s = rng.randrange(1, 13)
        u = rng.choice(tree_diameter_path(t))
        plan = route_to_path(t, [s], [u])
        assert plan.depth <= d
        assert plan.realized[s - 1] == u


def test_route_to_path_preplaced_is_empty():
    t = path_graph(6)
    plan = route_to_path(t, [2, 4], [2, 4])
    assert plan.depth == 0


def test_route_to_path_rejects_off_path_target():
    t = star_graph(5)  # diameter path has 3 vertices
    path = tree_diameter_path(t)
    off = [v for v in range(1, 6) if v not in path]
    with pytest.raises(ParameterError):
        route_to_path(t, [1], [off[0]])
    for sources, targets, text in (([1, 4], [path[0]], "must pair up"),
                                   ([1, 1], path[:2], "distinct vertices"),
                                   ([1, 4], [path[0]] * 2,
                                    "distinct vertices")):
        with pytest.raises(ParameterError, match=text):
            route_to_path(t, sources, targets)


def test_route_to_path_refuses_ids_that_are_not_ints():
    # int() routed 1.5 and True as 1, "3" as 3 and 6.0 as 6
    t = random_tree(10, 1)
    path = tree_diameter_path(t)
    for sources, targets in (([1.5], [path[0]]), ([True], [path[0]]),
                             (["3"], [path[0]]), ([1], [float(path[0])]),
                             ([np.int64(1)], [path[0]])):
        with pytest.raises(StructureError, match="non-integer vertex id"):
            route_to_path(t, sources, targets)
    assert route_to_path(t, [1], [path[0]]).realized[0] == path[0]


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 24), st.integers(0, 10_000))
def test_route_to_path_depth_bound(n, seed):
    rng = random.Random(seed)
    t = random_tree(n, seed)
    dpath = tree_diameter_path(t)
    d = len(dpath) - 1
    k = rng.randrange(1, d + 1)
    sources = rng.sample(range(1, n + 1), k)
    targets = rng.sample(dpath, k)
    plan = route_to_path(t, sources, targets)
    assert plan.depth <= d + 2 * (k - 1)
    assert sorted(plan.realized[s - 1] for s in sources) == sorted(targets)


def test_route_to_path_target_check_raises_without_asserts(monkeypatch):
    monkeypatch.setattr(routing, "_to_path_rounds",
                        lambda t, sources, targets: ([], [(1, 6)]))
    with pytest.raises(ConstructionError, match="not on its target"):
        route_to_path(path_graph(6), [1], [6])


def test_route_to_path_bound_check_raises_without_asserts(monkeypatch):
    # the pebble from 1 reaches 6 on P6 (d = 5, k = 1), then two more rounds
    # swap 1 and 2 back and forth: on target, but 7 rounds against 5
    real = routing._to_path_rounds

    def overlong(t, sources, targets):
        rounds, pairs = real(t, sources, targets)
        return rounds + [[(1, 2)], [(1, 2)]], pairs

    monkeypatch.setattr(routing, "_to_path_rounds", overlong)
    with pytest.raises(ConstructionError, match="depth 7 exceeds bound 5"):
        route_to_path(path_graph(6), [1], [6])
    with pytest.raises(ConstructionError, match="depth 2 exceeds bound 0"):
        route_to_path(path_graph(6), [], [])


@pytest.mark.xfail(strict=True, raises=(AssertionError, ConstructionError),
                   reason="a non-full merge onto targets that are not a path "
                          "prefix takes 19 rounds against its bound 17")
def test_route_to_path_meets_its_bound_on_a_non_prefix_merge():
    route_to_path(random_tree(28, 1807238681), [5, 15, 20, 9],
                  [20, 11, 13, 7])  # d = 11, k = 4


def test_route_to_path_refuses_a_source_outside_the_tree():
    for s in (0, 7):
        with pytest.raises(ParameterError, match="not a vertex"):
            route_to_path(path_graph(6), [s], [6])


def _reference_route_to_path(t, sources, targets):
    """route_to_path as it was before the path projection: a BFS from every
    source and toward every target, and the O(k^3) target selection."""
    check_tree(t)
    dpath = tree_diameter_path(t)
    d = len(dpath) - 1
    sources = [int(s) for s in sources]
    targets = [int(u) for u in targets]
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
        return make_plan(t, [])

    dist = {s: bfs(t, [s])[2] for s in sources}
    remaining_s = sorted(sources)
    remaining_t = sorted(targets)
    selection = []
    while remaining_s:
        v = min(remaining_s,
                key=lambda s: (-min(dist[s][u] for u in remaining_t), s))
        u = min(remaining_t, key=lambda w: (dist[v][w], w))
        selection.append((v, u))
        remaining_s.remove(v)
        remaining_t.remove(u)
    order = selection[::-1]  # order[i] must arrive by round d + 2i

    toward = {}
    adj = adjacency(t)
    for u in targets:
        nxt = {u: 0}
        frontier = [u]
        while frontier:
            fresh = []
            for v in frontier:
                for w in adj[v]:
                    if w not in nxt:
                        nxt[w] = v
                        fresh.append(w)
            frontier = fresh
        toward[u] = nxt

    pos = [s for s, _ in order]
    goal = [u for _, u in order]
    start = [d + 2 * i - dist[order[i][0]][goal[i]] + 1 for i in range(k)]
    occ = {pos[i]: i for i in range(k)}
    settled = [False] * k
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
            nxt = toward[goal[i]][cur]
            if nxt in used:
                continue
            j = occ.get(nxt)
            if (j is not None and pos[j] != goal[j] and tick >= start[j]
                    and toward[goal[j]][pos[j]] != cur):
                continue
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
        for i in range(k):
            if not settled[i] and pos[i] == goal[i] and tick >= start[i]:
                settled[i] = True

    # its two asserts, spelled so that they are off under python -O as in
    # the library (pytest keeps the asserts of a test module on); there
    # route_to_path's bound check raises on an overrun instead
    if len(rounds) > d + 2 * (k - 1):
        raise AssertionError if __debug__ else ConstructionError
    plan = make_plan(t, [[(u, v, "swap") for u, v in r] for r in rounds if r])
    want = dict(selection)
    for s in sources:
        if __debug__ and plan.realized[s - 1] != want[s]:
            raise AssertionError
    return plan


def _routed(router, t, sources, targets):
    """The plan's JSON, or the type of the exception the router raised."""
    try:
        return plan_to_json(router(t, sources, targets))
    except Exception as e:
        return type(e)


def _assert_routes_like_the_reference(t, rng):
    """Every k <= d, with targets a path prefix (as longest_path_sort
    asks) and a random subset of the path."""
    dpath = tree_diameter_path(t)
    for k in range(len(dpath) + 1):
        sources = rng.sample(range(1, t.n + 1), min(k, t.n))
        for targets in (dpath[:k], rng.sample(dpath, min(k, len(dpath)))):
            assert _routed(route_to_path, t, sources, targets) == \
                _routed(_reference_route_to_path, t, sources, targets), \
                (sources, targets)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 64), st.integers(0, 2**31 - 1))
def test_route_to_path_matches_the_bfs_router(n, seed):
    _assert_routes_like_the_reference(random_tree(n, seed), random.Random(seed))


@pytest.mark.parametrize("spec", ["mesh:4,8", "mesh:3,3,3", "mesh:8,8",
                                  "hypercube:5", "hypercube:6", "star:24"])
def test_route_to_path_matches_the_bfs_router_on_spanning_trees(spec):
    _assert_routes_like_the_reference(spanning_tree(generate(spec)),
                                      random.Random(spec))


@pytest.mark.parametrize("spec", [
    "mesh:4,8", "hypercube:5", "star:24",
    # the three known trees where the walk overruns its round bound
    "random_tree:12,205556668", "random_tree:32,62502428",
    "random_tree:64,430817319"])
def test_longest_path_sort_routes_as_the_bfs_router(monkeypatch, spec):
    outcomes = []
    real = constructions._to_path_stages

    def both(t, sources, targets):
        outcomes.append((_routed(route_to_path, t, sources, targets),
                         _routed(_reference_route_to_path, t, sources,
                                 targets)))
        return real(t, sources, targets)

    monkeypatch.setattr(constructions, "_to_path_stages", both)
    try:
        net = constructions.longest_path_sort(generate(spec))
        raised = None
    except Exception as e:
        raised = type(e)
    assert outcomes and all(got == want for got, want in outcomes)
    if spec.startswith("random_tree"):
        # the router's round-count assert, or its bound check under -O
        assert raised is (AssertionError if __debug__ else ConstructionError)
        assert outcomes[-1][0] == raised or not __debug__
    else:
        assert raised is None and net.depth <= net.certificate["claimed_bound"]


def test_route_multipartite_exhaustive_small():
    for (p, s) in ((2, 2), (3, 1), (2, 3)):
        n = p * s
        for pi in all_permutations(n):
            plan = route_multipartite(p, s, pi)
            assert plan.depth <= 6
            _check(plan, pi)


def test_route_multigrid_exhaustive_2_2():
    for pi in all_permutations(5):
        plan = route_multigrid(2, 2, pi)
        _check(plan, pi)


def test_route_multigrid_identity_and_apex():
    assert route_multigrid(3, 1, identity(7)).depth == 0
    swap = (2, 1, 3, 4, 5, 6, 7)
    plan = route_multigrid(3, 1, swap)
    _check(plan, swap)


def test_multigrid_accounting_caps():
    rng = random.Random(5)
    for _ in range(20):
        pi = random_permutation(21, rng)
        rows = multigrid_accounting(3, 2, pi)
        assert rows, "accounting must cover at least one involution pass"
        for row in rows:
            for level, (pairs, cap) in row.items():
                assert pairs <= cap


def _reference_accounting(m, d, pi):
    """Per involution of pi, {upper level i: (level-crossing pairs with
    their upper end on i, 2 * phi)}, phi in closed form: one path from the
    apex, else n_i - n_(i-1) paths topping out at level i."""
    sizes = [1 << (l * d) for l in range(m)]

    def level_of(v):
        l = 0
        while v > sum(sizes[:l + 1]):
            l += 1
        return l

    rows = []
    for mu in two_cycle_decompose(pi):
        count = defaultdict(int)
        for v, w in enumerate(mu, 1):
            if w > v and level_of(v) != level_of(w):
                count[min(level_of(v), level_of(w))] += 1
        rows.append({i: (count[i], 2 * (sizes[i] - sizes[i - 1] if i else 1))
                     for i in sorted(count)})
    return rows


@pytest.mark.parametrize("m, d", [(3, 2), (4, 1)])
def test_multigrid_accounting_matches_the_reference_counts(m, d):
    n = multigrid_graph(m, d).n
    crossing = 0
    for seed in range(200):
        pi = random_permutation(n, random.Random(seed))
        rows = multigrid_accounting(m, d, pi)
        assert rows == _reference_accounting(m, d, pi)
        crossing += sum(pairs for row in rows for pairs, _ in row.values())
    assert crossing > 200


class _NoApexPath(PyramidInfo):
    """A multigrid whose apex path is lost."""

    def vertical_paths(self):
        return [p for p in super().vertical_paths() if self.level[p[0]]]


def test_multigrid_path_capacity_raises_without_asserts():
    info = _NoApexPath(2, 1)
    assert info.level[1:] == [0, 1, 1]
    # swapping the apex with a vertex below needs a seat on the apex path
    with pytest.raises(ConstructionError, match="capacity exceeded at level 0"):
        routing._multigrid_involution_rounds(info, (2, 1, 3), {})



def test_multigrid_involution_checks_raise_without_asserts(monkeypatch):
    # pyramid:3,1 has vertical paths [1, 2, 4], [3, 6], [5], [7]
    info = PyramidInfo(3, 1)
    swap = lambda u, v: tuple(v if w == u else u if w == v else w
                              for w in range(1, info.n + 1))
    # level meshes that move nobody: pebble 7 never boards its seat 4
    monkeypatch.setattr(routing, "_auto_rounds", lambda *args: [])
    with pytest.raises(ConstructionError, match="not on their path seats"):
        routing._multigrid_involution_rounds(info, swap(1, 7), {})
    # nor does the final settle move pebbles 4 and 5 within level 2
    with pytest.raises(ConstructionError, match="miss a target"):
        routing._multigrid_involution_rounds(info, swap(4, 5), {})
    monkeypatch.undo()
    # a vertical ride that moves nobody leaves pebble 1 on level 0
    monkeypatch.setattr(routing, "_path_rounds", lambda n, sub: [])
    with pytest.raises(ConstructionError, match="pebble 1 on the wrong level"):
        routing._multigrid_involution_rounds(info, swap(1, 4), {})

@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_route_multigrid_fuzz(seed):
    rng = random.Random(seed)
    m, d = rng.choice([(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
    g = multigrid_graph(m, d)
    pi = random_permutation(g.n, rng)
    plan = route_multigrid(m, d, pi)
    _check(plan, pi)
    # route_depth_bound promises the route_auto dispatch, which may pick a
    # cheaper family (multigrid(2,1) is a path), so bound that plan instead
    assert route_auto(g, pi).depth <= route_depth_bound(g)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_route_product_fuzz(seed):
    rng = random.Random(seed)
    a, b = rng.choice([(2, 3), (3, 3), (2, 4), (4, 4), (3, 5)])
    g1, g2 = path_graph(a), path_graph(b)
    pi = random_permutation(a * b, rng)
    plan = route_product(g1, g2, pi)
    _check(plan, pi)
    b1, b2 = route_depth_bound(g1), route_depth_bound(g2)
    assert plan.depth <= b1 + b2 + min(b1, b2)


def _reference_product_rounds_one(g1, g2, pi, inner_first, memo):
    """The product router's one phase order as first written: all three
    phases planned in full."""
    n1, n2 = g1.n, g2.n
    n = n1 * n2
    row = [0] * (n + 1)  # current g1 coordinate of each pebble
    col = [0] * (n + 1)  # current g2 coordinate
    drow = [0] * (n + 1)
    dcol = [0] * (n + 1)
    for p in range(1, n + 1):
        row[p], col[p] = (p - 1) // n2 + 1, (p - 1) % n2 + 1
        q = pi[p - 1]
        drow[p], dcol[p] = (q - 1) // n2 + 1, (q - 1) % n2 + 1

    def placed():
        at = [0] * (n + 1)  # at[v] = the pebble now on vertex v
        for p in range(1, n + 1):
            at[(row[p] - 1) * n2 + col[p]] = p
        return at

    def inner_phase(target_col):
        at = placed()
        blocks = []
        for a in range(1, n1 + 1):
            verts = [(a - 1) * n2 + b for b in range(1, n2 + 1)]
            sub = [target_col[at[v]] for v in verts]
            blocks.append(_relabel_rounds(
                routing._auto_rounds(g2, sub, memo), verts))
        for p in range(1, n + 1):
            col[p] = target_col[p]
        return _merge_parallel(blocks)

    def outer_phase(target_row):
        at = placed()
        blocks = []
        for b in range(1, n2 + 1):
            verts = [(a - 1) * n2 + b for a in range(1, n1 + 1)]
            sub = [target_row[at[v]] for v in verts]
            blocks.append(_relabel_rounds(
                routing._auto_rounds(g1, sub, memo), verts))
        for p in range(1, n + 1):
            row[p] = target_row[p]
        return _merge_parallel(blocks)

    if inner_first:
        axis, deg, mid_n = row, n2, n1
        dest_axis = drow
    else:
        axis, deg, mid_n = col, n1, n2
        dest_axis = dcol
    count = [[0] * (mid_n + 1) for _ in range(mid_n + 1)]
    for p in range(1, n + 1):
        count[axis[p]][dest_axis[p]] += 1
    matchings = routing._regular_bipartite_matchings(count, mid_n, deg)
    slots = defaultdict(list)
    for idx, m in enumerate(matchings):
        for a, b in m.items():
            slots[(a, b)].append(idx)
    buckets = defaultdict(list)
    for p in range(1, n + 1):
        buckets[(axis[p], dest_axis[p])].append(p)
    mid = [0] * (n + 1)
    for key in buckets:
        for p, idx in zip(sorted(buckets[key]), slots[key]):
            mid[p] = idx + 1

    if inner_first:
        return (inner_phase(mid)
                + outer_phase(drow)
                + inner_phase(dcol))
    return (outer_phase(mid)
            + inner_phase(dcol)
            + outer_phase(drow))


def _reference_product_rounds(g1, g2, pi, memo):
    """Both phase orders planned in full, the shallower kept."""
    first = _reference_product_rounds_one(g1, g2, pi, True, memo)
    second = _reference_product_rounds_one(g1, g2, pi, False, memo)
    return first if len(first) <= len(second) else second


def _small_factor(kind, size, rng):
    if kind == "star":
        return star_graph(size + 1)
    if kind == "cycle":
        return cycle_graph(size + 2)
    if kind == "complete":
        return complete_graph(size)
    if kind == "path":
        return path_graph(size)
    return random_tree(size, rng.randrange(2**31))


def _product_task(kind, a, b, rng):
    """(route(pi), pi): a random task for the product router, on route_auto
    hosts that route through it or on route_product over two factors."""
    if kind == "mesh":
        g = generate("mesh:" + ",".join(str(rng.randint(1, 6))
                                        for _ in range(rng.randint(2, 3))))
    elif kind == "hypercube":
        g = generate(f"hypercube:{rng.randint(1, 6)}")
    elif kind in ("pyramid", "multigrid"):
        g = generate(kind + ":" + rng.choice(["2,1", "3,1", "4,1", "2,2",
                                               "3,2", "2,3"]))
    else:
        g1, g2 = (_small_factor(rng.choice(["star", "cycle", "complete",
                                            "tree", "path"]), size, rng)
                  for size in (a, b))
        pi = random_permutation(g1.n * g2.n, rng)
        return lambda: routing._product_rounds(g1, g2, pi, {}), pi
    pi = random_permutation(g.n, rng)
    return lambda: routing._auto_rounds(g, pi, {}), pi


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["mesh", "hypercube", "pyramid", "multigrid",
                        "product"]),
       st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_product_rounds_match_the_two_order_planner(kind, a, b, seed):
    route, pi = _product_task(kind, a, b, random.Random(seed))
    got = route()
    with pytest.MonkeyPatch.context() as patch:  # every level: both orders
        patch.setattr(routing, "_product_rounds", _reference_product_rounds)
        want = route()
    assert got == want
    assert json.dumps(got) == json.dumps(want)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["mesh", "hypercube", "product"]),
       st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_phase_hop_bounds_never_exceed_the_planned_phase(kind, a, b, seed):
    rng = random.Random(seed)
    if kind == "mesh":
        g1 = path_graph(rng.randint(1, 6))
        g2 = mesh_graph([rng.randint(1, 6) for _ in range(rng.randint(1, 2))])
    elif kind == "hypercube":
        g1, g2 = path_graph(2), hypercube_graph(rng.randint(1, 5))
    else:
        g1, g2 = (_small_factor(rng.choice(["star", "cycle", "complete",
                                            "tree", "path"]), size, rng)
                  for size in (a, b))
    pi = random_permutation(g1.n * g2.n, rng)
    memo = {}
    for phases in routing._product_phases(g1, g2, pi):
        for phase in phases:
            inner, _, start, target = phase
            bound = routing._hop_bound(g2 if inner else g1, start, target)
            depth = len(routing._order_rounds(g1, g2, [phase], [0], memo,
                                              math.inf))
            assert 0 <= bound <= depth


@pytest.mark.parametrize("spec", ["path:7", "mesh:3,4", "mesh:2,3,2",
                                  "hypercube:1", "hypercube:4",
                                  "complete:5", "star:5", "cycle:6"])
def test_hop_bound_is_the_graph_distance(spec):
    g = generate(spec)
    exact = spec.partition(":")[0] in ("path", "mesh", "hypercube",
                                       "complete")
    for a in range(1, g.n + 1):
        dist = bfs(g, [a])[2]
        for b in range(1, g.n + 1):
            hops = routing._hop_bound(g, [0, a], [0, b])
            assert hops == (dist[b] if exact else 0)


def test_product_router_drops_an_order_that_cannot_win(monkeypatch):
    g = hypercube_graph(6)
    pi = random_permutation(g.n, random.Random(1))
    calls = []
    real = routing._auto_rounds

    def counted(*args):
        calls.append(args[0].n)
        return real(*args)

    monkeypatch.setattr(routing, "_auto_rounds", counted)
    got = route_auto(g, pi)
    pruned = len(calls)
    calls.clear()
    monkeypatch.setattr(routing, "_product_rounds", _reference_product_rounds)
    assert route_auto(g, pi) == got
    assert 4 * pruned < len(calls)


def test_route_auto_dispatch_families():
    rng = random.Random(0)
    specs = ["path:7", "complete:6", "multipartite:3,2", "hypercube:3",
             "mesh:3,3", "multigrid:3,1", "pyramid:2,2", "cycle:7", "star:8"]
    for spec in specs:
        g = generate(spec)
        pi = random_permutation(g.n, rng)
        plan = route_auto(g, pi)
        _check(plan, pi)
        assert plan.depth <= route_depth_bound(g), spec


def test_route_auto_generic_bound():
    g = cycle_graph(9)
    assert route_depth_bound(g) <= 3 * 9


def test_route_rejects_non_permutation():
    with pytest.raises(TaskError):
        route_path(path_graph(3), (1, 1, 2))
    with pytest.raises(TaskError):
        route_complete(3, (1, 2))
    # route_path also refuses a host that is not the canonical path 1-2-..-n
    for g in (graph(3, [(1, 3), (2, 3)]), star_graph(4)):
        with pytest.raises(StructureError, match="canonical path graph"):
            route_path(g, tuple(range(1, g.n + 1)))


def test_plan_checks_raise_even_without_asserts():
    g = path_graph(3)
    with pytest.raises(ConstructionError, match="realize"):
        routing._checked(g.n, [[(1, 2)]], enumerate((1, 2, 3), 1), 3)
    with pytest.raises(ConstructionError, match="exceeds bound"):
        routing._checked(g.n, [[(1, 2)], [(2, 3)]], enumerate((3, 1, 2), 1), 1)
    stages, realized, _ = routing._checked(g.n, [[(1, 2)]],
                                           enumerate((2, 1, 3), 1), 1)
    assert len(stages) == 1 and realized == (2, 1, 3)


def _reference_centroid(t):
    adj = adjacency(t)
    n = t.n
    parent = {1: 0}
    order = [1]
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    size = {v: 1 for v in range(1, n + 1)}
    for v in reversed(order):
        if parent[v]:
            size[parent[v]] += size[v]
    best, best_v = n + 1, 0
    for v in range(1, n + 1):
        heaviest = n - size[v]
        for w in adj[v]:
            if w != parent[v]:
                heaviest = max(heaviest, size[w])
        if heaviest < best or (heaviest == best and v < best_v):
            best, best_v = heaviest, v
    return best_v


def _reference_path_order(t):
    adj = adjacency(t)
    end = min(v for v in range(1, t.n + 1) if len(adj[v]) <= 1)
    order = [end]
    prev = 0
    while len(order) < t.n:
        nxt = [w for w in adj[order[-1]] if w != prev]
        assert len(nxt) == 1
        prev = order[-1]
        order.append(nxt[0])
    return order


def _reference_tree_rounds(t, pi):
    """The tree planner as first written: every round re-scans the tree."""
    n = t.n
    dest = [0] + list(pi)  # dest[v] = target of the pebble now on v
    if all(dest[v] == v for v in range(1, n + 1)):
        return []
    adj = adjacency(t)
    if max(len(adj[v]) for v in range(1, n + 1)) <= 2:
        order = _reference_path_order(t)
        posin = {v: i + 1 for i, v in enumerate(order)}
        sub = [posin[dest[order[i]]] for i in range(n)]
        return _relabel_rounds(_path_rounds(n, sub), order)

    c = _reference_centroid(t)
    comp = {c: 0}  # component label = id of the root neighbour
    depth = {c: 0}
    parent = {c: 0}
    order = [c]
    for v in order:
        for w in adj[v]:
            if w not in comp:
                comp[w] = w if v == c else comp[v]
                depth[w] = depth[v] + 1
                parent[w] = v
                order.append(w)

    def proper(v):
        return comp[dest[v]] == comp[v] if v != c else dest[c] == c

    by_depth = sorted((v for v in range(1, n + 1) if v != c),
                      key=lambda v: (depth[v], v))
    rounds = []
    while True:
        improper = [v for v in range(1, n + 1) if not proper(v)]
        if not improper:
            break
        pairs = []
        used = set()
        if dest[c] != c:
            q = comp[dest[c]]  # pebble on c belongs past this root
            if not proper(q):
                pairs.append(_norm(c, q))
                used.update((c, q))
        else:
            cands = [r for r in adj[c] if not proper(r)]
            if cands:
                x = min(cands)
                pairs.append(_norm(c, x))
                used.update((c, x))
        for v in by_depth:
            p = parent[v]
            if p == c or v in used or p in used:
                continue
            if not proper(v) and proper(p):
                pairs.append(_norm(p, v))
                used.update((p, v))
        if not pairs:
            raise ConstructionError("tree routing stalled")
        for u, v in pairs:
            dest[u], dest[v] = dest[v], dest[u]
        rounds.append(pairs)
        if len(rounds) > 6 * n:
            raise ConstructionError("tree routing did not converge")

    comps = defaultdict(list)
    for v in range(1, n + 1):
        if v != c:
            comps[comp[v]].append(v)
    blocks = []
    for r in sorted(comps):
        vs = sorted(comps[r])
        local = {v: i + 1 for i, v in enumerate(vs)}
        inside = set(vs)
        sub_edges = [(local[u], local[v]) for u, v in t.sorted_edges()
                     if u in inside and v in inside]
        sub_t = graph(len(vs), sub_edges)
        sub_pi = [local[dest[v]] for v in vs]
        blocks.append(_relabel_rounds(_reference_tree_rounds(sub_t, sub_pi), vs))
    return rounds + _merge_parallel(blocks)


def _caterpillar(spine, legs, rng):
    """Spine path with `legs` leaves per spine vertex, randomly numbered."""
    n = spine * (1 + legs)
    name = list(range(1, n + 1))
    rng.shuffle(name)
    edges = [(name[i], name[i + 1]) for i in range(spine - 1)]
    edges += [(name[i % spine], name[spine + i]) for i in range(n - spine)]
    return graph(n, edges)


def _star(n, rng):
    """Star with a randomly chosen centre."""
    centre = rng.randrange(1, n + 1)
    return graph(n, [(centre, v) for v in range(1, n + 1) if v != centre])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["random", "star", "caterpillar"]),
       st.integers(1, 60), st.integers(0, 10_000))
def test_tree_rounds_match_the_rescanning_planner(shape, n, seed):
    rng = random.Random(seed)
    if shape == "random":
        t = random_tree(n, seed)
    elif shape == "star":
        t = _star(max(n, 2), rng)
    else:
        t = _caterpillar(max(1, n // 6), rng.randrange(1, 6), rng)
    pi = random_permutation(t.n, rng)
    assert _tree_rounds(t, pi) == _reference_tree_rounds(t, pi)


def _dict_tree_rounds(t, pi):
    """The frontier tree planner as it was kept in dicts, before the flat
    lists: the reference the flat-list planner must match round for round."""
    n = t.n
    dest = [0] + list(pi)  # dest[v] = target of the pebble now on v
    if all(dest[v] == v for v in range(1, n + 1)):
        return []
    adj = adjacency(t)
    if max(len(adj[v]) for v in range(1, n + 1)) <= 2:
        order = _reference_path_order(t)
        posin = {v: i + 1 for i, v in enumerate(order)}
        sub = [posin[dest[order[i]]] for i in range(n)]
        return _relabel_rounds(_path_rounds(n, sub), order)

    c = _reference_centroid(t)
    comp = {c: 0}  # component label = id of the root neighbour
    depth = {c: 0}
    parent = {c: 0}
    order = [c]
    for v in order:
        for w in adj[v]:
            if w not in comp:
                comp[w] = w if v == c else comp[v]
                depth[w] = depth[v] + 1
                parent[w] = v
                order.append(w)

    def proper(v):
        return comp[dest[v]] == comp[v] if v != c else dest[c] == c

    ok = [True] * (n + 1)
    bad_kids = defaultdict(set)  # parent -> its improper children
    bad = 0
    for v in range(1, n + 1):
        if not proper(v):
            ok[v] = False
            bad += 1
            if v != c:
                bad_kids[parent[v]].add(v)
    frontier = {p for p in bad_kids if p != c and ok[p]}
    rounds = []
    while bad:
        pairs = []
        if not ok[c]:
            q = comp[dest[c]]  # pebble on c belongs past this root
            if not ok[q]:
                pairs.append(_norm(c, q))
        elif bad_kids[c]:
            pairs.append(_norm(c, min(bad_kids[c])))
        kids = sorted((min(bad_kids[p]) for p in frontier),
                      key=lambda v: (depth[v], v))
        pairs += [_norm(parent[v], v) for v in kids]
        if not pairs:
            raise ConstructionError("tree routing stalled")
        touched = set()
        for u, v in pairs:
            dest[u], dest[v] = dest[v], dest[u]
            touched.update((u, v))
        for v in touched:
            if proper(v) != ok[v]:
                ok[v] = not ok[v]
                bad += -1 if ok[v] else 1
                if v != c:
                    if ok[v]:
                        bad_kids[parent[v]].discard(v)
                    else:
                        bad_kids[parent[v]].add(v)
        for v in touched | {parent[v] for v in touched}:
            if v != c and v and ok[v] and bad_kids.get(v):
                frontier.add(v)
            else:
                frontier.discard(v)
        rounds.append(pairs)
        if len(rounds) > 6 * n:
            raise ConstructionError("tree routing did not converge")

    comps = defaultdict(list)
    for v in range(1, n + 1):
        if v != c:
            comps[comp[v]].append(v)
    local = {v: i + 1 for vs in comps.values() for i, v in enumerate(vs)}
    sub_edges = defaultdict(list)
    for u, v in sorted(t.edges):
        if u != c and v != c:
            sub_edges[comp[u]].append((local[u], local[v]))
    blocks = []
    for r in sorted(comps):
        vs = comps[r]
        sub_pi = [local[dest[v]] for v in vs]
        blocks.append(_relabel_rounds(
            _dict_tree_rounds(graph(len(vs), sub_edges[r]), sub_pi), vs))
    return rounds + _merge_parallel(blocks)


def _broom(handle, bristles, rng):
    """A path of `handle` vertices with `bristles` leaves on its last one,
    randomly numbered."""
    n = handle + bristles
    name = list(range(1, n + 1))
    rng.shuffle(name)
    edges = [(name[i], name[i + 1]) for i in range(handle - 1)]
    edges += [(name[handle - 1], name[i]) for i in range(handle, n)]
    return graph(n, edges)


def _random_connected(n, extra, rng):
    """A random tree on 1..n plus `extra` random chords."""
    edges = {(rng.randrange(1, v), v) for v in range(2, n + 1)}
    for _ in range(extra if n > 2 else 0):
        u, v = rng.sample(range(1, n + 1), 2)
        edges.add((u, v))
    return graph(n, edges)


def _outcome(planner, t, pi):
    try:
        return planner(t, pi)
    except Exception as e:  # the same exception type from both planners
        return type(e)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["random", "star", "broom", "caterpillar", "spanning",
                        "path"]),
       st.integers(1, 200), st.integers(0, 2**31 - 1))
def test_tree_rounds_match_the_dict_planner(shape, n, seed):
    rng = random.Random(seed)
    if shape == "path":  # shuffled labels: the path order is not increasing
        t = _broom(n, 0, rng)
    elif shape == "random":
        t = random_tree(n, seed)
    elif shape == "star":
        t = _star(max(n, 2), rng)
    elif shape == "broom":
        t = _broom(rng.randrange(1, n + 1), rng.randrange(0, n + 1), rng)
    elif shape == "caterpillar":
        t = _caterpillar(max(1, n // 6), rng.randrange(1, 6), rng)
    else:
        t = spanning_tree(_random_connected(n, rng.randrange(0, 2 * n), rng))
    pi = random_permutation(t.n, rng)
    assert _outcome(_tree_rounds, t, pi) == _outcome(_dict_tree_rounds, t, pi)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["path:{}", "cycle:{}", "star:{}", "complete:{}",
                        "mesh:{},3", "mesh:2,{},2", "hypercube:{}",
                        "multipartite:{},3", "pyramid:{},2", "multigrid:{},1",
                        "random_tree:{}", "random"]),
       st.integers(1, 40), st.integers(0, 2**31 - 1))
def test_route_auto_and_the_spanning_tree_planner_both_realize_pi(
        spec, size, seed):
    rng = random.Random(seed)
    if spec == "random":
        g = _random_connected(size, rng.randrange(0, 2 * size), rng)
    else:
        small = {"hypercube:{}": 5, "pyramid:{},2": 3, "multigrid:{},1": 4,
                 "mesh:2,{},2": 8}.get(spec, 40)
        low = {"cycle:{}": 3, "star:{}": 2, "multipartite:{},3": 2,
               "pyramid:{},2": 1}.get(spec, 1)
        g = generate(spec.format(low + size % (small - low + 1)))
    pi = random_permutation(g.n, rng)
    plan = route_auto(g, pi)
    # (None, ()) names no family: the generic spanning-tree planner, bound
    # 3n; _plan freezes its stages, so each must be a matching of host edges
    tree_plan = routing._plan(g, routing._routed(g, enumerate(pi, 1),
                                                 (None, ())))
    assert plan.realized == tree_plan.realized == tuple(pi)
    assert plan.depth <= route_depth_bound(g)
    assert tree_plan.depth <= 3 * g.n


def test_route_auto_keeps_no_state_between_calls(monkeypatch):
    rng = random.Random(3)
    for g in (hypercube_graph(5), mesh_graph((4, 4, 2)), pyramid_graph(3, 2)):
        pi = random_permutation(g.n, rng)
        first = plan_to_json(route_auto(g, pi))
        assert plan_to_json(route_auto(g, pi)) == first
        # a planner that goes wrong part way through one call: that call
        # fails, and nothing it planned leaks into the next one
        calls = []
        real = routing._path_rounds

        def flaky(n, sub):
            calls.append(n)
            return [] if len(calls) % 2 else real(n, sub)

        monkeypatch.setattr(routing, "_path_rounds", flaky)
        with pytest.raises((ConstructionError, AssertionError)):
            route_auto(g, pi)
        monkeypatch.undo()
        assert plan_to_json(route_auto(g, pi)) == first


def _dense_bipartite_matchings(count, n, degree):
    """The demand decomposition as first written: every augment step scans
    all n columns of its row."""
    count = [row[:] for row in count]
    matchings = []
    for _ in range(degree):
        match_l = {}
        match_r = {}

        def augment(a, seen):
            for b in range(1, n + 1):
                if count[a][b] > 0 and b not in seen:
                    seen.add(b)
                    if b not in match_r or augment(match_r[b], seen):
                        match_l[a] = b
                        match_r[b] = a
                        return True
            return False

        for a in range(1, n + 1):
            if a not in match_l:
                assert augment(a, set())
        for a, b in match_l.items():
            count[a][b] -= 1
        matchings.append(match_l)
    return matchings


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9), st.integers(1, 6), st.randoms(use_true_random=False))
def test_sparse_demand_rows_give_the_dense_matchings(n, degree, rng):
    # a degree-regular demand matrix: the sum of `degree` random permutations
    count = [[0] * (n + 1) for _ in range(n + 1)]
    for _ in range(degree):
        for a, b in enumerate(random_permutation(n, rng), start=1):
            count[a][b] += 1
    want = _dense_bipartite_matchings(count, n, degree)
    got = routing._regular_bipartite_matchings(count, n, degree)
    assert got == want
    assert [list(m.items()) for m in got] == [list(m.items()) for m in want]


def test_demand_decomposition_raises_without_asserts():
    # column 1 is wanted twice and column 2 never: no perfect matching
    with pytest.raises(ConstructionError, match="failed to decompose"):
        routing._regular_bipartite_matchings([[0, 0, 0], [0, 1, 0],
                                              [0, 1, 0]], 2, 1)
    # 2-regular demand split into one matching leaves entries over
    with pytest.raises(ConstructionError, match="left over"):
        routing._regular_bipartite_matchings([[0, 0, 0], [0, 2, 0],
                                              [0, 0, 2]], 2, 1)


def test_route_auto_builds_each_factor_graph_once_per_call(monkeypatch):
    builds = []
    for name in ("path_graph", "mesh_graph", "hypercube_graph"):
        real = getattr(routing, name)

        def counted(*args, _real=real, _name=name):
            builds.append((_name, args))
            return _real(*args)

        monkeypatch.setattr(routing, name, counted)
    rng = random.Random(5)
    for spec in ("hypercube:6", "mesh:8,8,8", "pyramid:4,2", "multigrid:4,3"):
        g = generate(spec)
        pi = random_permutation(g.n, rng)
        plan = route_auto(g, pi)
        assert plan.realized == tuple(pi)
        assert builds and len(builds) == len(set(builds)), spec
        builds.clear()
        route_auto(g, pi)  # the memo died with the first call
        assert builds and len(builds) == len(set(builds)), spec
        builds.clear()


GC_HOSTS = {
    "hypercube": lambda: generate("hypercube:5"),
    "mesh": lambda: generate("mesh:6,6"),
    "pyramid": lambda: generate("pyramid:3,2"),
    "multigrid": lambda: generate("multigrid:3,2"),
    "tree": lambda: generate("random_tree:40,3"),
    "complete": lambda: generate("complete:9"),
    "multipartite": lambda: generate("multipartite:4,3"),
    "product": lambda: cartesian_product(path_graph(3), cycle_graph(4)),
}


@pytest.mark.parametrize("host", sorted(GC_HOSTS))
def test_routing_and_json_round_trips_leave_no_cycles(host):
    # with the collector paused inside route_auto and the readers, a
    # reference cycle made there would only be freed by a later collection
    g = GC_HOSTS[host]()
    pi = random_permutation(g.n, random.Random(2))
    was_on = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        plan = route_auto(g, pi)
        assert plan_from_json(plan_to_json(plan)) == plan
        net = make_network(g, identity(g.n), plan.stages)
        assert network_from_json(network_to_json(net)) == net
        assert gc.collect() == 0
    finally:
        if was_on:
            gc.enable()


@pytest.mark.parametrize("start_on", [True, False], ids=["on", "off"])
def test_library_calls_leave_the_collector_as_they_found_it(start_on,
                                                            monkeypatch):
    def refused(*args):
        raise AssertionError("the library must not drive the collector")

    g = generate("mesh:4,4")
    pi = random_permutation(g.n, random.Random(3))
    plan_text = plan_to_json(route_auto(g, pi))
    net_text = network_to_json(make_network(g, identity(g.n),
                                            route_auto(g, pi).stages))
    bad_text = plan_text.replace('"swap"', '"dir"', 1)
    calls = [lambda: route_auto(g, pi), lambda: plan_from_json(plan_text),
             lambda: network_from_json(net_text)]
    raising = [lambda: route_auto(graph(4, [(1, 2), (3, 4)]), identity(4)),
               lambda: route_auto(g, [1] * g.n),
               lambda: plan_from_json(bad_text),
               lambda: network_from_json(net_text.replace('"swap"', '"x"')),
               lambda: network_from_json("[" * 5000 + "]" * 5000)]
    was_on = gc.isenabled()
    monkeypatch.setattr(gc, "collect", refused)
    monkeypatch.setattr(gc, "set_threshold", refused)
    (gc.enable if start_on else gc.disable)()
    try:
        for call in calls:
            call()
            assert gc.isenabled() == start_on
        for call in raising:
            with pytest.raises(ValueError):
                call()
            assert gc.isenabled() == start_on
        with _gc_paused():
            with _gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() == start_on
    finally:
        (gc.enable if was_on else gc.disable)()


def test_route_auto_and_the_readers_run_with_the_collector_paused(
        monkeypatch):
    seen = []

    def spy(real):
        def wrapped(*args, **kwargs):
            seen.append((real.__name__, gc.isenabled()))
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(routing, "_auto_rounds", spy(routing._auto_rounds))
    monkeypatch.setattr(network, "_freeze", spy(network._freeze))
    g = generate("mesh:4,4")
    pi = random_permutation(g.n, random.Random(4))
    was_on = gc.isenabled()
    gc.enable()
    try:
        plan = route_auto(g, pi)
        plan_from_json(plan_to_json(plan))
        network_from_json(network_to_json(
            make_network(g, identity(g.n), plan.stages)))
        assert gc.isenabled()
    finally:
        (gc.enable if was_on else gc.disable)()
    assert seen[0] == ("_auto_rounds", False)
    # route_auto, plan_from_json, the test's own make_network (not
    # paused) and network_from_json, in that order
    assert [s[1] for s in seen if s[0] == "_freeze"] == [False, False, True,
                                                          False]


def test_the_readers_free_their_document_inside_the_pause(monkeypatch):
    # the young collection after the pause scans whatever the pause left
    # alive, so each parsed document must be gone by then: the canonical
    # path's head, and for a spaced text the whole parse before it too
    class Doc(dict):  # a dict that takes a weak reference
        pass

    docs, alive_at_exit = [], []
    real_pause, real_loads = network._gc_paused, json.loads

    def loads(text):
        doc = real_loads(text)
        doc["graph"] = Doc(doc["graph"])  # a plain dict, as the readers need
        docs.append(weakref.ref(doc["graph"]))
        return doc

    @contextmanager
    def pause():
        with real_pause():
            yield
            alive_at_exit.append([d() is not None for d in docs])

    g = generate("mesh:4,4")
    plan = route_auto(g, random_permutation(g.n, random.Random(5)))
    net = make_network(g, identity(g.n), plan.stages,
                       provenance={"built_by": "test"})
    texts = [(plan_from_json, plan_to_json(plan)),
             (network_from_json, network_to_json(net))]
    texts += [(read, _spaced(text)) for read, text in texts]
    monkeypatch.setattr(json, "loads", loads)
    monkeypatch.setattr(network, "_gc_paused", pause)
    for read, text in texts:
        docs.clear()
        assert read(text).stages == plan.stages
    assert alive_at_exit == [[False], [False], [False, False], [False, False]]


def _spaced(text: str) -> str:
    """The same document with json.dumps' default separators, which the
    readers' canonical path does not take."""
    spaced = json.dumps(json.loads(text))
    assert network._read_canonical(spaced) is None
    return spaced


def test_the_readers_drop_the_parse_before_they_freeze(monkeypatch):
    # a reader writes a parsed document back as the writers would and drops
    # the parse before the canonical path reads that text, so the parse and
    # the new tuples are never all alive at once.  The documents are
    # written with spaces, so that the readers parse them whole
    class Cmp(list):  # a parsed comparator list that takes a weak reference
        pass

    refs, at_canonical, at_freeze = [], [], []
    real_loads = json.loads

    def loads(text):
        doc = real_loads(text)
        for s in doc.get("stages", ()):
            s["cmp"] = Cmp(s["cmp"])
            refs.append(weakref.ref(s["cmp"]))
        return doc

    def dead(log, then):
        def wrapped(*args, **kwargs):
            log.append(all(r() is None for r in refs))
            return then(*args, **kwargs)
        return wrapped

    g = generate("mesh:4,4")
    plan = route_auto(g, random_permutation(g.n, random.Random(5)))
    net = make_network(g, identity(g.n), plan.stages)
    monkeypatch.setattr(json, "loads", loads)
    monkeypatch.setattr(network, "_freeze", dead(at_freeze, network._freeze))
    monkeypatch.setattr(network, "_read_canonical",
                        dead(at_canonical, network._read_canonical))
    for obj, write, read in ((plan, plan_to_json, plan_from_json),
                             (net, network_to_json, network_from_json)):
        text = _spaced(write(obj))
        refs.clear()
        at_canonical.clear()
        at_freeze.clear()
        assert read(text) == obj
        assert len(refs) == plan.depth > 1
        assert at_canonical == [True, True] and at_freeze == [True]


@pytest.mark.parametrize("spec", ["path:64", "mesh:8,8", "random_tree:128,1",
                                  "multipartite:4,4", "product"])
def test_a_routed_plan_holds_each_comparator_once(spec):
    g = (cartesian_product(path_graph(3), cycle_graph(5)) if spec == "product"
         else generate(spec))
    plan = route_auto(g, random_permutation(g.n, random.Random(7)))
    back = plan_from_json(plan_to_json(plan))
    assert back == plan
    for p in (plan, back):  # the reader shares equal comparators too
        cmps = list(chain.from_iterable(p.stages))
        assert len(set(map(id, cmps))) == len(set(cmps)) < len(cmps)


def test_a_routed_plan_holds_little_more_than_a_pointer_per_swap():
    g = generate("path:256")
    pi = random_permutation(g.n, random.Random(8))
    route_auto(g, pi)  # the graph's cached adjacency and edge keys
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        plan = route_auto(g, pi)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    swaps = sum(map(len, plan.stages))
    assert swaps > 10_000 and held <= 32 * swaps
