import math
import random
from dataclasses import replace
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from matchnet import constructions, graphs, routing
from matchnet.constructions import (batcher_complete, bitonic_hypercube,
                                    contour_tree_sort, longest_path_sort,
                                    odd_even_transposition,
                                    parallel_subgraph_sort, product_sort,
                                    pyramid_sort, sequential_sorter,
                                    simulate_complete, subgraph_sort)
from matchnet.errors import ConstructionError, ParameterError, StructureError
from matchnet.graphs import (check_connected, check_tree, complete_graph,
                             cycle_graph, generate, graph, hypercube_graph,
                             max_degree, mesh_graph, multipartite_graph,
                             path_graph, pyramid_graph, random_tree,
                             spanning_tree, star_graph, tree_contour,
                             tree_diameter_path)
from matchnet.network import (DIR, SWAP, execute, make_network,
                              network_to_json)
from matchnet.routing import route_depth_bound
from matchnet.verify import verify_auto, verify_exhaustive


def _assert_certified(net):
    cert = net.certificate
    assert cert is not None
    assert net.depth == cert["achieved_depth"]
    assert cert["achieved_depth"] <= cert["claimed_bound"]
    return cert


def test_odd_even_depth_is_n():
    for n in range(2, 12):
        net = odd_even_transposition(n)
        assert net.depth == n
        assert verify_auto(net).passed
        _assert_certified(net)
    assert odd_even_transposition(1).depth == 0


def test_odd_even_stages_alternate():
    net = odd_even_transposition(7)
    for k, stage in enumerate(net.stages, start=1):
        for (u, v, kind) in stage:
            assert v == u + 1 and kind == DIR
            assert u % 2 == k % 2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=12))
def test_odd_even_sorts_arbitrary_keys(vals):
    net = odd_even_transposition(len(vals))
    assert list(execute(net, vals)) == sorted(vals)


def test_bitonic_depth_and_edges():
    for dim in range(1, 5):
        net = bitonic_hypercube(dim)
        assert net.depth == dim * (dim + 1) // 2
        edges = set(hypercube_graph(dim).edges)
        for stage in net.stages:
            for (u, v, kind) in stage:
                assert kind == DIR
                assert (min(u, v), max(u, v)) in edges
        assert verify_auto(net).passed
        _assert_certified(net)


def test_batcher_is_standard_and_sorts():
    for n in (2, 3, 5, 8, 11, 16):
        net = batcher_complete(n)
        lg = math.ceil(math.log2(n))
        assert net.depth <= lg * (lg + 1) // 2
        assert net.order == tuple(range(1, n + 1))
        for stage in net.stages:
            for (u, v, kind) in stage:
                assert kind == DIR and u < v
        assert verify_auto(net).passed
        _assert_certified(net)


def test_sequential_sorter_matches_batcher():
    q = 6
    comps = sequential_sorter(q)
    flat = [(u, v) for stage in batcher_complete(q).stages
            for (u, v, _) in stage]
    assert comps == flat
    assert all(u < v for (u, v) in comps)


def test_contour_tree_sort_random_trees():
    for seed in range(25):
        rng = random.Random(seed)
        t = random_tree(rng.randrange(2, 11), seed)
        net = contour_tree_sort(t)
        assert verify_auto(net).passed
        cert = _assert_certified(net)
        delta = max_degree(t)
        assert cert["claimed_bound"] == 5 * (4 * delta - 3) * t.n


def test_contour_marks_are_walk_positions():
    t = star_graph(6)
    contour = tree_contour(t)
    marks = sorted(contour.marks.values())
    assert len(marks) == 6
    assert all(b - a <= 3 for a, b in zip(marks, marks[1:]))
    assert len(contour.walk) == 2 * 6 - 1


def test_contour_rejects_non_tree():
    with pytest.raises(StructureError):
        contour_tree_sort(cycle_graph(4))


def _reference_contour_tree_sort(t):
    """contour_tree_sort as it was before the two round types: every round
    of the transposition sort coloured and laid out on its own."""
    check_tree(t)
    n = t.n
    if n == 1:
        return make_network(t, (1,), [], certificate=constructions._cert(
            "contour", {"n": 1}, 0, 0))
    contour = tree_contour(t)
    tour = contour.walk
    marks = sorted(contour.marks.values())
    by_mark = sorted(contour.marks, key=lambda v: contour.marks[v])
    order = [0] * n
    for r, v in enumerate(by_mark, start=1):
        order[v - 1] = r
    delta = max_degree(t)
    color_cap = 4 * delta - 3
    stages = []
    for rnd in range(1, n + 1):
        intervals = [(marks[i - 1], marks[i])
                     for i in range(1, n) if i % 2 == rnd % 2]
        if not intervals:
            continue
        proj = [frozenset(tour[a:b + 1]) for a, b in intervals]
        colors = []
        for i in range(len(intervals)):
            used = {colors[j] for j in range(i) if proj[i] & proj[j]}
            c = 0
            while c in used:
                c += 1
            colors.append(c)
        if max(colors) >= color_cap:
            raise ConstructionError("over its cap")
        for c in range(max(colors) + 1):
            plans = []
            for a, b in [iv for iv, col in zip(intervals, colors) if col == c]:
                plans.append(
                    [(tour[x], tour[x + 1], SWAP) for x in range(a, b - 1)]
                    + [(tour[b - 1], tour[b], DIR)]
                    + [(tour[x], tour[x + 1], SWAP)
                       for x in range(b - 2, a - 1, -1)])
            for step in zip_longest(*plans):
                stages.append([cmp for cmp in step if cmp is not None])
    return make_network(t, order, stages, certificate=constructions._cert(
        "contour", {"n": n, "delta": delta}, 5 * color_cap * n, len(stages)))


def _assert_contour_like_the_reference(t):
    assert network_to_json(contour_tree_sort(t)) == \
        network_to_json(_reference_contour_tree_sort(t))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 200), st.integers(0, 2**31 - 1))
def test_contour_matches_the_per_round_reference(n, seed):
    _assert_contour_like_the_reference(random_tree(n, seed))


def _broom(handle, bristles):
    """Path 1..handle whose last vertex carries `bristles` more leaves."""
    return graph(handle + bristles,
                 [(i, i + 1) for i in range(1, handle)]
                 + [(handle, handle + j) for j in range(1, bristles + 1)])


@pytest.mark.parametrize("t", [
    star_graph(2), star_graph(3), star_graph(17), star_graph(64),
    path_graph(2), path_graph(3), path_graph(16), path_graph(65),
    _broom(1, 5), _broom(8, 8), _broom(30, 3), generate("random_tree:512,1")],
    ids=repr)
def test_contour_matches_the_per_round_reference_on_shapes(t):
    _assert_contour_like_the_reference(t)


def test_contour_makes_one_search(monkeypatch):
    t = generate("random_tree:50,1")
    sources = []
    real = graphs.bfs

    def counting(g, src):
        sources.append(list(src))
        return real(g, src)

    monkeypatch.setattr(graphs, "bfs", counting)
    contour_tree_sort(t)
    assert sources == [[1]]


def test_simulate_complete_on_kn_keeps_base_depth():
    base = batcher_complete(5)
    net = simulate_complete(complete_graph(5), base)
    # every comparator group is already on host edges, no routing needed
    assert net.depth == base.depth
    assert verify_exhaustive(net).passed


def test_simulate_complete_star_and_multipartite():
    for g in (star_graph(6), multipartite_graph(2, 2)):
        net = simulate_complete(g, batcher_complete(g.n))
        assert verify_auto(net).passed
        _assert_certified(net)
    g = multipartite_graph(3, 2)  # route_auto's multipartite planner, bound 6
    net = simulate_complete(g, batcher_complete(6))
    assert net.certificate["parameters"]["rt_used"] == 6
    assert verify_exhaustive(net).passed
    _assert_certified(net)


def test_simulate_complete_rejects_wrong_base():
    with pytest.raises(ParameterError):
        simulate_complete(star_graph(5), batcher_complete(4))


def _corrupt(monkeypatch, change):
    """Make every route check in routing see change(n, rounds, bound) for
    the rounds its planner made, so that a builder passes only if none of
    its routes reaches the check."""
    real = routing._checked
    monkeypatch.setattr(routing, "_checked", lambda n, rounds, pairs, bound:
                        real(n, change(n, rounds, bound), pairs, bound))


def _padded_rounds(n, rounds, bound):
    """The rounds, then pairs of swaps on (1, 2) that cancel: the same
    permutation, past the bound."""
    return rounds + [[(1, 2)]] * (2 * bound + 2)


def _short_rounds(n, rounds, bound):
    """The rounds without their last."""
    return rounds[:-1]


def test_router_bound_raises_without_asserts(monkeypatch):
    # the check is a raise, not an assert, so it also holds under python -O
    _corrupt(monkeypatch, _padded_rounds)
    with pytest.raises(ConstructionError, match="exceeds bound"):
        simulate_complete(star_graph(6), batcher_complete(6))
    with pytest.raises(ConstructionError, match="exceeds bound"):
        subgraph_sort(cycle_graph(6), [1, 2, 3, 4], odd_even_transposition(4))
    g = mesh_graph((3, 4))
    rows = [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]
    with pytest.raises(ConstructionError, match="exceeds bound"):
        parallel_subgraph_sort(g, rows, [odd_even_transposition(4)] * 3)


def test_simulate_complete_route_check_raises_without_asserts(monkeypatch):
    _corrupt(monkeypatch, _short_rounds)
    with pytest.raises(ConstructionError, match="not on its target"):
        simulate_complete(star_graph(6), batcher_complete(6))


def test_subgraph_sort_route_check_raises_without_asserts(monkeypatch):
    _corrupt(monkeypatch, _short_rounds)
    with pytest.raises(ConstructionError, match="not on its target"):
        subgraph_sort(cycle_graph(6), [1, 2, 3, 4], odd_even_transposition(4))
    monkeypatch.undo()
    real = routing._to_path_rounds

    def short_to_path(t, sources, targets):
        rounds, selection = real(t, sources, targets)
        return rounds[:-1], selection

    # longest_path_sort's merge routes are checked against their selection
    monkeypatch.setattr(routing, "_to_path_rounds", short_to_path)
    with pytest.raises(ConstructionError, match="not on its target"):
        longest_path_sort(mesh_graph((3, 4)))


def test_longest_path_sort_checks_each_merge_against_its_own_bound(
        monkeypatch):
    # path:8 has d = 7 and merge capacity 7: blocks of 3, 3 and 2 vertices,
    # so the merges with the short block route k = 5 pebbles, bound
    # d + 2(k-1) = 15, while a full merge (k_max = 6) may take 17 rounds.
    # Padding such a merge to 16 or 17 rounds with swap pairs that cancel
    # must raise, also under python -O.
    real = routing._to_path_rounds
    padded = []

    def overlong(t, sources, targets):
        rounds, selection = real(t, sources, targets)
        if len(selection) == 5:
            padded.append(len(rounds))
            rounds = rounds + [[(1, 2)]] * (2 * ((17 - len(rounds)) // 2))
        return rounds, selection

    monkeypatch.setattr(routing, "_to_path_rounds", overlong)
    with pytest.raises(ConstructionError, match="exceeds bound 15"):
        longest_path_sort(path_graph(8))
    assert len(padded) == 1 and padded[0] <= 15


def test_parallel_subgraph_sort_route_check_raises_without_asserts(
        monkeypatch):
    _corrupt(monkeypatch, _short_rounds)
    g = mesh_graph((3, 4))
    rows = [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]
    with pytest.raises(ConstructionError, match="not on its target"):
        parallel_subgraph_sort(g, rows, [odd_even_transposition(4)] * 3)


def test_pyramid_sort_route_check_raises_without_asserts(monkeypatch):
    # the pool routes on all 7 vertices, then the route in the bottom mesh
    for n in (7, 4):
        _corrupt(monkeypatch, lambda k, rounds, bound:
                 rounds[:-1] if k == n else rounds)
        with pytest.raises(ConstructionError, match="not on its target"):
            pyramid_sort(3, 1)
        monkeypatch.undo()


def test_contour_color_cap_raises_without_asserts(monkeypatch):
    # with the degree read as 1 the cap is one color, but the star's walk
    # intervals all meet at the centre
    monkeypatch.setattr(constructions, "max_degree", lambda t: 1)
    with pytest.raises(ConstructionError, match="over its cap 1"):
        contour_tree_sort(star_graph(5))


def test_subgraph_sort_path_inside_cycle():
    g = cycle_graph(6)
    h_vertices = [1, 2, 3, 4]
    net = subgraph_sort(g, h_vertices, odd_even_transposition(4))
    assert verify_auto(net).passed
    _assert_certified(net)


def test_subgraph_sort_rejects_nonstandard_helper():
    g = cycle_graph(6)
    bad_order = make_network(path_graph(4), (4, 3, 2, 1), [])
    with pytest.raises(StructureError):
        subgraph_sort(g, [1, 2, 3, 4], bad_order)
    swap_net = make_network(path_graph(4), (1, 2, 3, 4),
                            [[(1, 2, SWAP)]])
    with pytest.raises(StructureError):
        subgraph_sort(g, [1, 2, 3, 4], swap_net)
    # ids must be plain ints: 1.0, "a" and True are refused as graph() does
    for verts, text in (([1, 2, 2, 3], "not a subset of the host"),
                        ([1, 2, 3, 7], "not a subset of the host"),
                        ([1.0, 2, 3, 4], "not a subset of the host"),
                        (["a", 2, 3, 4], "not a subset of the host"),
                        ([True, 2, 3, 4], "not a subset of the host"),
                        ([1, 2, 3], "network size differs")):
        with pytest.raises(ParameterError, match=text):
            subgraph_sort(g, verts, odd_even_transposition(4))
    with pytest.raises(ParameterError, match="capacity must be between 2"):
        subgraph_sort(g, [1], odd_even_transposition(1))


def test_subgraph_sort_rejects_disconnected_induced():
    g = cycle_graph(6)
    # vertices 1,2,4,5 induce two disjoint edges in C_6
    with pytest.raises(StructureError):
        subgraph_sort(g, [1, 2, 4, 5], odd_even_transposition(4))
    # with no comparators to map off the host, only the induced check fails
    with pytest.raises(StructureError, match="induced subgraph is disconn"):
        subgraph_sort(g, [1, 2, 4, 5],
                      make_network(path_graph(4), (1, 2, 3, 4), []))


def test_parallel_subgraph_sort_rejects_disconnected_arena():
    g = cycle_graph(8)
    # the class 1,2,5,6 induces two disjoint edges in C_8
    idle = make_network(path_graph(4), (1, 2, 3, 4), [])
    with pytest.raises(StructureError, match="induced subgraph is disconn"):
        parallel_subgraph_sort(g, [[1, 2, 5, 6], [3, 4, 7, 8]], [idle] * 2)


def test_longest_path_sort_families():
    for seed in range(15):
        rng = random.Random(1000 + seed)
        t = random_tree(rng.randrange(2, 11), seed)
        net = longest_path_sort(t)
        assert verify_auto(net).passed
        cert = _assert_certified(net)
        assert cert["formula_name"] == "longest_path"
        d = len(tree_diameter_path(t)) - 1
        assert cert["parameters"]["d"] == d
    for g in (cycle_graph(7), mesh_graph((3, 3)), star_graph(8)):
        net = longest_path_sort(g)
        assert verify_auto(net).passed
        _assert_certified(net)


def test_parallel_subgraph_sort_mesh_rows():
    g = mesh_graph((3, 4))
    rows = [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]
    nets = [odd_even_transposition(4)] * 3
    net = parallel_subgraph_sort(g, rows, nets)
    assert verify_auto(net).passed
    _assert_certified(net)


def test_parallel_subgraph_sort_mesh_columns():
    # scattered classes: columns of a 2x4 mesh, labels not contiguous
    g = mesh_graph((2, 4))
    cols = [[1, 5], [2, 6], [3, 7], [4, 8]]
    nets = [odd_even_transposition(2)] * 4
    net = parallel_subgraph_sort(g, cols, nets)
    assert verify_exhaustive(net).passed
    _assert_certified(net)


def test_parallel_subgraph_sort_partition_errors():
    g = mesh_graph((2, 4))
    with pytest.raises(ParameterError):
        parallel_subgraph_sort(g, [[1, 2, 3], [4, 5, 6]],
                               [odd_even_transposition(3)] * 2)
    with pytest.raises(ParameterError):
        parallel_subgraph_sort(g, [[1, 2, 3, 4], [5, 6, 7]],
                               [odd_even_transposition(4),
                                odd_even_transposition(3)])
    with pytest.raises(ParameterError):
        parallel_subgraph_sort(g, [[1, 2, 3], [4, 5, 6], [7, 8]],
                               [odd_even_transposition(3)] * 3)
    with pytest.raises(ParameterError, match="even size"):
        parallel_subgraph_sort(mesh_graph((2, 3)), [[1, 2, 3], [4, 5, 6]],
                               [odd_even_transposition(3)] * 2)
    rows = [[1, 2, 3, 4], [5, 6, 7, 8]]
    with pytest.raises(ParameterError, match="one arena network per"):
        parallel_subgraph_sort(g, rows, [odd_even_transposition(4)] * 3)
    reversed_order = make_network(path_graph(4), (4, 3, 2, 1), [])
    with pytest.raises(StructureError, match="into identity order"):
        parallel_subgraph_sort(g, rows, [reversed_order] * 2)
    for first, text in (([True, 2, 3, 4], "not a subset of the host"),
                        ([1.0, 2, 3, 4], "not a subset of the host"),
                        (["a", 2, 3, 4], "cover every vertex")):
        with pytest.raises(ParameterError, match=text):
            parallel_subgraph_sort(g, [first, [5, 6, 7, 8]],
                                   [odd_even_transposition(4)] * 2)


def test_product_sort_meshes():
    for (a, b) in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 4)):
        net = product_sort(path_graph(a), path_graph(b))
        assert verify_auto(net).passed
        cert = _assert_certified(net)
        assert cert["formula_name"] == "product"


def test_product_sort_both_factors_odd_falls_back():
    net = product_sort(path_graph(3), path_graph(3))
    assert verify_auto(net).passed
    cert = _assert_certified(net)
    assert cert["parameters"].get("fallback") == "longest_path"


def test_product_sort_degenerate_factor():
    net = product_sort(path_graph(1), path_graph(5))
    assert net.graph.n == 5
    assert verify_auto(net).passed


def _reference_subgraph_sort(g, h_vertices, h_net, partial_router=None,
                             capacity=None, router_bound=None):
    """subgraph_sort as it was before the shared merge loop, with its own
    router, merge capacity and router bound as options."""
    check_connected(g)
    n = g.n
    hv = list(h_vertices)
    if n == 1:
        return make_network(g, (1,), [], certificate=constructions._cert(
            "subgraph", {"n": 1}, 0, 0))
    constructions._check_embedding(g, hv, h_net, "subgraph sorter")
    constructions._check_standard(h_net, "subgraph sorter")
    p = len(hv)
    c = p if capacity is None else capacity
    if not 2 <= c <= p:
        raise ParameterError("merge capacity must be between 2 and |H|")
    if partial_router is None:
        partial_router = lambda src, dst: routing._routed(g, zip(src, dst))
    rb = route_depth_bound(g) if router_bound is None else router_bound
    half = c // 2
    q = -(-n // half)
    parts = [list(range(lo, min(lo + half - 1, n) + 1))
             for lo in range(1, n + 1, half)]
    comps = sequential_sorter(q)
    pos = list(range(1, n + 1))
    stages_out = []
    for i, j in comps:
        block = parts[i - 1] + parts[j - 1]
        k = len(block)
        sources = [pos[label - 1] for label in block]
        targets = hv[:k]
        stages, realized, table = partial_router(sources, targets)
        if len(stages) > rb:
            raise ConstructionError(f"depth {len(stages)} exceeds bound {rb}")
        if {realized[s - 1] for s in sources} != set(targets):
            raise ConstructionError("merge route lands a pebble off H")
        constructions._follow((stages, realized, table), pos, stages_out)
        for stage in h_net.stages:
            kept = [(hv[u - 1], hv[v - 1], DIR) for u, v, _ in stage if v <= k]
            if kept:
                stages_out.append(kept)
        for r, label in enumerate(block):
            pos[label - 1] = hv[r]
    constructions._fixup(g, pos, stages_out)
    claimed = len(comps) * (rb + h_net.depth) + route_depth_bound(g)
    cert = constructions._cert(
        "subgraph", {"n": n, "p": p, "q": q, "rt_used": rb,
                     "base_depth": len(comps)}, claimed, len(stages_out))
    return make_network(g, tuple(range(1, n + 1)), stages_out,
                        certificate=cert)


def _reference_longest_path_sort(g):
    """longest_path_sort as it was: the reference subgraph sort with the
    diameter path's router, and a second certificate in place of its.
    Hosts on one or two vertices take the unchanged direct branch."""
    check_connected(g)
    n = g.n
    if n <= 2:
        return longest_path_sort(g)
    tree = spanning_tree(g)
    path = tree_diameter_path(tree)
    d = len(path) - 1
    rb = d + 2 * (2 * (d // 2) - 1)
    router = lambda src, dst: routing._to_path_stages(tree, src, dst)
    net = _reference_subgraph_sort(g, path, odd_even_transposition(d + 1),
                                   partial_router=router, capacity=d,
                                   router_bound=rb)
    cert = constructions._cert(
        "longest_path", {"n": n, "d": d,
                         "q": net.certificate["parameters"]["q"],
                         "rt_used": rb},
        net.certificate["claimed_bound"], net.depth)
    return replace(net, certificate=cert)


def _reference_parallel_subgraph_sort(g, partition, nets):
    """parallel_subgraph_sort as it was before the shared merge loop."""
    check_connected(g)
    n = g.n
    parts = [list(pv) for pv in partition]
    q = len(parts)
    if sorted(v for pv in parts for v in pv) != list(range(1, n + 1)):
        raise ParameterError("partition must cover every vertex exactly once")
    size = n // q
    if any(len(pv) != size for pv in parts):
        raise ParameterError("partition classes must have equal sizes")
    if size % 2 != 0:
        raise ParameterError("partition classes must have even size")
    if len(nets) != q:
        raise ParameterError("need one arena network per partition class")
    for pv, net in zip(parts, nets):
        constructions._check_embedding(g, pv, net, "arena sorter")
    rb = route_depth_bound(g)
    halves = []
    for pv in parts:
        halves.append(pv[:size // 2])
        halves.append(pv[size // 2:])
    base = batcher_complete(2 * q)
    pos = list(range(1, n + 1))
    stages_out = []
    for stage in base.stages:
        want = {}
        merges = []
        for idx, (u, v, _) in enumerate(stage):
            block = halves[u - 1] + halves[v - 1]
            for r, label in enumerate(block):
                want[pos[label - 1]] = parts[idx][r]
            merges.append((idx, block))
        constructions._follow(routing._routed(g, want), pos, stages_out)
        active = [nets[idx] for idx, _ in merges]
        for step in zip_longest(*(net.stages for net in active)):
            merged = []
            for (idx, _), sub in zip(merges, step):
                if sub:
                    merged += [(parts[idx][u - 1], parts[idx][v - 1], kind)
                               for u, v, kind in sub]
            if merged:
                stages_out.append(merged)
        for idx, block in merges:
            for r, label in enumerate(block):
                pos[label - 1] = parts[idx][r]
    constructions._fixup(
        g, [pos[label - 1] for blk in halves for label in blk], stages_out)
    max_net = max((net.depth for net in nets), default=0)
    claimed = base.depth * (rb + max_net) + rb
    cert = constructions._cert(
        "parallel_subgraph", {"n": n, "q": q, "rt_used": rb,
                              "base_depth": base.depth},
        claimed, len(stages_out))
    return make_network(g, tuple(range(1, n + 1)), stages_out,
                        certificate=cert)


def _reference_product_sort(g1, g2):
    """product_sort with the reference merge builders in its place."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "parallel_subgraph_sort",
                   _reference_parallel_subgraph_sort)
        mp.setattr(constructions, "longest_path_sort",
                   _reference_longest_path_sort)
        mp.setitem(constructions.BUILDERS, "longest_path",
                   _reference_longest_path_sort)
        return product_sort(g1, g2)


def _outcome(build, *args):
    """The network JSON of build(*args), or its exception's type and text."""
    try:
        return network_to_json(build(*args))
    except Exception as exc:
        return type(exc), str(exc)


def _assert_like_the_reference(build, reference, *args):
    assert _outcome(build, *args) == _outcome(reference, *args)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 30), st.integers(0, 2**31 - 1), st.integers(0, 30))
def test_subgraph_sort_matches_the_reference(n, seed, extra):
    # H is a shortest path between two random vertices of a random
    # connected graph: a random tree with extra random edges
    rng = random.Random(seed)
    edges = set(random_tree(n, seed).edges)
    edges |= {tuple(sorted(rng.sample(range(1, n + 1), 2)))
              for _ in range(extra)}
    g = graph(n, sorted(edges))
    a, b = rng.sample(range(1, n + 1), 2)
    _, parent, _ = graphs.bfs(g, [a])
    h = [b]
    while h[-1] != a:
        h.append(parent[h[-1]])
    _assert_like_the_reference(subgraph_sort, _reference_subgraph_sort,
                               g, h, odd_even_transposition(len(h)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**31 - 1))
def test_longest_path_sort_matches_the_reference(n, seed):
    _assert_like_the_reference(longest_path_sort,
                               _reference_longest_path_sort,
                               random_tree(n, seed))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6))
def test_parallel_subgraph_sort_matches_the_reference(a, b):
    g = mesh_graph((a, b))
    rows = [list(range(r * b + 1, r * b + b + 1)) for r in range(a)]
    for parts in (rows, [list(col) for col in zip(*rows)]):
        if len(parts[0]) % 2 == 0:
            nets = [odd_even_transposition(len(parts[0]))] * len(parts)
            _assert_like_the_reference(parallel_subgraph_sort,
                                       _reference_parallel_subgraph_sort,
                                       g, parts, nets)


FACTORS = ["path:1", "path:2", "path:3", "path:4", "cycle:4", "cycle:5",
           "star:4", "complete:3", "complete:4", "multipartite:2,2",
           "hypercube:2", "mesh:2,2", "random_tree:5,1"]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FACTORS), st.sampled_from(FACTORS))
def test_product_sort_matches_the_reference(spec1, spec2):
    _assert_like_the_reference(product_sort, _reference_product_sort,
                               generate(spec1), generate(spec2))


def test_family_builders_refuse_other_hosts():
    for name, spec, text in (("odd_even", "cycle:5", "needs a path host"),
                             ("batcher", "path:4", "needs a complete host"),
                             ("product", "cycle:4", "needs a mesh host")):
        with pytest.raises(StructureError, match=text):
            constructions.BUILDERS[name](generate(spec))
    # a product built in memory is sorted through its own two factors
    g1, g2 = path_graph(2), star_graph(3)
    net = constructions.BUILDERS["product"](graphs.cartesian_product(g1, g2))
    assert network_to_json(net) == network_to_json(product_sort(g1, g2))
    assert verify_auto(net).passed


def test_pyramid_sort_small():
    for (m, d) in ((2, 1), (3, 1), (2, 2)):
        net = pyramid_sort(m, d)
        g = pyramid_graph(m, d)
        assert net.graph.n == g.n
        edges = set(g.edges)
        for stage in net.stages:
            for (u, v, _) in stage:
                assert (min(u, v), max(u, v)) in edges
        assert verify_auto(net).passed
        _assert_certified(net)


def test_pyramid_sort_rejects_bad_params():
    with pytest.raises(ParameterError):
        pyramid_sort(0, 1)
    with pytest.raises(ParameterError):
        pyramid_sort(2, 0)


def test_builders_are_deterministic():
    pairs = [
        (lambda: odd_even_transposition(9),) * 2,
        (lambda: batcher_complete(10),) * 2,
        (lambda: bitonic_hypercube(3),) * 2,
        (lambda: contour_tree_sort(random_tree(9, 4)),) * 2,
        (lambda: longest_path_sort(mesh_graph((3, 3))),) * 2,
        (lambda: product_sort(path_graph(2), path_graph(4)),) * 2,
        (lambda: pyramid_sort(2, 2),) * 2,
        (lambda: simulate_complete(star_graph(6), batcher_complete(6)),) * 2,
    ]
    for f, g in pairs:
        assert network_to_json(f()) == network_to_json(g())


def test_every_builder_certificate_holds():
    nets = [
        odd_even_transposition(7),
        bitonic_hypercube(3),
        batcher_complete(9),
        contour_tree_sort(random_tree(8, 2)),
        simulate_complete(star_graph(7), batcher_complete(7)),
        subgraph_sort(cycle_graph(6), [1, 2, 3, 4],
                      odd_even_transposition(4)),
        longest_path_sort(random_tree(9, 3)),
        parallel_subgraph_sort(mesh_graph((2, 4)),
                               [[1, 2, 3, 4], [5, 6, 7, 8]],
                               [odd_even_transposition(4)] * 2),
        product_sort(path_graph(2), path_graph(3)),
        pyramid_sort(2, 1),
    ]
    for net in nets:
        cert = _assert_certified(net)
        assert set(cert) == {"formula_name", "parameters", "claimed_bound",
                             "achieved_depth"}
        assert verify_auto(net).passed
