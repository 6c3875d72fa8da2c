import json
import math
import pickle
import random
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matchnet import graphs, plan_from_json, plan_to_json, routing
from matchnet.errors import CapError, ParameterError, StructureError
from matchnet.graphs import (GENERATE_CAP, PyramidInfo, adjacency, bfs,
                             cartesian_product, check_connected, check_tree,
                             complete_graph, cycle_graph, family_of,
                             from_json, generate, graph, hypercube_graph,
                             max_degree, maximal_matching, mesh_graph,
                             multigrid_graph,
                             multipartite_graph, path_graph, path_projection,
                             pyramid_graph, random_tree, spanning_tree,
                             star_graph, to_dot, to_json, tree_contour,
                             tree_diameter_path)


def test_generators_basic():
    assert path_graph(5).edges == frozenset({(1, 2), (2, 3), (3, 4), (4, 5)})
    assert len(complete_graph(6).edges) == 15
    assert len(cycle_graph(6).edges) == 6
    assert star_graph(5).edges == frozenset({(1, v) for v in range(2, 6)})


def test_generate_specs():
    for spec, n in [("path:7", 7), ("cycle:5", 5), ("complete:4", 4),
                    ("star:6", 6), ("multipartite:3,2", 6), ("hypercube:3", 8),
                    ("mesh:2,3", 6), ("random_tree:9,1", 9),
                    ("pyramid:2,2", 5), ("multigrid:3,1", 7)]:
        g = generate(spec)
        assert g.n == n
        assert g.family == spec
        check_connected(g)
    with pytest.raises(ParameterError):
        generate("moebius:5")
    with pytest.raises(ParameterError):
        generate("path:x")
    for spec, text in (("path:0", "path needs n >= 1"),
                       ("cycle:2", "cycle needs n >= 3"),
                       ("complete:0", "complete graph needs n >= 1"),
                       ("star:1", "star needs n >= 2"),
                       ("multipartite:1,2", "needs p >= 2 parts"),
                       ("hypercube:0", "hypercube needs dim >= 1"),
                       ("random_tree:0", "tree needs n >= 1"),
                       ("pyramid:0,1", "pyramid needs m >= 1, d >= 1")):
        with pytest.raises(ParameterError, match=text):
            generate(spec)


def test_generate_refuses_specs_past_the_size_cap_before_building():
    start = time.perf_counter()
    # 2^60 vertices; 2^19 + 19 * 2^18; 2^17 + 17 * 2^16 = 1,245,184 > 2^20;
    # 9M vertices; 4.5M edges; 5M vertices
    for spec in ["hypercube:60", "hypercube:19", "hypercube:17",
                 "mesh:3000,3000",
                 "complete:3000", "random_tree:5000000", "pyramid:40,40",
                 "multipartite:2000,2"]:
        with pytest.raises(CapError, match=f"more than {GENERATE_CAP}"):
            generate(spec)
    assert time.perf_counter() - start < 0.1
    g = generate("multipartite:16,16")  # the largest test and bench host
    assert len(g.edges) == 30_720


def test_hypercube_edges_flip_one_bit():
    g = hypercube_graph(4)
    assert g.n == 16
    for u, v in g.edges:
        x = (u - 1) ^ (v - 1)
        assert x and x & (x - 1) == 0
    assert len(g.edges) == 4 * 16 // 2


def mesh_vertex(coords, lengths):
    """Reference: the id of the vertex at 1-based coords, last one fastest."""
    v = 0
    for c, L in zip(coords, lengths):
        v = v * L + c - 1
    return v + 1


def mesh_coords(v, lengths):
    """Reference: the 1-based coordinates of vertex v (mesh_vertex's inverse)."""
    out, rem = [], v - 1
    for L in reversed(lengths):
        out.append(rem % L + 1)
        rem //= L
    return tuple(out[::-1])


def test_mesh_numbering_last_coordinate_fastest():
    g = mesh_graph((2, 3))
    assert mesh_vertex((1, 1), (2, 3)) == 1
    assert mesh_vertex((1, 3), (2, 3)) == 3
    assert mesh_vertex((2, 1), (2, 3)) == 4
    for v in range(1, 7):
        assert mesh_vertex(mesh_coords(v, (2, 3)), (2, 3)) == v
    assert (1, 4) in g.edges and (1, 2) in g.edges and (1, 5) not in g.edges
    info = PyramidInfo(3, 2)
    for v in range(1, 17):
        assert info.vertex(2, mesh_coords(v, (4, 4))) == 5 + v


def _loop_mesh_edges(lengths, off=0):
    """Reference: the per-vertex, per-neighbour coordinate loop."""
    es = []
    for v in range(1, math.prod(lengths) + 1):
        coords = mesh_coords(v, lengths)
        for i, L in enumerate(lengths):
            if coords[i] < L:
                nb = list(coords)
                nb[i] += 1
                es.append((off + v, off + mesh_vertex(nb, lengths)))
    return es


def _loop_pyramid_edges(m, d, all_children):
    info = PyramidInfo(m, d)
    es = []
    for l in range(m):
        off = info.level_offsets[l]
        es += _loop_mesh_edges(info.lengths(l), off)
        for v in info.level_vertices(l) if l else ():
            c = mesh_coords(v - off, info.lengths(l))
            if all_children or all(x % 2 == 1 for x in c):
                pc = tuple((x + 1) // 2 for x in c)
                es.append((info.level_offsets[l - 1]
                           + mesh_vertex(pc, info.lengths(l - 1)), v))
    return es


class _ReferencePyramid:
    """The coordinate walk that PyramidInfo's level and child tables
    replaced: a vertex's level by scanning the level offsets, its
    coordinates, its parent, its all-odd first child, phi(k) in closed
    form (the number of maximal vertical paths with k edges), and the
    vertical paths from the apex and every vertex with an even coordinate."""

    def __init__(self, m, d):
        self.m, self.d = m, d
        self.sizes = [1 << (l * d) for l in range(m)]
        self.offsets = [sum(self.sizes[:l]) for l in range(m)]
        self.n = sum(self.sizes)

    def lengths(self, l):
        return (1 << l,) * self.d

    def level_of(self, v):
        for l in range(self.m - 1, -1, -1):
            if v > self.offsets[l]:
                return l
        raise ValueError(v)

    def coords(self, v):
        l = self.level_of(v)
        return l, mesh_coords(v - self.offsets[l], self.lengths(l))

    def vertex(self, l, c):
        return self.offsets[l] + mesh_vertex(c, self.lengths(l))

    def parent(self, v):
        l, c = self.coords(v)
        return self.vertex(l - 1, [(x + 1) // 2 for x in c])

    def first_child(self, v):
        l, c = self.coords(v)
        return self.vertex(l + 1, [2 * x - 1 for x in c])

    def phi(self, k):
        if k == self.m - 1:
            return 1
        return self.sizes[self.m - 1 - k] - self.sizes[self.m - 2 - k]

    def vertical_paths(self):
        paths = []
        for v in range(1, self.n + 1):
            l, c = self.coords(v)
            if l == 0 or any(x % 2 == 0 for x in c):
                p = [v]
                while self.level_of(p[-1]) < self.m - 1:
                    p.append(self.first_child(p[-1]))
                paths.append(p)
        return paths


PYRAMID_SHAPES = [(m, d) for m in range(1, 14) for d in range(1, 13)
                  if sum(1 << (l * d) for l in range(m)) <= 5000]


def test_pyramid_tables_match_the_coordinate_walk():
    assert (12, 1) in PYRAMID_SHAPES and (5, 3) in PYRAMID_SHAPES
    for m, d in PYRAMID_SHAPES:
        info, ref = PyramidInfo(m, d), _ReferencePyramid(m, d)
        vs = range(1, ref.n + 1)
        assert info.n == ref.n
        assert info.level == [0] + [ref.level_of(v) for v in vs]
        # routing's _multigrid_groups reads the smaller of u < v as upper
        assert info.level == sorted(info.level)
        assert info.child == [0] + [ref.first_child(v)
                                    if ref.level_of(v) < m - 1 else 0
                                    for v in vs]
        assert all(ref.parent(info.child[v]) == v for v in vs if info.child[v])
        paths = info.vertical_paths()
        assert paths == ref.vertical_paths()
        assert Counter(len(p) - 1 for p in paths) == {
            k: ref.phi(k) for k in range(m)}


@pytest.mark.parametrize("lengths", [(1,), (5,), (3, 1), (2, 3), (1, 2, 3),
                                     (3, 4, 2), (2, 2, 2, 2)])
def test_mesh_edges_match_the_coordinate_loop(lengths):
    g = mesh_graph(lengths)
    want = graph(g.n, _loop_mesh_edges(lengths), family=g.family)
    assert list(g.edges) == list(want.edges)  # same set, same build order


@pytest.mark.parametrize("m, d", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2),
                                  (4, 2), (3, 3)])
def test_pyramid_edges_match_the_coordinate_loop(m, d):
    for make, all_children in ((pyramid_graph, True),
                               (multigrid_graph, False)):
        g = make(m, d)
        want = graph(g.n, _loop_pyramid_edges(m, d, all_children))
        assert list(g.edges) == list(want.edges)
    info, ref = PyramidInfo(m, d), _ReferencePyramid(m, d)
    for v in range(1, info.n + 1):
        l, c = ref.coords(v)
        assert info.vertex(l, c) == v


def test_multipartite_parts_and_edges():
    g = multipartite_graph(3, 2)
    for p in [[1, 2], [3, 4], [5, 6]]:
        assert (p[0], p[1]) not in g.edges
    assert len(g.edges) == 3 * 4 // 2 * 2  # complete tripartite on 2+2+2


def test_pyramid_structure():
    info, ref = PyramidInfo(3, 2), _ReferencePyramid(3, 2)
    assert info.level_sizes == [1, 4, 16]
    assert info.level_vertices(0) == [1]
    assert info.level_vertices(1) == [2, 3, 4, 5]
    g = pyramid_graph(3, 2)
    assert g.n == 21
    # every non-apex vertex has exactly one parent edge
    for v in info.level_vertices(1) + info.level_vertices(2):
        assert (ref.parent(v), v) in g.edges


def test_multigrid_keeps_all_odd_child_edge_only():
    info = PyramidInfo(2, 2)
    g = multigrid_graph(2, 2)
    # level 1 is a 2x2 mesh: 4 mesh edges, plus exactly one vertical edge
    vertical = [e for e in g.edges if 1 in e]
    assert vertical == [(1, info.child[1])] == [(1, 2)]
    assert len(g.edges) == 4 + 1


def test_multigrid_phi_counts():
    info = PyramidInfo(3, 2)
    assert info.level == [0, 0, 1, 1, 1, 1] + [2] * 16
    assert info.child == [0, 2, 6, 8, 14, 16] + [0] * 16
    paths = info.vertical_paths()
    assert sum(len(p) - 1 == 2 for p in paths) == 1
    assert sum(len(p) - 1 == 1 for p in paths) == 3
    assert sum(len(p) - 1 == 0 for p in paths) == 12


def test_cartesian_product_ids():
    g = cartesian_product(path_graph(2), path_graph(3))
    assert g.n == 6
    # (a,b) -> (a-1)*3+b; matches mesh numbering
    assert g.edges == mesh_graph((2, 3)).edges
    assert [f.n for f in g.factors] == [2, 3]


def test_spanning_tree_examples():
    t = spanning_tree(complete_graph(4))
    check_tree(t)
    assert len(t.edges) == 3
    t = spanning_tree(mesh_graph((3, 3)))
    check_tree(t)
    assert len(t.edges) == 8
    assert t.edges <= mesh_graph((3, 3)).edges


def test_diameter_path_is_eccentric():
    for seed in range(5):
        t = random_tree(14, seed)
        path = tree_diameter_path(t)
        d = bfs(t, [path[0]])[2]
        assert d[path[-1]] == max(d)
        assert len(path) - 1 == d[path[-1]]


def _reference_sweep(g):
    """The double sweep as first written, rescanning the maximum per vertex."""
    d1 = _reference_bfs_dist(g, 1)
    u = min(v for v in d1 if d1[v] == max(d1.values()))
    du = _reference_bfs_dist(g, u)
    w = min(v for v in du if du[v] == max(du.values()))
    return _reference_shortest_path(g, u, w)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 80), st.integers(0, 10_000))
def test_path_projection_gives_every_tree_distance(n, seed):
    t = random_tree(n, seed)
    proj = path_projection(t)
    assert proj.path == tuple(_reference_sweep(t))
    assert tree_diameter_path(t) == list(proj.path)
    adj = adjacency(t)
    for j, u in enumerate(proj.path):
        dist = bfs(t, [u])[2]
        assert all(dist[v] == proj.height[v] + abs(proj.anchor[v] - j)
                   for v in range(1, n + 1))
    for v in range(1, n + 1):
        if proj.height[v]:
            assert proj.up[v] in adj[v]
            assert proj.height[proj.up[v]] == proj.height[v] - 1
        else:
            assert proj.path[proj.anchor[v]] == v and proj.up[v] == 0
    assert path_projection(t) is proj  # made once per tree


def test_contour_walk_and_marks():
    for seed in range(6):
        t = random_tree(11, seed)
        c = tree_contour(t)
        assert len(c.walk) == 2 * t.n - 1
        assert c.walk[0] == c.walk[-1] == 1 or t.n == 1
        # every vertex appears deg(v) times (root once more: both endpoints)
        adj = adjacency(t)
        for v in range(1, t.n + 1):
            expect = len(adj[v]) + (1 if v == c.root else 0)
            assert c.walk.count(v) == expect
        marks = sorted(c.marks.values())
        assert len(set(marks)) == t.n
        assert all(b - a <= 3 for a, b in zip(marks, marks[1:]))
    c = tree_contour(graph(1, []))
    assert (c.root, c.walk, c.marks) == (1, (1,), {1: 0})


# References for graphs.bfs: the hand-written traversals it replaced in
# graphs and routing, kept verbatim apart from names; the spanning tree's
# returns its edges in the order it made them.


def _reference_bfs_dist(g, src):
    adj = adjacency(g)
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def _reference_shortest_path(g, src, dst):
    """One shortest path src..dst (BFS, smallest-id tie-break)."""
    adj = adjacency(g)
    parent = {src: None}
    frontier = [src]
    while frontier and dst not in parent:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in parent:
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    if dst not in parent:
        raise StructureError(f"no path {src}..{dst}")
    path = [dst]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def _reference_spanning_edges(g):
    """The spanning tree's edges in the order the frontier search made
    them: the diameter path, then (v, x) as BFS from the path reaches x."""
    path = _reference_sweep(g)
    es = [(path[i], path[i + 1]) for i in range(len(path) - 1)]
    seen = set(path)
    adj = adjacency(g)
    frontier = list(path)
    while frontier:
        nxt = []
        for v in frontier:
            for x in adj[v]:
                if x not in seen:
                    seen.add(x)
                    es.append((v, x))
                    nxt.append(x)
        frontier = nxt
    assert len(seen) == g.n
    return es


def _reference_path_projection(t):
    path = _reference_sweep(t)
    anchor = [0] * (t.n + 1)
    height, up = anchor[:], anchor[:]
    seen = [False] * (t.n + 1)
    for i, v in enumerate(path):
        anchor[v], seen[v] = i, True
    adj = adjacency(t)
    order = list(path)
    for v in order:
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                anchor[w], height[w], up[w] = anchor[v], height[v] + 1, v
                order.append(w)
    return tuple(path), tuple(anchor), tuple(height), tuple(up)


def _bfs_host(kind, n, rng):
    """A host on 1..n with shuffled labels: a random tree plus chords
    ("connected"), a random edge set that may fall apart ("any"), a random
    tree, a path, a star, or a broom (a path ending in a star)."""
    name = list(range(1, n + 1))
    rng.shuffle(name)
    if kind == "tree":
        return random_tree(n, rng.randrange(2**31))
    if kind in ("connected", "any"):
        es = set() if kind == "any" else {
            (name[rng.randrange(i)], name[i]) for i in range(1, n)}
        for _ in range(rng.randrange(2 * n) if n > 1 else 0):
            es.add(tuple(rng.sample(range(1, n + 1), 2)))
        return graph(n, es)
    handle = {"path": n, "star": 1, "broom": rng.randrange(1, n + 1)}[kind]
    es = [(name[i - 1], name[i]) for i in range(1, handle)]
    es += [(name[handle - 1], name[i]) for i in range(handle, n)]
    return graph(n, es)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["connected", "any", "tree", "path", "star", "broom"]),
       st.integers(1, 200), st.integers(0, 2**31 - 1))
def test_bfs_matches_the_reference_traversals(kind, n, seed):
    rng = random.Random(seed)
    g = _bfs_host(kind, n, rng)
    for src in {1, rng.randrange(1, n + 1), n}:
        order, parent, dist = bfs(g, [src])
        ref = _reference_bfs_dist(g, src)
        assert dist == [0] + [ref.get(v, -1) for v in range(1, n + 1)]
        assert sorted(order) == sorted(ref) and order[0] == src
        for dst in rng.sample(order, min(len(order), 8)):
            walk = [dst]
            for _ in range(dist[dst]):
                walk.append(parent[walk[-1]])
            assert walk[::-1] == _reference_shortest_path(g, src, dst)
    assert graphs.is_connected(g) == (len(_reference_bfs_dist(g, 1)) == n)
    if kind == "any":
        return
    path = graphs._sweep_path(g, bfs(g, [1])[2])
    assert path == _reference_sweep(g)
    order, parent, _ = bfs(g, path)
    assert list(zip(path, path[1:])) + [
        (parent[x], x) for x in order[len(path):]] \
        == _reference_spanning_edges(g)
    assert spanning_tree(g).edges == graph(n, _reference_spanning_edges(g)).edges
    if kind == "connected":
        return
    assert tuple(path_projection(g)) == _reference_path_projection(g)
    # the tree planner's search over its alive vertices, all alive here
    parent = [0] * (n + 1)
    order = routing._alive_bfs(adjacency(g), [True] * (n + 1), parent, 1)
    assert (order, parent) == bfs(g, [1])[:2]


def test_bfs_searches_from_every_source_at_once():
    order, parent, dist = bfs(path_graph(7), [4, 1])
    assert order == [4, 1, 3, 5, 2, 6, 7]
    assert parent == [0, 0, 1, 4, 0, 4, 5, 6]
    assert dist == [0, 0, 1, 1, 0, 1, 2, 3]
    order, parent, dist = bfs(graph(4, [(1, 2), (3, 4)]), [2])
    assert order == [2, 1] and parent == [0, 2, 0, 0, 0]
    assert dist == [0, 1, 0, -1, -1]


def test_tree_checks_hand_their_search_to_the_sweep(monkeypatch):
    mesh, tree = generate("mesh:8,8"), generate("random_tree:50,1")
    want = spanning_tree(mesh).edges, graphs._sweep_path(
        tree, bfs(tree, [1])[2])
    sources = []

    def counted(g, srcs):
        sources.append(list(srcs))
        return bfs(g, srcs)

    monkeypatch.setattr(graphs, "bfs", counted)
    # the connectivity or tree check's search from 1 feeds the sweep
    assert spanning_tree(mesh).edges == want[0]
    assert len(sources) == 3 and sources[0] == [1]
    sources.clear()
    proj = path_projection(tree)
    assert list(proj.path) == want[1]
    assert len(sources) == 3 and sources[0] == [1]
    sources.clear()
    # the second call reads the cache: no check, no search
    assert path_projection(tree) is proj and sources == []
    with pytest.raises(StructureError, match="not a tree"):
        path_projection(cycle_graph(5))
    with pytest.raises(StructureError, match="not a tree"):
        path_projection(graph(4, [(1, 2), (3, 4), (2, 3), (1, 3)]))
    with pytest.raises(StructureError, match="not a tree"):
        path_projection(graph(5, [(1, 2), (3, 4), (4, 5), (3, 5)]))


def test_maximal_matching_is_maximal():
    for g in (complete_graph(7), mesh_graph((3, 4)), star_graph(9)):
        m = maximal_matching(g)
        used = {v for e in m for v in e}
        assert len(used) == 2 * len(m)
        for u, v in g.edges:
            assert u in used or v in used


def test_connectivity_and_tree_checks():
    with pytest.raises(StructureError):
        check_connected(graph(4, [(1, 2), (3, 4)]))
    with pytest.raises(StructureError):
        check_tree(cycle_graph(4))
    with pytest.raises(StructureError):
        graph(3, [(1, 5)])


@settings(max_examples=40)
@given(st.integers(2, 16), st.integers(0, 10_000))
def test_json_roundtrip(n, seed):
    t = random_tree(n, seed)
    g2, order = from_json(to_json(t, order=range(1, n + 1)))
    assert g2.n == t.n and g2.edges == t.edges and g2.family == t.family
    assert order == list(range(1, n + 1))


def test_json_rejects_malformed():
    with pytest.raises(StructureError):
        from_json("{not json")
    with pytest.raises(StructureError):
        from_json('{"edges": []}')
    with pytest.raises(StructureError):
        from_json('{"n": "3", "edges": []}')


def test_family_of_reads_structure_before_the_label():
    for spec in ["path:4", "hypercube:1", "complete:2", "mesh:5", "mesh:1,4",
                 "multipartite:2,1", "random_tree:2,0", "multigrid:2,1"]:
        g = generate(spec)
        assert family_of(g) == ("path", (g.n,)), spec
    for spec in ["complete:5", "cycle:3", "pyramid:2,1", "multipartite:3,1"]:
        g = generate(spec)
        assert family_of(g) == ("complete", (g.n,)), spec
    assert family_of(generate("mesh:3,3")) == ("mesh", (3, 3))
    assert family_of(generate("random_tree:9,4")) == ("random_tree", (9, 4))
    product = cartesian_product(path_graph(2), cycle_graph(3))
    assert family_of(product) == ("product", ())
    assert family_of(graph(6, product.edges, family="product")) == (None, ())
    assert family_of(spanning_tree(generate("mesh:3,3"))) == (None, ())


def test_json_family_label_is_rederived():
    for g in [cycle_graph(4), cartesian_product(path_graph(2), path_graph(3)),
              graph(3, [(1, 3), (2, 3)])]:
        back, _ = from_json(to_json(g))
        assert (back.n, back.edges, back.family) == (g.n, g.edges, g.family)
    for wrong in [graph(4, path_graph(4).edges, family="hypercube:2"),
                  graph(4, cycle_graph(4).edges, family="complete:4"),
                  graph(5, path_graph(5).edges, family="path:4"),
                  graph(3, path_graph(3).edges, family="path:x")]:
        with pytest.raises(StructureError):
            from_json(to_json(wrong))


def test_json_label_size_is_checked_before_regenerating():
    for spec in ["path:1", "cycle:9", "complete:7", "star:2", "hypercube:5",
                 "multipartite:3,4", "random_tree:17", "random_tree:17,4",
                 "pyramid:1,3", "pyramid:3,2", "multigrid:4,1", "mesh:2,3,4"]:
        g = generate(spec)
        assert from_json(to_json(g))[0] == g, spec
    # the label names 2^16 (or 2^40, or 10^9) vertices, the document one
    start = time.perf_counter()
    for label in ["hypercube:16", "hypercube:40", "pyramid:40,40",
                  "path:1000000000"]:
        with pytest.raises(StructureError, match="family label"):
            from_json('{"n": 1, "edges": [], "family": "%s"}' % label)
    # a document past GENERATE_CAP is refused for its size, label or not
    with pytest.raises(CapError, match="vertices plus edges"):
        from_json('{"n": 1000000000, "edges": [], "family": "path:1000000000"}')
    assert time.perf_counter() - start < 0.1


def test_json_size_is_capped_before_anything_is_built(monkeypatch):
    for name in ("_doc_keys", "from_keys"):  # any keying or build raises
        monkeypatch.setattr(graphs, name, None)
    for doc in ('{"n": 1000000000, "edges": []}',
                '{"n": %d, "edges": [[1, 2]]}' % GENERATE_CAP):
        with pytest.raises(CapError, match="vertices plus edges"):
            from_json(doc)
    monkeypatch.undo()
    g, _ = from_json('{"n": %d, "edges": []}' % GENERATE_CAP)
    assert (g.n, g.edges) == (GENERATE_CAP, frozenset())


def test_json_label_is_generated_once_for_unsorted_edges(monkeypatch):
    doc = json.loads(to_json(generate("mesh:2,3")))
    doc["edges"].reverse()  # valid, but not graph_doc's edge order
    real, calls = graphs.generate, []

    def counted(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(graphs, "generate", counted)
    g = graphs.graph_from_doc(doc)
    assert calls == ["mesh:2,3"]
    assert (g.edges, g.family) == (generate("mesh:2,3").edges, "mesh:2,3")
    doc["edges"][0] = [1, 6]  # same shape, one edge wrong
    calls.clear()
    with pytest.raises(StructureError, match="family label"):
        graphs.graph_from_doc(doc)
    assert calls == ["mesh:2,3"]


def test_json_labelled_graph_is_built_once(monkeypatch):
    docs = []
    for spec in ["path:5", "cycle:6", "mesh:3,4", "hypercube:3",
                 "random_tree:17", "pyramid:3,2", "multipartite:3,2"]:
        doc = json.loads(to_json(generate(spec)))
        docs.append(doc)
        if spec == "random_tree:17":
            doc["family"] = spec  # generate labels it random_tree:17,0
    unsorted = json.loads(to_json(generate("mesh:2,3")))
    unsorted["edges"].reverse()  # valid, but not graph_doc's edge order
    # every Graph is made by from_keys: one key array per document, which
    # a relabelled one (random_tree:17 above) shares
    real, built = graphs.from_keys, []

    def counted(n, keys, *args, **kwargs):
        built.append(keys)
        return real(n, keys, *args, **kwargs)

    monkeypatch.setattr(graphs, "from_keys", counted)
    for doc in docs + [unsorted]:
        built.clear()
        g = graphs.graph_from_doc(doc)
        assert doc is unsorted or len({id(k) for k in built}) == 1, \
            doc["family"]
        want = graph(doc["n"], map(tuple, doc["edges"]), family=doc["family"])
        assert (g.n, g.edges, g.family) == (want.n, want.edges, want.family)


def test_json_refuses_deep_nesting_and_a_malformed_order():
    with pytest.raises(StructureError, match="nested too deeply"):
        from_json("[" * 5000 + "]" * 5000)
    text = to_json(path_graph(3))
    for order in (5, "123", [1, 2.0, 3], {"1": 1}):
        doc = json.loads(text)
        doc["order"] = order
        with pytest.raises(StructureError, match="order must be a list"):
            from_json(json.dumps(doc))
    doc = json.loads(text)
    doc["edges"][0].append(3)
    with pytest.raises(StructureError, match=r"\[u, v\] pairs"):
        from_json(json.dumps(doc))


def test_family_of_is_cached_on_the_graph():
    g = generate("mesh:4,4")
    assert family_of(g) is family_of(g) == ("mesh", (4, 4))


def test_dot_lists_all_vertices():
    g = pyramid_graph(2, 2)
    dot = to_dot(g)
    for v in range(1, g.n + 1):
        assert f"  {v};" in dot
    assert dot.count("--") == len(g.edges)


def test_random_tree_seeded():
    assert random_tree(20, 3).edges == random_tree(20, 3).edges
    assert random_tree(20, 3).edges != random_tree(20, 4).edges
    check_tree(random_tree(2, 0))


def test_degree_helpers():
    assert max_degree(star_graph(7)) == 6
    assert max_degree(path_graph(2)) == 1


@pytest.mark.parametrize("edges", [
    [(1.5, 2), (2, 3)], [(True, 2), (2, 3)], [(1, 2.0)], [("a", 2)],
    [(np.int64(1), 2)], [(1, 2, 3)], [(1,)]])
def test_graph_refuses_ids_that_are_not_ints(edges):
    # 1.5 would key as 1, so (1, 2) would pass as an edge of the host
    with pytest.raises(StructureError):
        graph(3, edges)


def test_graph_refuses_non_int_ids_built_directly():
    with pytest.raises(StructureError, match="non-integer"):
        graphs.Graph(n=3, edges=frozenset({(1.5, 2)}))
    with pytest.raises(StructureError, match="self-loop at 2"):
        graph(3, [(1, 2), (2, 2)])
    with pytest.raises(StructureError, match="bad edge"):
        graph(3, [(1, 4)])


@pytest.mark.parametrize("n", [3.0, True, np.int64(3), "3", None])
def test_graph_refuses_a_vertex_count_that_is_not_an_int(n):
    # 3.0 would key edges as floats; True passed as 1, to fail on the edge
    for build in (lambda: graph(n, [(1, 2)]),
                  lambda: graphs.Graph(n=n, edges=frozenset({(1, 2)})),
                  lambda: graphs.from_keys(n, np.array([6], np.int64))):
        with pytest.raises(StructureError, match="vertex count"):
            build()


def test_family_label_is_null_or_a_non_empty_string():
    # from_keys, which every Graph goes through, refuses any other label,
    # so no graph is unhashable or written back with a junk label
    keys = np.array([7, 8], np.int64)
    for label in ({}, [], 0, False, "", 7, ["path:3"]):
        with pytest.raises(StructureError, match="null or a non-empty str"):
            graphs.from_keys(4, keys, label)
        with pytest.raises(StructureError, match="null or a non-empty str"):
            graph(3, [(1, 2), (2, 3)], family=label)
        with pytest.raises(StructureError, match="null or a non-empty str"):
            from_json(json.dumps({"n": 3, "edges": [[1, 2], [2, 3]],
                                  "family": label}))
    for label in (None, "product", "x"):
        assert hash(graphs.from_keys(4, keys, label))


def test_from_keys_refuses_keys_that_are_no_sorted_distinct_edges():
    # on n = 4, (1, 2) keys 7, (1, 3) 8 and (3, 4) 19
    assert graphs.from_keys(4, np.array([7, 8, 19])) == \
        graph(4, [(3, 4), (1, 2), (3, 1)])
    for keys in ([8, 7], [7, 7], [7, 19, 8], [4], [5], [6], [12], [24],
                 [25], [-3, 7]):  # unsorted, repeated, u < 1, v <= u, v > n
        with pytest.raises(StructureError, match="not sorted distinct edges"):
            graphs.from_keys(4, np.array(keys, np.int64))
    for keys in ([7, 8], np.array([7, 8], np.int32), np.array([7.0]),
                 np.array([[7, 8]])):
        with pytest.raises(StructureError, match="1-d int64 array"):
            graphs.from_keys(4, keys)
    keys = np.array([7, 8], np.int64)
    g = graphs.from_keys(4, keys)
    with pytest.raises(ValueError, match="read-only"):
        keys[0] = 9  # the graph holds the array it was given
    with pytest.raises(AttributeError, match="immutable"):
        g.n = 5
    with pytest.raises(AttributeError, match="immutable"):
        del g.family
    assert pickle.loads(pickle.dumps(g)) == g
    with pytest.raises(ParameterError, match="at least one vertex"):
        graphs.from_keys(0, np.zeros(0, np.int64))
    with pytest.raises(CapError, match="vertices"):
        graph(graphs.KEY_N_CAP + 1, [])  # its keys would pass int64


def _old_edge_keys(g):
    keys = np.array(list(g.edges), dtype=np.int64).reshape(-1, 2)
    keys = keys[:, 0] * (g.n + 1) + keys[:, 1]
    keys.sort()
    return keys


def _assert_edge_views_unchanged(g):
    assert g.sorted_edges() == sorted(g.edges)
    assert graphs.edge_keys(g).tolist() == _old_edge_keys(g).tolist()
    assert graphs.edge_keys(g).dtype == np.int64
    g.sorted_edges().clear()  # callers get a copy of the cached view
    assert g.sorted_edges() == sorted(g.edges)


@pytest.mark.parametrize("spec", [
    "path:1", "path:9", "cycle:7", "complete:1", "complete:9", "star:8",
    "multipartite:3,4", "hypercube:4", "mesh:3,4", "mesh:2,3,2",
    "random_tree:30,4", "pyramid:3,2", "multigrid:3,2"])
def test_edge_views_match_sorting_the_edges(spec):
    _assert_edge_views_unchanged(generate(spec))
    _assert_edge_views_unchanged(cartesian_product(path_graph(3),
                                                   cycle_graph(4)))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(1, n), st.integers(1, n)).filter(
        lambda e: e[0] != e[1]), max_size=80))))
def test_edge_views_match_sorting_random_edge_lists(case):
    n, edges = case
    _assert_edge_views_unchanged(graph(n, edges))


def _reference_adjacency(g):
    """The per-edge loop that built adjacencies before the key sort."""
    adj = {v: [] for v in range(1, g.n + 1)}
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return {v: tuple(sorted(ns)) for v, ns in adj.items()}


def _assert_key_built_agrees(n, pairs, family=None):
    """graph(n, pairs) and from_keys on the pairs' keys give one graph."""
    by_pairs = graph(n, pairs, family=family)
    by_keys = graphs.from_keys(n, np.array(
        sorted({min(e) * (n + 1) + max(e) for e in pairs}), np.int64), family)
    for g in (by_pairs, by_keys):
        assert g.edges == {(min(e), max(e)) for e in pairs}
        assert g.sorted_edges() == sorted(g.edges)
        assert adjacency(g) == _reference_adjacency(g)
    assert by_keys == by_pairs and hash(by_keys) == hash(by_pairs)
    assert family_of(by_keys) == family_of(by_pairs)
    assert repr(by_keys) == repr(by_pairs)


@st.composite
def _edge_lists(draw):
    """n <= 12 and pairs on it, some repeated and some reversed."""
    n = draw(st.integers(2, 12))
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n))
                          .filter(lambda e: e[0] != e[1]), max_size=40))
    again = draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
    flip = draw(st.booleans())
    family = draw(st.sampled_from([None, f"cycle:{n}", "product"]))
    return n, pairs + [e[::-1] if flip else e for e in again], family


@settings(max_examples=150, deadline=None)
@given(_edge_lists())
def test_key_built_and_pair_built_graphs_agree(case):
    _assert_key_built_agrees(*case)


def _reference_generator_edges(name, params):
    """The pair loops the path, cycle, star, complete, multipartite and
    hypercube generators were built with; None for the other families."""
    if name in ("complete", "multipartite"):
        p, s = params if name == "multipartite" else (params[0], 1)
        return [(u, v) for u in range(1, p * s + 1)
                for v in range(u + 1, p * s + 1)
                if (u - 1) // s != (v - 1) // s]
    if name == "hypercube":
        n = 1 << params[0]
        return [(u + 1, (u ^ 1 << b) + 1) for u in range(n)
                for b in range(params[0]) if u ^ 1 << b > u]
    n = params[0]
    return {"path": [(i, i + 1) for i in range(1, n)],
            "cycle": [(i, i + 1) for i in range(1, n)] + [(1, n)],
            "star": [(1, v) for v in range(2, n + 1)]}.get(name)


def _reference_product_edges(g1, g2):
    """The pair loops cartesian_product was built with."""
    n2 = g2.n
    return [((a - 1) * n2 + u, (a - 1) * n2 + v)
            for a in range(1, g1.n + 1) for u, v in g2.edges] + \
        [((u - 1) * n2 + b, (v - 1) * n2 + b)
         for u, v in g1.edges for b in range(1, n2 + 1)]


@pytest.mark.parametrize("spec", [
    "path:1", "path:2", "path:6", "cycle:3", "cycle:5", "complete:1",
    "complete:2", "complete:7", "star:2", "star:6", "multipartite:2,1",
    "multipartite:3,3", "multipartite:4,2", "hypercube:1", "hypercube:4",
    "mesh:1", "mesh:2,3", "mesh:3,1,2", "random_tree:9,2", "pyramid:2,2",
    "pyramid:3,1", "multigrid:3,1", "multigrid:3,2"])
def test_generated_graphs_agree_key_built_and_pair_built(spec):
    g = generate(spec)
    _assert_key_built_agrees(g.n, g.sorted_edges(), spec)
    want = _reference_generator_edges(*graphs._parse_spec(spec))
    if want is not None:  # mesh and pyramid: see their coordinate loops
        assert g == graph(g.n, want, family=spec)


def test_products_agree_with_the_pair_loops():
    for g1, g2 in [(path_graph(1), path_graph(1)),
                   (path_graph(3), cycle_graph(4)),
                   (star_graph(4), complete_graph(3)),
                   (hypercube_graph(2), path_graph(2))]:
        g = cartesian_product(g1, g2)
        want = graph(g1.n * g2.n, _reference_product_edges(g1, g2),
                     family="product")
        assert g == want and g.factors == (g1, g2)
        _assert_key_built_agrees(g.n, g.sorted_edges(), "product")


def test_json_refuses_ids_that_key_like_the_label_edges():
    # (0, 7), (1, 8), (2, 9) on n = 4 key as 7, 13 and 19: path:4's keys
    path = Path(__file__).parent / "corpus" / "graphs" / \
        "ids_alias_label_keys.json"
    big = 2 ** 64  # past int64: no column of path:2
    for text, error in [
            (path.read_text(), "bad edge (0,7) for n=4"),
            ('{"edges":[[1,%d]],"family":"path:2","n":2,"order":null}' % big,
             f"bad edge (1,{big}) for n=2")]:
        with pytest.raises(StructureError) as e:
            from_json(text)
        assert str(e.value) == error


@pytest.mark.parametrize("spec", ["multipartite:16,16", "complete:128"])
def test_dense_route_round_trip_builds_no_edge_set(spec):
    g = generate(spec)
    pi = list(range(1, g.n + 1))
    random.Random(3).shuffle(pi)
    back = plan_from_json(plan_to_json(routing.route_auto(g, pi)))
    assert back.graph == g and back.realized == tuple(pi)
    for host in (g, back.graph):
        assert "edges" not in vars(host)


# ---------------------------------------------------------------------------
# the one-path reader against the two-path reader it replaced


def _reference_graph(n, edges, family=None):
    """The two-pass graph(): every pair put in (u, v) order, then keyed."""
    try:
        es = [(u, v) if u < v else (v, u) for u, v in edges]
    except (TypeError, ValueError) as e:  # "a" < 2, or not a pair
        raise StructureError(f"malformed edge list: {e}") from e
    graphs._check_n(n)
    keys = []
    for u, v in es:
        if type(u) is not int or type(v) is not int:
            raise StructureError(
                f"edge ({u!r},{v!r}) has a non-integer vertex id")
        if not 1 <= u < v <= n:
            raise StructureError(f"self-loop at {u}" if u == v
                                 else f"bad edge ({u},{v}) for n={n}")
        keys.append(u * (n + 1) + v)
    return graphs.from_keys(n, np.unique(np.array(keys, np.int64)), family)


def _reference_same_columns(g, ids):
    try:
        uv = np.fromiter(ids, np.int64, len(ids))
    except OverflowError:
        return False
    u, v = np.divmod(g._keys, g.n + 1)
    return np.array_equal(uv[0::2], u) and np.array_equal(uv[1::2], v)


def _reference_label_graph(n, edges, label):
    if type(label) is not str or label.partition(":")[0] not in \
            graphs._FAMILIES:
        return None
    try:
        shape = graphs._spec_shape(*graphs._parse_spec(label), n)
        if shape != (n, len(edges)) or sum(shape) > GENERATE_CAP:
            return None
        return generate(label)
    except (ParameterError, CapError):
        return None


def _reference_graph_from_doc(doc):
    """The reader with a label fast path and a graph() rebuild."""
    try:
        n, edges = doc["n"], list(doc["edges"])
        ids = [i for e in edges for i in e]
        if type(n) is not int or any(type(i) is not int for i in ids):
            raise StructureError("graph JSON n and vertex ids must be integers")
        if any(len(e) != 2 for e in edges):
            raise StructureError("graph JSON edges must be [u, v] pairs")
        if n + len(edges) > GENERATE_CAP:
            raise CapError(f"graph JSON has more than {GENERATE_CAP} "
                           f"vertices plus edges")
        label = doc.get("family")
        made = _reference_label_graph(n, edges, label)
        if made is not None and _reference_same_columns(made, ids):
            return made if made.family == label \
                else graphs.from_keys(n, made._keys, label)
        g = _reference_graph(n, edges, family=label)
        name = (g.family or "").partition(":")[0]
    except KeyError as e:
        raise StructureError(f"graph JSON missing {e}") from e
    except (TypeError, AttributeError, ParameterError) as e:
        raise StructureError(f"malformed graph JSON: {e}") from e
    if name in graphs._FAMILIES:
        try:
            shape = graphs._spec_shape(*graphs._parse_spec(g.family), g.n)
            same = shape in (None, (g.n, len(g._keys))) and np.array_equal(
                g._keys, (made if made is not None
                          else generate(g.family))._keys)
        except ParameterError as e:
            raise StructureError(
                f"bad family label {g.family!r}: {e}") from e
        if not same:
            raise StructureError(
                f"graph does not match its family label {g.family!r}")
    return g


def _outcome(read, *args):
    """(n, keys, family) of what read builds, or its error's type and
    text."""
    try:
        g = read(*args)
    except (StructureError, CapError, ParameterError) as e:
        return type(e), str(e)
    return g.n, g._keys.tolist(), g.family


_DOC_SPECS = ["path:1", "path:5", "cycle:6", "complete:5", "star:6",
              "multipartite:3,2", "hypercube:3", "mesh:3,4", "mesh:2,2,2",
              "random_tree:9,4", "random_tree:17,0", "pyramid:3,2",
              "multigrid:3,2"]
_OTHER_LABELS = [None, "product", "tree-of-mesh:3,3", "", "mesh", "path:x",
                 "mesh:0", "random_tree:9,4,1", "hypercube:40",
                 "path:1000000000", "pyramid:40,40", 7, 0, True, [], [1],
                 {"a": 1}]


@st.composite
def _mutated_graph_docs(draw):
    """A generated graph's document, its label written another way or
    replaced, its n changed, or its edges reversed, shuffled, flipped,
    duplicated, given a bad id or a self-loop; often several at once."""
    g = generate(draw(st.sampled_from(_DOC_SPECS)))
    doc = json.loads(to_json(g))
    edges, n = doc["edges"], g.n
    for how in draw(st.lists(st.sampled_from(
            ["reverse", "shuffle", "flip", "duplicate", "id", "loop",
             "relabel", "label", "n"]), min_size=1, max_size=3)):
        if how == "reverse":
            edges.reverse()
        elif how == "shuffle":
            random.Random(draw(st.integers(0, 99))).shuffle(edges)
        elif how == "flip" and edges:
            for e in draw(st.lists(st.sampled_from(edges), max_size=4)):
                e.reverse()
        elif how == "duplicate" and edges:
            edges.insert(draw(st.integers(0, len(edges))),
                         list(draw(st.sampled_from(edges))))
        elif how == "id" and edges:
            edge = draw(st.sampled_from(edges))
            edge[draw(st.integers(0, 1))] = draw(st.sampled_from(
                [0, -1, n + 1, 2 ** 63 - 1, 2 ** 63, 2 ** 64, 1.0, True]))
        elif how == "loop":
            k = draw(st.integers(1, n))
            edges.insert(draw(st.integers(0, len(edges))), [k, k])
        elif how == "relabel":  # the same spec, written another way
            name, _, rest = g.family.partition(":")
            doc["family"] = draw(st.sampled_from(
                [f"{name}:{rest},", f"{name}: {rest}", f"{name}:0{rest}",
                 f"{name}:{rest.removesuffix(',0')}", f" {name}:{rest}"]))
        elif how == "label":
            doc["family"] = draw(st.sampled_from(_DOC_SPECS + _OTHER_LABELS))
        elif how == "n":
            doc["n"] = draw(st.sampled_from(
                [n - 1, n + 1, 0, -1, GENERATE_CAP]))
    return doc


@settings(max_examples=600, deadline=None)
@given(_mutated_graph_docs())
def test_the_reader_agrees_with_the_two_path_reader(doc):
    assert _outcome(graphs.graph_from_doc, doc) == \
        _outcome(_reference_graph_from_doc, doc)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(-1, n + 1), st.integers(-1, n + 1)), max_size=20))))
def test_one_pass_graph_agrees_with_the_two_pass_graph(case):
    n, pairs = case
    assert _outcome(graph, n, pairs) == _outcome(_reference_graph, n, pairs)
    assert _outcome(graphs.Graph, n, pairs) == _outcome(graph, n, pairs)


def test_the_reader_refuses_keys_graph_doc_never_writes():
    text = to_json(path_graph(3))
    for key, value in (("x", 1), ("edge", []), ("N", 3)):
        doc = json.loads(text)
        doc[key] = value
        with pytest.raises(StructureError) as e:
            from_json(json.dumps(doc))
        assert str(e.value) == f"graph JSON has an unknown key {key!r}"
    # a graph file may carry an order; graph_doc writes the four keys
    g, order = from_json(to_json(path_graph(3), order=[3, 2, 1]))
    assert (g, order) == (path_graph(3), [3, 2, 1])
