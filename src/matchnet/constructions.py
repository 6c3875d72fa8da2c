"""Builders for sorting networks on concrete host graphs.

Every builder returns a SortingNetwork whose stages are matchings of host
edges, with a depth certificate recording the claimed bound next to the
achieved depth.  Builders are pure: the same parameters always produce the
same network, byte for byte.

_batcher_pairs, Batcher's odd-even merge sort as stages of wire pairs, is
the one Batcher schedule: batcher_complete, sequential_sorter and the block
schedules and scores of the merge builders read it, and _odd_even_stages
serves the path sorter and longest_path_sort's arena alike.

The three merge builders (subgraph_sort, longest_path_sort and
parallel_subgraph_sort) sort by Batcher's merge-split step: route two label
blocks into a subgraph, merge them there and rebind the labels.  They
differ only in blocks, merge schedule, arenas (vertex list, stage list)
and router, and share the one loop _arena_merges.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from itertools import zip_longest

from .errors import ConstructionError, ParameterError, StructureError
from .graphs import (Graph, PyramidInfo, adjacency, cartesian_product,
                     check_connected, complete_graph, family_of, graph,
                     hypercube_graph, is_connected, max_degree,
                     maximal_matching, mesh_graph, path_graph, pyramid_graph,
                     spanning_tree, tree_contour, tree_diameter_path)
from .network import (DIR, SWAP, SortingNetwork, make_network)
from .perms import identity, inverse
from .routing import _routed, _to_path_stages, route_depth_bound


def _cert(name: str, parameters: dict, claimed: int, achieved: int) -> dict:
    if achieved > claimed:
        raise ConstructionError(
            f"{name}: achieved depth {achieved} exceeds claimed {claimed}")
    return {"formula_name": name, "parameters": dict(parameters),
            "claimed_bound": claimed, "achieved_depth": achieved}


def _is_complete(g: Graph) -> bool:
    name = family_of(g)[0]
    return name == "complete" or (name == "path" and g.n <= 2)  # K1, K2


# ---------------------------------------------------------------------------
# fixed-schedule sorters

def _odd_even_stages(n: int) -> list[list[tuple]]:
    """Odd-even transposition's n rounds on the path 1..n: round k
    compares (i, i + 1) for every i of k's parity."""
    return [[(i, i + 1, DIR) for i in range(2 - k % 2, n, 2)]
            for k in range(1, n + 1)]


def odd_even_transposition(n: int) -> SortingNetwork:
    """Odd-even transposition sort on the path; depth exactly n for n >= 2."""
    if n < 1:
        raise ParameterError("need n >= 1")
    depth = n if n > 1 else 0  # a single vertex needs no round
    return make_network(path_graph(n), identity(n), _odd_even_stages(depth),
                        certificate=_cert("odd_even", {"n": n}, depth, depth))


def bitonic_hypercube(dim: int) -> SortingNetwork:
    """Bitonic sorter on the hypercube; every comparator flips one bit."""
    if dim < 1:
        raise ParameterError("need dim >= 1")
    n = 1 << dim
    stages = []
    k = 2
    while k <= n:
        j = k >> 1
        while j >= 1:
            stage = []
            for i in range(n):
                partner = i ^ j
                if partner > i:
                    if i & k == 0:
                        stage.append((i + 1, partner + 1, DIR))
                    else:
                        stage.append((partner + 1, i + 1, DIR))
            stages.append(stage)
            j >>= 1
        k <<= 1
    bound = dim * (dim + 1) // 2
    return make_network(hypercube_graph(dim), identity(n), stages,
                        certificate=_cert("bitonic", {"n": n, "d": dim},
                                          bound, len(stages)))


def _batcher_pairs(n: int) -> list[list[tuple[int, int]]]:
    """Batcher's odd-even merge sort on wires 1..n: its non-empty stages
    of pairs (a, b), a < b, each directing the minimum to a.  Sizes off a
    power of two are padded with virtual maximal keys, whose comparators
    never move anything and are dropped."""
    stages = []
    p = 1
    while p < n:
        k = p
        while k >= 1:
            stage = [(i + j + 1, i + j + k + 1)
                     for j in range(k % p, n - k, 2 * k)
                     for i in range(min(k, n - j - k))
                     if (i + j) // (2 * p) == (i + j + k) // (2 * p)]
            if stage:
                stages.append(stage)
            k //= 2
        p *= 2
    return stages


def batcher_complete(n: int) -> SortingNetwork:
    """Batcher sorter on the complete graph, its stages _batcher_pairs(n);
    it directs every minimum toward the lower vertex id."""
    if n < 1:
        raise ParameterError("need n >= 1")
    stages = [[(a, b, DIR) for a, b in stage] for stage in _batcher_pairs(n)]
    levels = (n - 1).bit_length()
    bound = levels * (levels + 1) // 2
    return make_network(complete_graph(n), identity(n), stages,
                        certificate=_cert("batcher", {"n": n},
                                          bound, len(stages)))


def sequential_sorter(q: int) -> list[tuple[int, int]]:
    """Batcher comparisons flattened to one compare-exchange at a time."""
    if q < 1:
        raise ParameterError("need n >= 1")
    return [pair for stage in _batcher_pairs(q) for pair in stage]


# ---------------------------------------------------------------------------
# trees: contour emulation of the path sorter

def contour_tree_sort(t: Graph) -> SortingNetwork:
    """Sort on a tree by emulating the path sorter along a closed walk.

    The walk crosses each edge twice; one visit of every vertex is marked
    so consecutive marks are at most three walk steps apart.  Each round
    of the virtual transposition sort is split into color classes of
    non-interfering walk intervals, and each comparison expands to walk
    in, compare, walk back (at most five stages).  Round r compares the
    marks i - 1 and i with i of r's parity, so the stages of an odd and of
    an even round are built once and alternate.  Marked order is the
    target order.
    """
    contour = tree_contour(t)
    n = t.n
    if n == 1:
        return make_network(t, (1,), [],
                            certificate=_cert("contour", {"n": 1}, 0, 0))
    tour = contour.walk
    marks = sorted(contour.marks.values())
    # first visit on even depth, last on odd: no input reaches a wider gap
    assert all(b - a <= 3 for a, b in zip(marks, marks[1:]))
    order = inverse(sorted(contour.marks, key=contour.marks.get))

    delta = max_degree(t)
    color_cap = 4 * delta - 3
    odd, even = [], []
    for first, rnd in ((1, odd), (2, even)):
        intervals = [(marks[i - 1], marks[i]) for i in range(first, n, 2)]
        proj = [frozenset(tour[a:b + 1]) for a, b in intervals]
        colors = []
        for i in range(len(intervals)):
            used = {colors[j] for j in range(i) if proj[i] & proj[j]}
            c = 0
            while c in used:
                c += 1
            colors.append(c)
        n_colors = max(colors, default=-1) + 1
        if n_colors > color_cap:
            raise ConstructionError(
                f"interval coloring used {n_colors} colors, "
                f"over its cap {color_cap}")
        for c in range(n_colors):
            group = [intervals[i] for i in range(len(intervals))
                     if colors[i] == c]
            plans = []
            for a, b in group:
                walk_in = [(tour[x], tour[x + 1], SWAP) for x in range(a, b - 1)]
                compare = [(tour[b - 1], tour[b], DIR)]
                walk_out = [(tour[x], tour[x + 1], SWAP)
                            for x in range(b - 2, a - 1, -1)]
                plans.append(walk_in + compare + walk_out)
            for step in zip_longest(*plans):
                rnd.append(tuple(cmp for cmp in step if cmp is not None))
    stages = (odd + even) * (n // 2) + odd * (n % 2)  # rounds 1..n
    bound = 5 * color_cap * n
    return make_network(t, order, stages,
                        certificate=_cert("contour",
                                          {"n": n, "delta": delta},
                                          bound, len(stages)))


# ---------------------------------------------------------------------------
# simulation of a complete-graph sorter through routing

def _follow(routed, pos: list, stages_out) -> None:
    """Append a checked route's stages and move the labels in pos with them."""
    stages, realized, _ = routed
    stages_out.extend(stages)
    pos[:] = [realized[v - 1] for v in pos]


def _fixup(g: Graph, pos: list[int], stages_out: list) -> None:
    """Route every logical label back to its own vertex."""
    # inverse(pos)[vertex-1] = the label on it
    _follow(_routed(g, enumerate(inverse(pos), 1)), pos, stages_out)


def simulate_complete(g: Graph, base: SortingNetwork) -> SortingNetwork:
    """Run a complete-graph sorter on g by routing pairs onto a matching.

    Each base stage is split into groups no larger than the maximal
    matching; each group's pairs are routed onto distinct matching edges,
    compared there, and the relabeling is tracked so later stages see the
    logical wires.  A final routing restores label == vertex.
    """
    check_connected(g)
    n = g.n
    if base.graph.n != n or not _is_complete(base.graph):
        raise ParameterError("base network must sort the complete graph on n")
    rb = route_depth_bound(g)
    matching = maximal_matching(g)
    nu = len(matching)
    # a connected graph on n >= 2 vertices has an edge; no input reaches this
    assert nu >= 1 or n == 1

    pos = list(range(1, n + 1))
    stages_out: list = []
    for stage in base.stages:
        comps = list(stage)
        for lo in range(0, len(comps), nu):
            group = comps[lo:lo + nu]
            placed = [(pos[u - 1], pos[v - 1], kind) for u, v, kind in group]
            if all((min(a, b), max(a, b)) in g.edges for a, b, _ in placed):
                stages_out.append(placed)
                continue
            want = {}
            for (u, v, _), (a, b) in zip(group, matching):
                want[pos[u - 1]] = a
                want[pos[v - 1]] = b
            _follow(_routed(g, want), pos, stages_out)
            stages_out.append([(pos[u - 1], pos[v - 1], kind)
                               for u, v, kind in group])
    _fixup(g, pos, stages_out)

    t = -(-n // nu) if nu else 1
    claimed = base.depth * t * (rb + 1) + rb
    cert = _cert("simulate_complete",
                 {"n": n, "nu": nu, "rt_used": rb, "base_depth": base.depth},
                 claimed, len(stages_out))
    return make_network(g, base.order, stages_out, certificate=cert)


# ---------------------------------------------------------------------------
# sorting by merges of vertex blocks inside subgraphs

def _check_standard(net: SortingNetwork, what: str) -> None:
    # Filtering a network to an occupied prefix is only sound when every
    # comparator directs its minimum to the lower rank and nothing swaps
    # unconditionally: virtual maximal keys on the empty slots then never
    # move.
    for stage in net.stages:
        for u, v, kind in stage:
            if kind != DIR or u >= v:
                raise StructureError(
                    f"{what} must direct minima toward lower ranks")


def _check_embedding(g: Graph, verts: list[int], net: SortingNetwork,
                     what: str) -> None:
    if not all(type(v) is int and 1 <= v <= g.n for v in verts) \
            or len(set(verts)) != len(verts):
        raise ParameterError(f"{what}: vertex list is not a subset of the host")
    if net.graph.n != len(verts):
        raise ParameterError(f"{what}: network size differs from vertex list")
    for stage in net.stages:
        for u, v, _ in stage:
            a, b = verts[u - 1], verts[v - 1]
            if (min(a, b), max(a, b)) not in g.edges:
                raise StructureError(
                    f"{what}: comparator ({u},{v}) maps off the host edges")
    local = {v: i for i, v in enumerate(verts, 1)}
    adj = adjacency(g)
    induced = [(i, local[w]) for v, i in local.items() for w in adj[v]
               if local.get(w, 0) > i]
    if not is_connected(graph(len(verts), induced)):
        raise StructureError(f"{what}: induced subgraph is disconnected")
    if tuple(net.order) != identity(net.graph.n):
        raise StructureError(f"{what} must sort into identity order")


def _arena_merges(g: Graph, blocks: list[list[int]], schedule,
                  arenas: list, route) -> list:
    """The stages of a merge-split sort of g over label blocks.

    Each stage of the schedule lists block pairs (i, j), 1-based; its k-th
    merge takes arena k = (verts, stages), a standard sorter's stages on
    the local wires 1..|verts|.  One route(sources, targets) per schedule
    stage brings every merged block onto the first |block| vertices of its
    arena, lowest ranks first; the arena stages then run in lockstep, each
    keeping the comparators (u, v) with v <= |block|, and the block's
    labels rebind to those vertices in rank order.  A final route takes
    the labels, in block order, to vertices 1..n.
    """
    pos = list(range(1, g.n + 1))
    stages_out: list = []
    for stage in schedule:
        merges = [(blocks[i - 1] + blocks[j - 1], verts, sub)
                  for (i, j), (verts, sub) in zip(stage, arenas)]
        sources = [pos[label - 1] for block, _, _ in merges for label in block]
        targets = [v for block, verts, _ in merges for v in verts[:len(block)]]
        _follow(route(sources, targets), pos, stages_out)
        for step in zip_longest(*(sub for _, _, sub in merges),
                                fillvalue=()):
            merged = [(verts[u - 1], verts[v - 1], kind)
                      for (block, verts, _), sub in zip(merges, step)
                      for u, v, kind in sub if v <= len(block)]
            if merged:
                stages_out.append(merged)
        for block, verts, _ in merges:
            for r, label in enumerate(block):
                pos[label - 1] = verts[r]
    _fixup(g, [pos[label - 1] for block in blocks for label in block],
           stages_out)
    return stages_out


def _sequential_merges(n: int, size: int) -> tuple[list, list]:
    """Consecutive label blocks of exactly `size`, short remainder last,
    and a schedule of one merge per stage: Batcher's comparisons over the
    blocks, one at a time.

    Merge-split over a comparison network only sorts when blocks share one
    size; a short block is sound only as the LAST one, where it behaves as
    if padded with maximal sentinels (every comparison sends maxima to the
    higher wire, so the phantom slots never leave it).  Spreading the
    remainder across blocks breaks sortedness, e.g. sizes (3,3,2,2) leave
    the one-counts (3,3,0,0) at (1,1,2,2) after a 4-wire merge network.
    """
    parts = [list(range(lo, min(lo + size - 1, n) + 1))
             for lo in range(1, n + 1, size)]
    # blocks start every size labels: no input reaches this
    assert all(len(p) == size for p in parts[:-1])
    return parts, [[pair] for pair in sequential_sorter(len(parts))]


def subgraph_sort(g: Graph, h_vertices,
                  h_net: SortingNetwork) -> SortingNetwork:
    """Sort g by repeatedly merging pairs of vertex blocks inside H.

    The labels are split into blocks of |H| // 2, the last one short; a
    sequential comparison list over the blocks drives one merge at a time,
    each routed into H as route_auto routes on g and within
    route_depth_bound(g).  h_net must be standard (all minima toward lower
    ranks), so that running it on the occupied prefix of H is sound.
    """
    check_connected(g)
    n = g.n
    hv = list(h_vertices)
    if n == 1:
        return make_network(g, (1,), [],
                            certificate=_cert("subgraph", {"n": 1}, 0, 0))
    _check_embedding(g, hv, h_net, "subgraph sorter")
    _check_standard(h_net, "subgraph sorter")
    p = len(hv)
    if p < 2:
        raise ParameterError("merge capacity must be between 2 and |H|")
    rb = route_depth_bound(g)

    parts, schedule = _sequential_merges(n, p // 2)
    stages_out = _arena_merges(g, parts, schedule, [(hv, h_net.stages)],
                               lambda src, dst: _routed(g, zip(src, dst)))
    claimed = len(schedule) * (rb + h_net.depth) + rb
    cert = _cert("subgraph",
                 {"n": n, "p": p, "q": len(parts), "rt_used": rb,
                  "base_depth": len(schedule)},
                 claimed, len(stages_out))
    return make_network(g, identity(n), stages_out, certificate=cert)


def longest_path_sort(g: Graph) -> SortingNetwork:
    """Sort any connected graph through the diameter path of a spanning tree.

    H is the diameter path of d edges, blocks hold d // 2 labels, and
    every merge is routed to the path by route_to_path on the tree, each
    checked against its own d + 2(k - 1) for k pebbles.
    """
    check_connected(g)
    n = g.n
    if n == 1:
        return make_network(g, (1,), [],
                            certificate=_cert("longest_path", {"n": 1}, 0, 0))
    if n == 2:
        (u, v), = g.edges
        stages = [[(u, v, DIR)]]
        return make_network(g, identity(2), stages,
                            certificate=_cert("longest_path",
                                              {"n": 2, "d": 1}, 1, 1))
    tree = spanning_tree(g)
    path = tree_diameter_path(tree)
    d = len(path) - 1
    rb = d + 2 * (2 * (d // 2) - 1)  # a full merge routes k = 2(d // 2)

    parts, schedule = _sequential_merges(n, d // 2)
    stages_out = _arena_merges(g, parts, schedule,
                               [(path, _odd_even_stages(d + 1))],
                               partial(_to_path_stages, tree))
    claimed = len(schedule) * (rb + d + 1) + route_depth_bound(g)
    cert = _cert("longest_path",
                 {"n": n, "d": d, "q": len(parts), "rt_used": rb},
                 claimed, len(stages_out))
    return make_network(g, identity(n), stages_out, certificate=cert)


def parallel_subgraph_sort(g: Graph, partition, nets) -> SortingNetwork:
    """Sort g with one merge arena per partition class, merges in parallel.

    The partition classes are halved into 2q blocks; Batcher's stages on
    2q wires (_batcher_pairs) drive the merges through _arena_merges, and
    every merge fills one arena exactly, so the arena nets run unfiltered.
    Needs equal class sizes and an even class size (each merge of two
    blocks must fill an arena).
    """
    check_connected(g)
    n = g.n
    parts = [list(pv) for pv in partition]
    q = len(parts)
    flat = [v for pv in parts for v in pv]
    if len(flat) != n or set(flat) != set(range(1, n + 1)):
        raise ParameterError("partition must cover every vertex exactly once")
    size = n // q
    if any(len(pv) != size for pv in parts):
        raise ParameterError("partition classes must have equal sizes")
    if size % 2 != 0:
        raise ParameterError("partition classes must have even size")
    if len(nets) != q:
        raise ParameterError("need one arena network per partition class")
    for pv, net in zip(parts, nets):
        _check_embedding(g, pv, net, "arena sorter")
    rb = route_depth_bound(g)

    # wire w of the block sorter ends holding ranks (w-1)h+1..wh, bound to
    # halves[w-1] in list order; the final route takes each pebble to the
    # vertex of its rank, so scattered classes sort into identity order too
    halves = [h for pv in parts for h in (pv[:size // 2], pv[size // 2:])]
    schedule = _batcher_pairs(2 * q)
    arenas = [(pv, net.stages) for pv, net in zip(parts, nets)]
    stages_out = _arena_merges(g, halves, schedule, arenas,
                               lambda src, dst: _routed(g, zip(src, dst)))

    max_net = max((net.depth for net in nets), default=0)
    claimed = len(schedule) * (rb + max_net) + rb
    cert = _cert("parallel_subgraph",
                 {"n": n, "q": q, "rt_used": rb, "base_depth": len(schedule)},
                 claimed, len(stages_out))
    return make_network(g, identity(n), stages_out, certificate=cert)


# ---------------------------------------------------------------------------
# cartesian products and pyramids

# family_of name -> the BUILDERS entry that sorts a product factor
_NATIVE = {"path": "odd_even", "complete": "batcher", "hypercube": "bitonic",
           "mesh": "product", "product": "product",
           "multipartite": "simulate_complete"}


def _factor_sorter(g: Graph):
    """A sorter for one product factor, dispatched on its family."""
    return BUILDERS[_NATIVE.get(family_of(g)[0], "longest_path")](g)


def _factor_depth(g: Graph) -> int | None:
    """_factor_sorter(g).depth in closed form for the path, complete and
    hypercube families, None for the others."""
    name, params = family_of(g)
    if name == "path":
        return g.n if g.n > 1 else 0
    if name == "complete":
        return len(_batcher_pairs(g.n))
    if name == "hypercube":
        return params[0] * (params[0] + 1) // 2
    return None


def product_sort(g1: Graph, g2: Graph) -> SortingNetwork:
    """Sort a cartesian product using copies of one factor as merge arenas.

    Both factor choices are scored from their arena sorter's depth, in
    closed form where _factor_depth has one, and the cheaper valid one is
    taken; a factor is usable as arena when the other side has even order.
    When both sides are odd the construction falls back to the
    diameter-path sorter, recorded in the certificate.
    """
    host = cartesian_product(g1, g2)
    n1, n2 = g1.n, g2.n
    if n1 == 1 or n2 == 1:
        inner = _factor_sorter(g2 if n1 == 1 else g1)
        return make_network(host, inner.order, inner.stages,
                            certificate=inner.certificate)

    # side 0: the n1 rows are copies of g2; side 1: the n2 columns, of g1
    rows = [list(range(a * n2 + 1, a * n2 + n2 + 1)) for a in range(n1)]
    rb = route_depth_bound(host)
    options = []
    for side, (parts, arena) in enumerate(
            ((rows, g2), ([list(col) for col in zip(*rows)], g1))):
        if arena.n % 2 == 0:
            net, depth = None, _factor_depth(arena)
            if depth is None:
                net = _factor_sorter(arena)
                depth = net.depth
            score = len(_batcher_pairs(2 * len(parts))) * (rb + depth)
            options.append((score, side, parts, arena, net))
    if not options:
        net = longest_path_sort(host)
        cert = dict(net.certificate)
        cert["parameters"] = dict(cert["parameters"], fallback="longest_path")
        return replace(net, certificate=cert)

    _, _, parts, arena, arena_net = min(options, key=lambda o: (o[0], o[1]))
    if arena_net is None:  # built for the winner only
        arena_net = _factor_sorter(arena)
    net = parallel_subgraph_sort(host, parts, [arena_net] * len(parts))
    return replace(net, certificate={**net.certificate,
                                     "formula_name": "product"})


def pyramid_sort(m: int, d: int) -> SortingNetwork:
    """Sort the pyramid: pool the upper levels into the bottom mesh, sort
    there, return the smallest pebbles upward, and squeeze stragglers out
    through two rounds of child-parent merges.

    Target order is levels ascending from the apex, each level in its
    mesh order.
    """
    if m < 1 or d < 1:
        raise ParameterError("need m >= 1 and d >= 1")
    host = pyramid_graph(m, d)
    n = host.n
    if m == 1:
        return make_network(host, (1,), [],
                            certificate=_cert("pyramid", {"n": 1}, 0, 0))

    info = PyramidInfo(m, d)
    bottom = list(info.level_vertices(m - 1))
    nb = len(bottom)
    base0 = bottom[0] - 1
    upper = n - nb
    n_mid = info.level_sizes[m - 2]
    # level l has 2^(l d) vertices: no input reaches this
    assert upper <= 2 * n_mid - 1 < nb

    mesh = mesh_graph(info.lengths(m - 1))
    rt_mesh = route_depth_bound(mesh)
    mesh_net = _factor_sorter(mesh)
    mesh_sort = [[(u + base0, v + base0, kind) for u, v, kind in stage]
                 for stage in mesh_net.stages if stage]

    mids = info.level_vertices(m - 2)
    merge_stage = []
    step4_want = {}
    for i in range(1, n_mid + 1):
        parent = mids[n_mid - i]
        child = info.child[parent]
        step4_want[i] = child - base0
        merge_stage.append((parent, child, DIR))

    # the multigrid planner, also on pyramid:2,1, which family_of names K3
    multigrid = ("multigrid", (m, d))
    pool_in = _routed(host, zip(range(1, upper + 1), bottom), multigrid)[0]
    pool_out = _routed(host, zip(bottom, range(1, upper + 1)), multigrid)[0]
    raise_smallest = [[(u + base0, v + base0, kind) for u, v, kind in s]
                      for s in _routed(mesh, step4_want)[0]]

    stages: list = []
    for _ in range(2):
        stages += pool_in + mesh_sort          # pool the upper levels, sort
        stages += pool_out + mesh_sort         # return the smallest, resort
        stages += raise_smallest               # lift candidates to children
        stages.append(merge_stage)             # child-parent compare
    stages += pool_in + mesh_sort
    stages += pool_out + mesh_sort

    rt_pyr = route_depth_bound(host)
    claimed = (6 * rt_pyr + 6 * mesh_net.certificate["claimed_bound"]
               + 2 * rt_mesh + 2)
    cert = _cert("pyramid", {"n": n, "d": d, "m": m, "rt_used": rt_pyr},
                 claimed, len(stages))
    return make_network(host, identity(n), stages, certificate=cert)


# ---------------------------------------------------------------------------
# one builder per construction name, as a function of the host graph

def _fit(g: Graph, family: str, message: str) -> tuple:
    """family_of(g)'s parameters, or StructureError when g is another family."""
    name, params = family_of(g)
    if name != family:
        raise StructureError(message)
    return params


# family_of names a graph "path" or "complete" before it reads the label, so
# a few small family graphs come back under those names: the complete graphs
# on one and two vertices are paths, hypercube:1 is the 2-vertex path,
# pyramid:1,d a single vertex, pyramid:2,1 the triangle, and a mesh with at
# most one side above 1 a path, which in turn is the 1 x n mesh
_SMALL_PYRAMIDS = {("path", (1,)): (1, 1), ("complete", (3,)): (2, 1)}


def _bitonic(g: Graph) -> SortingNetwork:
    dim = (1,) if family_of(g) == ("path", (2,)) else \
        _fit(g, "hypercube", "bitonic needs a hypercube host")
    return bitonic_hypercube(*dim)


def _batcher(g: Graph) -> SortingNetwork:
    if not _is_complete(g):
        raise StructureError("batcher needs a complete host")
    return batcher_complete(g.n)


def _product(g: Graph) -> SortingNetwork:
    name, lengths = family_of(g)
    if name == "product":
        return product_sort(*g.factors)
    if name == "path":
        lengths = (1, g.n)
    elif name != "mesh":
        raise StructureError("product needs a mesh host with at least two axes")
    return product_sort(path_graph(lengths[0]), mesh_graph(lengths[1:]))


def _pyramid(g: Graph) -> SortingNetwork:
    m_d = _SMALL_PYRAMIDS.get(family_of(g)) or \
        _fit(g, "pyramid", "pyramid needs a pyramid host")
    return pyramid_sort(*m_d)


BUILDERS = {
    "odd_even": lambda g: odd_even_transposition(
        *_fit(g, "path", "odd_even needs a path host")),
    "bitonic": _bitonic,
    "batcher": _batcher,
    "contour": contour_tree_sort,
    "simulate_complete": lambda g: simulate_complete(g, batcher_complete(g.n)),
    "subgraph": longest_path_sort,  # H is the spanning-tree diameter path
    "longest_path": longest_path_sort,
    "parallel_subgraph": _product,
    "product": _product,
    "pyramid": _pyramid,
}
