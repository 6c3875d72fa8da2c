"""Graph types, generators, and tree utilities.

Vertices are the integers 1..n everywhere.  Edges are unordered pairs
stored as (u, v) with u < v.  All generators emit connected graphs with
a documented canonical numbering:

- path:n          1 - 2 - ... - n
- cycle:n         ring 1 - 2 - ... - n - 1
- complete:n      all pairs
- star:n          center 1, leaves 2..n
- multipartite:p,s   part i is the block {(i-1)s+1 .. is}; edges join
                  different parts
- hypercube:dim   vertices 1..2^dim, u ~ v iff (u-1) xor (v-1) is a
                  power of two
- mesh:L1,..,Ld   coordinates x in [1,L1] x ... x [1,Ld]; the last
                  coordinate varies fastest; edges join points differing
                  by one in a single coordinate
- random_tree:n,seed   Pruefer sequence drawn from random.Random(seed)
- pyramid:m,d     m levels of d-dimensional meshes with sides 1,2,..,2^(m-1),
                  numbered level-major from the apex; every child
                  x in level l connects to its parent ceil(x/2) in level l-1
- multigrid:m,d   pyramid minus all parent edges except the one from the
                  child with all-odd local coordinates

A Graph holds its edges as one sorted int64 array of keys u*(n+1) + v,
u < v: 8 bytes an edge.  from_keys is the one constructor; the generators
build their keys with numpy, graph() and Graph(...) key checked pairs.
The other views derive from the keys.  edges, the frozenset of (u, v)
tuples, and the adjacency, split from one sort of both directions' keys,
are built on first use and cached on the Graph; no generation, route or
JSON round trip asks for edges.  sorted_edges() reads the keys afresh, in
key order, which is (u, v) order.  n and the vertex ids are ints (a bool
or float is refused).

bfs is the one breadth-first search of the graph layer: connectivity,
the double-sweep diameter path, the spanning tree, the path projection
and the contour parities all read its flat lists.  The tree router's
centroid, path order and component search walk only the vertices still
alive in the tree, so they use routing._alive_bfs instead.  The contour's
Euler walk is the one traversal that must be depth-first.

The family string stored on a Graph is exactly the generator spec
("mesh:3,3").  family_of turns it, after the path and complete structure
tests, into the family whose sorter and router serve the graph;
graph_from_doc, which reads graph files and the hosts of network and plan
files, generates a generator label once and refuses any difference.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import CapError, ParameterError, StructureError


class Graph:
    """Immutable undirected graph on vertices 1..n.

    A Graph holds n, its family label, the factors of a product built in
    memory (not serialized, not compared) and the sorted int64 array of
    its edge keys; from_keys makes every one.  Graph(n, edges) and graph()
    key pairs (u, v) in either order.  == and hash go on (n, family,
    keys).
    """

    def __new__(cls, n: int, edges: Iterable[tuple[int, int]],
                family: str | None = None, factors: tuple = ()):
        _check_n(n)
        return from_keys(n, _pair_keys(n, edges), family, factors)

    def __setattr__(self, name, value):
        raise AttributeError(f"Graph is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Graph is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return from_keys, (self.n, self._keys, self.family, self.factors)

    def __eq__(self, other):
        if other.__class__ is not Graph:
            return NotImplemented
        return (self.n, self.family) == (other.n, other.family) \
            and np.array_equal(self._keys, other._keys)

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.n, self.family, self._keys.tobytes()))

    @cached_property
    def edges(self) -> frozenset:
        """The edges (u, v), u < v, as a set: built on first use."""
        return frozenset(self.sorted_edges())

    def sorted_edges(self) -> list[tuple[int, int]]:
        """The edges (u, v), u < v, in (u, v) order, read off the keys."""
        u, v = np.divmod(self._keys, self.n + 1)
        return list(zip(u.tolist(), v.tolist()))

    @cached_property
    def _adjacency(self) -> dict[int, tuple[int, ...]]:
        # both directions of every edge, keyed end*(n+1) + mate, sorted
        n = self.n
        u, v = np.divmod(self._keys, n + 1)
        ends, mates = np.divmod(np.sort(np.concatenate(
            [self._keys, v * (n + 1) + u])), n + 1)
        bounds = np.searchsorted(ends, np.arange(1, n + 2)).tolist()
        mates = mates.tolist()
        return dict(zip(range(1, n + 1), [tuple(mates[a:b]) for a, b in
                                          zip(bounds, bounds[1:])]))

    @cached_property
    def _matchings(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Every nonempty matching, its edges (u, v), u < v, in increasing
        u.  The order is that of a search over vertices 1, 2, ... that first
        leaves each one unmatched, then matches it to each larger free
        neighbour in turn.  verify.all_matchings hands out copies."""
        adj = self._adjacency
        n = self.n
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
        return tuple(out)

    @cached_property
    def _path_projection(self) -> PathProjection:  # see path_projection
        path = _sweep_path(self, check_tree(self))
        order, up, height = bfs(self, path)
        anchor = [0] * (self.n + 1)
        for i, v in enumerate(path):
            anchor[v] = i
        for v in order[len(path):]:
            anchor[v] = anchor[up[v]]
        return PathProjection(tuple(path), tuple(anchor), tuple(height),
                              tuple(up))

    @cached_property
    def _family(self) -> tuple[str | None, tuple[int, ...]]:
        n, m = self.n, len(self._keys)
        if m == n - 1 and (self._keys == _path_keys(n)).all():
            return "path", (n,)
        if m == n * (n - 1) // 2:
            return "complete", (n,)
        name = (self.family or "").partition(":")[0]
        if name == "product" and len(self.factors) == 2:
            return name, ()
        if name in _FAMILIES:
            return name, tuple(_parse_spec(self.family)[1])
        return None, ()

    def __repr__(self):  # keep reprs short, edge sets get large
        fam = f" family={self.family!r}" if self.family else ""
        return f"Graph(n={self.n}, m={len(self._keys)}{fam})"


# the largest n for which every end*(n + 1) + mate over 1..n, the keys and
# the reversed keys _adjacency sorts, fits in int64
KEY_N_CAP = 3_037_000_498


def _check_n(n) -> None:
    if type(n) is not int:  # 3.0 or True would key edges as floats or bools
        raise StructureError(f"vertex count {n!r} is not an integer")
    if n < 1:
        raise ParameterError("graph needs at least one vertex")
    if n > KEY_N_CAP:
        raise CapError(f"graph has more than {KEY_N_CAP} vertices")


def from_keys(n: int, keys: np.ndarray, family: str | None = None,
              factors: tuple = ()) -> Graph:
    """The Graph on 1..n whose edges (u, v), u < v, key as keys, the
    strictly increasing int64 array of u*(n+1) + v; the one constructor
    every Graph goes through.  It takes keys over, read-only, and refuses
    an unsorted or repeated key or one that is no edge on 1..n, and a
    family label that is not None or a non-empty str."""
    _check_n(n)
    if family is not None and (not isinstance(family, str) or not family):
        raise StructureError(
            "graph family label must be null or a non-empty string")
    if type(keys) is not np.ndarray or keys.dtype != np.int64 \
            or keys.ndim != 1:
        raise StructureError("edge keys must be a 1-d int64 array")
    if len(keys):
        u, v = np.divmod(keys, n + 1)
        # u[0] is the least u once the last test holds
        if u[0] < 1 or (v <= u).any() or (keys[1:] <= keys[:-1]).any():
            raise StructureError(f"edge keys are not sorted distinct edges "
                                 f"of a graph on n={n}")
    keys.flags.writeable = False
    g = object.__new__(Graph)
    g.__dict__.update(n=n, family=family, factors=factors, _keys=keys)
    return g


def _pair_keys(n: int, edges: Iterable) -> np.ndarray:
    """The sorted distinct keys of pairs of plain ints, (u, v) or (v, u),
    with 1 <= u < v <= n, in one pass; the first other pair is refused."""
    keys = []
    try:
        for u, v in edges:
            if not u < v:  # "a" < 2 raises here
                u, v = v, u
            if type(u) is not int or type(v) is not int:  # 1.5 keys as 1
                raise StructureError(
                    f"edge ({u!r},{v!r}) has a non-integer vertex id")
            if not 1 <= u < v <= n:
                raise StructureError(f"self-loop at {u}" if u == v
                                     else f"bad edge ({u},{v}) for n={n}")
            keys.append(u * (n + 1) + v)
    except StructureError:
        raise
    except (TypeError, ValueError) as e:  # not a pair, or not comparable
        raise StructureError(f"malformed edge list: {e}") from e
    keys = np.sort(np.array(keys, np.int64))
    return np.concatenate([keys[:1], keys[1:][keys[1:] != keys[:-1]]])


def graph(n: int, edges: Iterable[tuple[int, int]], family: str | None = None,
          factors: tuple = ()) -> Graph:
    """Graph(n, edges, family, factors): pairs in either order."""
    return Graph(n, edges, family, factors)


def adjacency(g: Graph) -> dict[int, tuple[int, ...]]:
    """Vertex -> sorted tuple of neighbours, cached on g so it dies with g."""
    return g._adjacency


def edge_keys(g: Graph) -> np.ndarray:
    """Sorted u*(n+1) + v over the edges (u, v), u < v: what g holds."""
    return g._keys


def bfs(g: Graph, sources: Sequence[int]
        ) -> tuple[list[int], list[int], list[int]]:
    """Breadth-first search from every (distinct) source at once.

    order lists the reached vertices as visited, the sources first and in
    the order given; neighbours are taken in increasing id.  parent and
    dist are indexed by vertex: parent[v] is the vertex v was reached from
    (0 at a source) and dist[v] the hop count from the nearest source, -1
    when v is unreached.  Slot 0 of both holds 0.
    """
    adj = g._adjacency
    parent, dist = [0] * (g.n + 1), [0] + [-1] * g.n
    order = list(sources)
    for s in order:
        dist[s] = 0
    for v in order:  # order grows as it is read
        d = dist[v] + 1
        for w in adj[v]:
            if dist[w] < 0:
                dist[w], parent[w] = d, v
                order.append(w)
    return order, parent, dist


def is_connected(g: Graph) -> bool:
    return len(bfs(g, [1])[0]) == g.n


def check_connected(g: Graph) -> list[int]:
    """Raise unless g is connected; return bfs(g, [1])'s dist."""
    order, _, dist = bfs(g, [1])
    if len(order) != g.n:
        raise StructureError("graph is not connected")
    return dist


def is_tree(g: Graph) -> bool:
    return len(g._keys) == g.n - 1 and is_connected(g)


def check_tree(g: Graph) -> list[int]:
    """Raise unless g is a tree; return bfs(g, [1])'s dist."""
    if len(g._keys) == g.n - 1:
        order, _, dist = bfs(g, [1])
        if len(order) == g.n:
            return dist
    raise StructureError("graph is not a tree")


def max_degree(g: Graph) -> int:
    adj = adjacency(g)
    return max(len(adj[v]) for v in range(1, g.n + 1))


# ---------------------------------------------------------------------------
# generators


def _path_keys(n: int) -> np.ndarray:
    """The keys of the path's edges (i, i + 1), i*(n + 2) + 1."""
    return np.arange(1, n, dtype=np.int64) * (n + 2) + 1


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ParameterError("path needs n >= 1")
    return from_keys(n, _path_keys(n), family=f"path:{n}")


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ParameterError("cycle needs n >= 3")
    keys = np.insert(_path_keys(n), 1, 2 * n + 1)  # (1, n) after (1, 2)
    return from_keys(n, keys, family=f"cycle:{n}")


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ParameterError("complete graph needs n >= 1")
    u, v = np.triu_indices(n, 1)  # row by row: in key order
    return from_keys(n, (u + 1) * (n + 1) + v + 1, family=f"complete:{n}")


def star_graph(n: int) -> Graph:
    if n < 2:
        raise ParameterError("star needs n >= 2")
    # (1, v) keys as n + 1 + v
    return from_keys(n, np.arange(n + 3, 2 * n + 2, dtype=np.int64),
                     family=f"star:{n}")


def multipartite_graph(p: int, s: int) -> Graph:
    """Complete p-partite graph with p parts of size s each."""
    if p < 2 or s < 1:
        raise ParameterError("multipartite needs p >= 2 parts, size s >= 1")
    n = p * s
    u, v = np.triu_indices(n, 1)  # row by row: in key order
    cross = u // s != v // s
    return from_keys(n, (u[cross] + 1) * (n + 1) + v[cross] + 1,
                     family=f"multipartite:{p},{s}")


def hypercube_graph(dim: int) -> Graph:
    if dim < 1:
        raise ParameterError("hypercube needs dim >= 1")
    n = 1 << dim
    u = np.arange(n)[:, None]
    v = u ^ (1 << np.arange(dim))  # u's neighbours, increasing where v > u
    return from_keys(n, ((u + 1) * (n + 1) + v + 1)[v > u],
                     family=f"hypercube:{dim}")


def mesh_strides(lengths: Sequence[int]) -> list[int]:
    strides = [1] * len(lengths)
    for i in range(len(lengths) - 2, -1, -1):
        strides[i] = strides[i + 1] * lengths[i + 1]
    return strides


def _mesh_vertex(coords: Sequence[int], strides: Sequence[int]) -> int:
    return 1 + sum((c - 1) * s for c, s in zip(coords, strides))


def _mesh_points(lengths: Sequence[int]) -> Iterable[tuple[int, ...]]:
    """The coordinates of vertices 1, 2, ... of the mesh, in vertex order."""
    return product(*(range(1, L + 1) for L in lengths))


def _mesh_keys(lengths: Sequence[int], n: int, off: int = 0) -> np.ndarray:
    """Keys on n vertices of the mesh edges, axis by axis, every vertex id
    shifted by off: the neighbour one step along axis i is v + strides[i],
    and (v, v + s) keys as v*(n + 2) + s."""
    idx = np.arange(math.prod(lengths))  # vertex off + 1 + idx
    return np.concatenate([(idx[idx // s % L < L - 1] + off + 1) * (n + 2) + s
                           for L, s in zip(lengths, mesh_strides(lengths))])


def mesh_graph(lengths: Sequence[int]) -> Graph:
    lengths = tuple(int(x) for x in lengths)
    if not lengths or any(x < 1 for x in lengths):
        raise ParameterError("mesh needs positive side lengths")
    fam = "mesh:" + ",".join(str(x) for x in lengths)
    n = math.prod(lengths)
    return from_keys(n, np.sort(_mesh_keys(lengths, n)), family=fam)


def random_tree(n: int, seed: int = 0) -> Graph:
    """Uniform labeled tree from a seeded Pruefer sequence."""
    if n < 1:
        raise ParameterError("tree needs n >= 1")
    fam = f"random_tree:{n},{seed}"
    if n == 1:
        return graph(1, [], family=fam)
    rng = random.Random(seed)
    seq = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    degree = {v: 1 for v in range(1, n + 1)}
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    es = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        es.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    es.append((u, w))
    return graph(n, es, family=fam)


# ---------------------------------------------------------------------------
# pyramids and multigrids


class PyramidInfo:
    """Level bookkeeping shared by pyramid and multigrid families.

    Level l (0-based from the apex) is a d-dimensional mesh of side 2^l
    with n_l = 2^(l*d) vertices.  Vertices are numbered level-major; the
    in-level numbering is the mesh numbering above.  level[v] is the level
    of vertex v, and child[v] its child with all-odd local coordinates (the
    kept multigrid edge), 0 on the bottom level.
    """

    def __init__(self, m: int, d: int):
        if m < 1 or d < 1:
            raise ParameterError("pyramid needs m >= 1, d >= 1")
        self.m = m
        self.d = d
        self.level_sizes = [1 << (l * d) for l in range(m)]
        self.level_offsets = [0]
        for s in self.level_sizes[:-1]:
            self.level_offsets.append(self.level_offsets[-1] + s)
        self.n = sum(self.level_sizes)
        self.level_strides = [mesh_strides(self.lengths(l)) for l in range(m)]
        self.level = [0]
        self.child = [0] * (self.n + 1)
        for l, size in enumerate(self.level_sizes):
            self.level += [l] * size
            if l < m - 1:
                off = self.level_offsets[l]
                for v, c in enumerate(_mesh_points(self.lengths(l)), off + 1):
                    self.child[v] = self.vertex(l + 1, [2 * x - 1 for x in c])

    def lengths(self, level: int) -> tuple[int, ...]:
        return (1 << level,) * self.d

    def vertex(self, level: int, coords: Sequence[int]) -> int:
        return self.level_offsets[level] + _mesh_vertex(
            coords, self.level_strides[level])

    def level_vertices(self, level: int) -> list[int]:
        off = self.level_offsets[level]
        return list(range(off + 1, off + self.level_sizes[level] + 1))

    def vertical_paths(self) -> list[list[int]]:
        """Maximal vertical paths of the multigrid, as vertex lists top-down.

        Each vertex lies on exactly one path: one starts at every vertex
        that is no vertex's child, in increasing id, and follows child down
        to the bottom level.
        """
        children = set(self.child)
        paths = []
        for v in range(1, self.n + 1):
            if v not in children:
                p = [v]
                while self.child[p[-1]]:
                    p.append(self.child[p[-1]])
                paths.append(p)
        return paths


def _pyramid_keys(info: PyramidInfo, all_children: bool) -> np.ndarray:
    """Sorted keys of every level's mesh edges and of the parent edges: the
    child at 0-based coordinates c hangs from c // 2 one level up, and with
    all_children false only the child with all c even (all-odd 1-based)."""
    n, keys = info.n, []
    for l in range(info.m):
        off = info.level_offsets[l]
        keys.append(_mesh_keys(info.lengths(l), n, off))
        if l > 0:
            idx = np.arange(info.level_sizes[l])
            coords = idx[:, None] // info.level_strides[l] % (1 << l)
            if not all_children:
                keep = (coords % 2 == 0).all(1)
                idx, coords = idx[keep], coords[keep]
            up = info.level_offsets[l - 1] + 1 + (
                coords // 2 * info.level_strides[l - 1]).sum(1)
            keys.append(up * (n + 1) + off + 1 + idx)
    return np.sort(np.concatenate(keys))


def pyramid_graph(m: int, d: int) -> Graph:
    info = PyramidInfo(m, d)
    return from_keys(info.n, _pyramid_keys(info, all_children=True),
                     family=f"pyramid:{m},{d}")


def multigrid_graph(m: int, d: int) -> Graph:
    info = PyramidInfo(m, d)
    return from_keys(info.n, _pyramid_keys(info, all_children=False),
                     family=f"multigrid:{m},{d}")


# ---------------------------------------------------------------------------
# cartesian product


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian product; vertex (a, b) gets id (a-1)*|g2| + b."""
    n1, n2 = g1.n, g2.n
    n = n1 * n2
    u1, v1 = np.divmod(g1._keys, n1 + 1)
    u2, v2 = np.divmod(g2._keys, n2 + 1)
    row = np.arange(n1)[:, None] * n2  # g2's edges in every copy a
    col = np.arange(1, n2 + 1)  # g1's edges in every copy b
    us = np.append(row + u2, (u1[:, None] - 1) * n2 + col)
    vs = np.append(row + v2, (v1[:, None] - 1) * n2 + col)
    return from_keys(n, np.sort(us * (n + 1) + vs), family="product",
                     factors=(g1, g2))


# ---------------------------------------------------------------------------
# family spec parsing


_FAMILIES = {
    "path": (path_graph, 1),
    "cycle": (cycle_graph, 1),
    "complete": (complete_graph, 1),
    "star": (star_graph, 1),
    "multipartite": (multipartite_graph, 2),
    "hypercube": (hypercube_graph, 1),
    "random_tree": (random_tree, 2),
    "pyramid": (pyramid_graph, 2),
    "multigrid": (multigrid_graph, 2),
    "mesh": (lambda *lengths: mesh_graph(lengths), None),  # any axis count
}


def _parse_spec(spec: str) -> tuple[str, list[int]]:
    name, _, rest = spec.partition(":")
    try:
        ints = [int(a) for a in rest.split(",") if a.strip()]
    except ValueError as e:
        raise ParameterError(f"non-integer parameter in {spec!r}") from e
    if name.strip() == "random_tree" and len(ints) == 1:
        ints.append(0)  # the seed defaults to 0
    return name.strip(), ints


GENERATE_CAP = 1 << 20  # vertices plus edges of one generated graph


def generate(spec: str) -> Graph:
    """Build a graph from a family spec string like "mesh:3,3".

    A spec with more than GENERATE_CAP vertices plus edges is refused with
    CapError before anything is built.
    """
    name, ints = _parse_spec(spec)
    if name not in _FAMILIES:
        raise ParameterError(f"unknown family {name!r}")
    shape = _spec_shape(name, ints, GENERATE_CAP)
    if shape is not None and sum(shape) > GENERATE_CAP:
        raise CapError(f"graph {spec!r} has more than {GENERATE_CAP} "
                       f"vertices plus edges")
    fn, arity = _FAMILIES[name]
    if arity is not None and len(ints) != arity:
        raise ParameterError(f"family {name!r} takes {arity} parameter(s)")
    return fn(*ints)


def _spec_shape(name: str, ints: list[int], cap: int) -> tuple[int, int] | None:
    """(vertices, edges) of the generator spec name:ints, in closed form.

    A spec with more than cap vertices may read (cap + 1, 0): no power
    above 2 cap is built, so a label like hypercube:40 costs nothing.  None
    when the arity is wrong or a size is below 1; generate names the fault.
    """
    sizes = ints[:1] if name == "random_tree" else ints
    arity = _FAMILIES[name][1]
    if (arity is not None and len(ints) != arity) or not sizes \
            or min(sizes) < 1:
        return None
    if name in ("hypercube", "pyramid", "multigrid"):
        dim = ints[0] if name == "hypercube" else (ints[0] - 1) * ints[1]
        if dim > cap.bit_length():
            return (cap + 1, 0)
    if name == "hypercube":
        return 1 << ints[0], ints[0] << (ints[0] - 1)
    if name in ("pyramid", "multigrid"):
        m, d = ints
        sides = [1 << l for l in range(m)]
        n = sum(k ** d for k in sides)
        mesh_edges = sum(d * (k - 1) * k ** (d - 1) for k in sides)
        parents = n - 1 if name == "pyramid" else n - sides[-1] ** d
        return n, mesh_edges + parents
    if name == "mesh":
        n = math.prod(ints)
        return n, sum((k - 1) * (n // k) for k in ints)
    if name == "multipartite":
        p, size = ints
        return p * size, p * size * (p * size - size) // 2
    n = ints[0]
    return n, {"cycle": n, "complete": n * (n - 1) // 2}.get(name, n - 1)


def family_of(g: Graph) -> tuple[str | None, tuple[int, ...]]:
    """The family whose sorter and router serve g, with its parameters.

    Structure decides before the label: the path 1-2-..-n is ("path", (n,))
    and a graph with all n(n-1)/2 edges is ("complete", (n,)).  Otherwise a
    generator label gives its spec ("mesh:3,3" is ("mesh", (3, 3))), and
    "product" counts only with both in-memory factors.  Anything else,
    "tree-of-..." labels included, is (None, ()).  Cached on g, like its
    adjacency: the planners ask it of the same factor graphs many times.
    """
    return g._family


# ---------------------------------------------------------------------------
# trees: spanning tree, diameter path, contour


def _sweep_path(g: Graph, dist: list[int]) -> list[int]:
    """Double sweep: u farthest from 1 by dist, the BFS hop counts from 1,
    w farthest from u, and the u..w path of BFS parents from u (smallest
    ids on ties); in a tree it is a longest path."""
    u = dist.index(max(dist), 1)
    _, parent, dist = bfs(g, [u])
    w = dist.index(max(dist), 1)
    path = [w]
    while path[-1] != u:
        path.append(parent[path[-1]])
    return path[::-1]


def spanning_tree(g: Graph) -> Graph:
    """Spanning tree grown around a longest BFS-to-BFS path.

    Double sweep: BFS from 1 picks the farthest vertex u, BFS from u
    picks w; the u..w shortest path seeds the tree and the rest of the
    graph is attached by BFS from the path.
    """
    dist = check_connected(g)
    if g.n == 1:
        return graph(1, [], family=g.family and f"tree-of-{g.family}")
    path = _sweep_path(g, dist)
    order, parent, _ = bfs(g, path)
    # g passed check_connected: no input reaches this
    assert len(order) == g.n
    return graph(g.n, list(zip(path, path[1:]))
                 + [(parent[x], x) for x in order[len(path):]])


def tree_diameter_path(t: Graph) -> list[int]:
    """Vertex list of a longest path in the tree (double BFS, cached on t)."""
    return list(path_projection(t).path)


class PathProjection(NamedTuple):
    """A tree seen from its diameter path.

    path is the diameter path; for every vertex v, anchor[v] is the index
    in path of the path vertex nearest v, height[v] the distance to it and
    up[v] the neighbour of v one step nearer (0 on the path).  The tree
    path from v to path[j] climbs to path[anchor[v]] and then runs along
    the path, so its length is height[v] + |anchor[v] - j|.
    """

    path: tuple[int, ...]
    anchor: tuple[int, ...]
    height: tuple[int, ...]
    up: tuple[int, ...]


def path_projection(t: Graph) -> PathProjection:
    """The tree's PathProjection: one BFS from the whole diameter path,
    made, with the tree check, on the first call and cached on t, like
    its adjacency."""
    return t._path_projection


@dataclass(frozen=True)
class Contour:
    """Closed DFS walk of a tree plus the theorem's vertex marks.

    walk has 2n-1 entries, starts and ends at the root, and crosses every
    tree edge exactly twice.  Each vertex owns one marked position: its
    first walk occurrence when its distance from the root is even, its
    last occurrence when odd.  Consecutive marks are at most 3 apart.
    """

    root: int
    walk: tuple
    marks: dict  # vertex -> walk index


def tree_contour(t: Graph) -> Contour:
    """The Contour of t rooted at vertex 1."""
    dist = check_tree(t)
    adj = adjacency(t)
    walk = [1]
    stack = [(1, iter(adj[1]))]
    while stack:
        v, it = stack[-1]
        advanced = False
        for w in it:
            if dist[w] > dist[v]:  # a child; the parent is nearer 1
                walk.append(w)
                stack.append((w, iter(adj[w])))
                advanced = True
                break
        if not advanced:
            stack.pop()
            if stack:
                walk.append(stack[-1][0])
    # the walk steps down and back up each of the n - 1 tree edges once:
    # no input reaches this
    assert len(walk) == 2 * t.n - 1
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, v in enumerate(walk):
        first.setdefault(v, i)
        last[v] = i
    marks = {v: (first[v] if dist[v] % 2 == 0 else last[v])
             for v in range(1, t.n + 1)}
    # each walk step lands on one vertex, and the first and last visits of
    # a vertex are its own steps: no input reaches this
    assert len(set(marks.values())) == t.n
    return Contour(root=1, walk=tuple(walk), marks=marks)


# ---------------------------------------------------------------------------
# matchings


def maximal_matching(g: Graph) -> list[tuple[int, int]]:
    """Greedy maximal matching over lexicographically sorted edges."""
    used: set[int] = set()
    out = []
    for u, v in g.sorted_edges():
        if u not in used and v not in used:
            out.append((u, v))
            used.add(u)
            used.add(v)
    return out


# ---------------------------------------------------------------------------
# serialization


def graph_doc(g: Graph, order: Sequence[int] | None = None) -> dict:
    return {
        "n": g.n,
        "edges": g.sorted_edges(),  # json.dumps writes tuples as arrays
        "family": g.family,
        "order": list(order) if order is not None else None,
    }


def graph_from_doc(doc) -> Graph:
    """Read a graph document; a generator label must reproduce the graph.

    n and the ids must be plain ints, each edge a [u, v] pair in either
    orientation, and each key one that graph_doc writes; the pairs are
    keyed once, in numpy.  A document with more than GENERATE_CAP vertices
    plus edges is refused with CapError before anything is built, as
    generate refuses such a spec.

    Labels drive sorter and router dispatch, so one naming a generator
    family is checked: its closed-form size must be the document's, then
    it is generated once and its keys must be the document's, and that
    graph is returned, relabelled when the label is written another way
    ("random_tree:17" for "random_tree:17,0").  Other non-empty string
    labels ("product", "tree-of-...") pass through; they drive no dispatch
    without in-memory factors.  Any other fault, a label that is neither
    null nor a non-empty string and a generator label that is no valid
    spec among them, is malformed input and raises StructureError.
    """
    try:
        n, edges = doc["n"], list(doc["edges"])
        ids = list(chain.from_iterable(edges))
        if type(n) is not int or not {int}.issuperset(map(type, ids)):
            raise StructureError("graph JSON n and vertex ids must be integers")
        if not {2}.issuperset(map(len, edges)):
            raise StructureError("graph JSON edges must be [u, v] pairs")
        if n + len(edges) > GENERATE_CAP:
            raise CapError(f"graph JSON has more than {GENERATE_CAP} "
                           f"vertices plus edges")
        unknown = sorted(set(doc) - {"edges", "family", "n", "order"})
        if unknown:
            raise StructureError(
                f"graph JSON has an unknown key {unknown[0]!r}")
        _check_n(n)
        keys = _doc_keys(n, edges, ids)
        label = doc.get("family")
        # from_keys refuses a label that is not null or a non-empty string
        name = label.partition(":")[0] if isinstance(label, str) else None
    except KeyError as e:
        raise StructureError(f"graph JSON missing {e}") from e
    except (TypeError, AttributeError, ParameterError) as e:
        raise StructureError(f"malformed graph JSON: {e}") from e
    if name not in _FAMILIES:
        return from_keys(n, keys, label)
    try:  # compare sizes first: generating a huge label costs its size
        shape = _spec_shape(*_parse_spec(label), n)
        made = generate(label) if shape in (None, (n, len(keys))) else None
    except ParameterError as e:  # "path:x", "mesh:0": not a spec
        raise StructureError(f"bad family label {label!r}: {e}") from e
    if made is None or not np.array_equal(keys, made._keys):
        raise StructureError(
            f"graph does not match its family label {label!r}")
    return made if made.family == label else from_keys(n, made._keys, label)


def _doc_keys(n: int, edges: list, ids: list) -> np.ndarray:
    """The sorted distinct keys of a document's [u, v] pairs of plain ints,
    ids flattened; on a fault (an id outside 1..n, a self-loop) _pair_keys
    keys them again, to name the first bad pair."""
    try:
        uv = np.fromiter(ids, np.int64, len(ids))
    except OverflowError:  # an id past int64
        return _pair_keys(n, edges)
    u, v = uv[0::2], uv[1::2]
    if (u > v).any():
        u, v = np.minimum(u, v), np.maximum(u, v)
    if len(u) and (u.min() < 1 or v.max() > n or (u == v).any()):
        return _pair_keys(n, edges)
    keys = u * (n + 1) + v
    if (keys[1:] <= keys[:-1]).any():
        keys = np.unique(keys)
    return keys


def dumps(doc) -> str:
    """doc as every writer puts it out.  The writers' documents are trees
    they build, so json's circular check is skipped (a hand-made cycle
    raises RecursionError)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      check_circular=False)


def loads(text: str, what: str):
    """json.loads, with what it refuses raised as "bad {what} JSON"."""
    try:
        return json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an int past 4300 digits
        raise StructureError(f"bad {what} JSON: {e}") from e
    except RecursionError:
        raise StructureError(f"bad {what} JSON: nested too deeply") from None


def to_json(g: Graph, order: Sequence[int] | None = None) -> str:
    return dumps(graph_doc(g, order))


def from_json(text: str) -> tuple[Graph, list[int] | None]:
    doc = loads(text, "graph")
    g = graph_from_doc(doc)
    order = doc.get("order")
    if order is not None and (type(order) is not list
                              or not {int}.issuperset(map(type, order))):
        raise StructureError("graph JSON order must be a list of integers")
    return g, order


def to_dot(g: Graph) -> str:
    lines = ["graph G {"]
    for v in range(1, g.n + 1):
        lines.append(f"  {v};")
    for u, v in g.sorted_edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
