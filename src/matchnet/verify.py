"""Verification of networks and exact brute-force oracles.

Verification methods, each running the stages through the shared kernel
network.run_stages (one column per vertex) with its own compare-exchange:

- verify_zero_one: all 2^n binary inputs at once, one big-int bitmask per
  vertex (bit x of mask v = value at v on input x).  A comparator is one
  AND plus one OR; the sortedness test is an implication check between
  consecutive ranks.  Sound and complete for sorting by the 0-1 principle.
- verify_exhaustive: all n! distinct-key inputs, built in numpy in
  lexicographic order, one numpy column per vertex (entry i = value on
  input i), compared with np.minimum and np.maximum; a swap exchanges two
  column references.  n >= 11 is refused whatever the cap
  (EXHAUSTIVE_LIMIT).
- verify_random: the same columns over seeded blocks of permutations and
  of keys with repeats, drawn RANDOM_CHUNK rows at a time; consecutive
  draws that fit in RANDOM_CHUNK rows together run as one pass.

Oracles (small n, exact), each a layered BFS whose states are unsigned
integer keys.  A layer is expanded CHUNK candidates at a time (CHUNK is a
fixed module constant, so no (layer x moves) block is built whole) and
deduplicated by one step, _fresh: sort the chunk, keep the first of each
run of equal states, drop those found by np.searchsorted in the sorted
array of visited states, and merge the rest into it.

- exact_rt / exact_rt_partial / exact_rt_p: one BFS over pebble
  arrangements (at[v-1] = pebble on v, 0 for an untracked pebble) where
  one move applies any matching of the graph as parallel swaps.  An
  arrangement is packed 4 bits per vertex, vertex 1 highest, so integer
  order is tuple order; one integer product with a move table built once
  per graph gives a chunk's candidates under every matching.  Each
  candidate carries its generation index in the low bits, so the same
  sort finds its first discoverer: discovery order, parents and the
  early stop at a target are those of a plain state-by-state BFS.  The
  partial oracles start it from the arrangements of every A at once and
  read each assignment's distance.  n >= 10 is refused whatever the cap
  (RT_LIMIT).
- exact_st: BFS over network prefixes.  Two prefixes are interchangeable
  when they have the same image set on binary inputs (any suffix sorts
  one iff it sorts the other), so the state is the set of reachable 0-1
  configurations, packed as a bitmask over the 2^n possible configs.  A
  prefix sorts toward pi iff its image set lies inside the n+1 pi-sorted
  configs, and since every image set keeps a config of each weight, iff
  it equals them: each sorted layer is searched for all pending orders
  at once.  One BFS therefore answers st(G, pi) for every pi; the stages
  act through byte lookup tables built with numpy over the 2^n
  configurations, stage index innermost, so each mask byte gathers its
  images under every stage as one contiguous row.  The mask's word is
  chosen from n in one place, _st_word: np.uint32 while the 2^n configs
  fit in 32 bits (n <= 5), np.uint64 for n = 6.  The tables, layers,
  visited array and target masks all use it, so for n <= 5 each lookup
  gathers and each sort moves half the bytes.  The rt keys stay uint64:
  4 bits for each of up to RT_LIMIT vertices plus the 28 bits of a
  candidate's index.
- sandwich_check: one st BFS for all orders (st(G) is the minimum) and
  one rt BFS.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from . import graphs, network, perms
from .errors import CapError, ConstructionError, ParameterError, TaskError

ZERO_ONE_CAP = 20
EXHAUSTIVE_CAP = 8
EXHAUSTIVE_LIMIT = 10  # all n! inputs at once: ~0.6 GB at n = 10, 11x that at 11
RANDOM_DEFAULT_TRIALS = 200_000  # half permutations, half repeat-valued
RANDOM_CHUNK = 50_000  # most random inputs drawn, or simulated, at once
RT_CAP = 8
RT_PARTIAL_CAP = 7
RT_LIMIT = 9  # the arrangement BFS holds up to n! states: 9! = 362,880
ST_CAP = 5
ST_WORD_LIMIT = 6  # an st image set has 2^n bits: one 64-bit word up to n = 6
CHUNK = 1 << 18  # BFS candidates (states x moves, or stage images) made at once


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
    """Which rows of the input block (rows = inputs) the network sorts.

    The kernel only rebinds columns, so arr is never written to.
    """
    cols = network.run_stages(net.stages, list(np.ascontiguousarray(arr.T)),
                              lambda a, b: (np.minimum(a, b), np.maximum(a, b)))
    ranked = [cols[v - 1] for v in perms.inverse(net.order)]
    ok = np.ones(len(arr), dtype=bool)
    for lo, hi in zip(ranked, ranked[1:]):
        ok &= lo <= hi
    return ok


def _lex_block(n: int) -> np.ndarray:
    """All n! permutations of 1..n as the columns of an (n, n!) int16 array,
    in lexicographic order (the order of itertools.permutations).

    Built from the block for n - 1 (Knuth, TAOCP 4A, 7.2.1.2): the columns
    starting with f are f above that block with every entry >= f raised by
    one.
    """
    block = np.ones((1, 1), dtype=np.int16)
    for k in range(2, n + 1):
        prev, size = block, block.shape[1]
        block = np.empty((k, k * size), dtype=np.int16)
        for f in range(1, k + 1):
            part = block[:, (f - 1) * size:f * size]
            part[0] = f
            np.add(prev, prev >= f, out=part[1:])
    return block


def verify_exhaustive(net: network.SortingNetwork, cap: int | None = None) -> VerificationReport:
    n = net.graph.n
    _check_cap(n, cap, EXHAUSTIVE_CAP, "exhaustive verification", EXHAUSTIVE_LIMIT)
    inputs = _lex_block(n).T  # row i: the i-th permutation
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
    Fewer than one trial checks nothing and is refused with ParameterError.
    """
    if trials < 1:
        raise ParameterError(f"random verification needs trials >= 1, "
                             f"not {trials}")
    checked = 0
    for arr in _random_blocks(np.random.default_rng(seed), net.graph.n, trials):
        ok = _sorted_rows(net, arr)
        if not ok.all():
            i = int(np.argmin(ok))
            return VerificationReport(
                passed=False, method="random",
                inputs_checked=checked + i + 1,
                counterexample=tuple(int(x) for x in arr[i]),
                detail="random input left unsorted")
        checked += len(arr)
    return VerificationReport(passed=True, method="random",
                              inputs_checked=trials)


def _random_blocks(rng, n: int, trials: int):
    """verify_random's inputs in draw order: trials // 2 permutations, then
    keys in 0..n with repeats, drawn at most RANDOM_CHUNK rows at a time.
    Consecutive draws are yielded as one block while they fit in
    RANDOM_CHUNK rows, so 1024 trials take one kernel pass, not two."""
    half = trials // 2
    group, size = [], 0
    for perm, count in ((True, half), (False, trials - half)):
        for done in range(0, count, RANDOM_CHUNK):
            rows = min(RANDOM_CHUNK, count - done)
            if size + rows > RANDOM_CHUNK:
                yield group[0] if len(group) == 1 else np.concatenate(group)
                group, size = [], 0
            if perm:
                arr = np.tile(np.arange(1, n + 1, dtype=np.int32), (rows, 1))
                group.append(rng.permuted(arr, axis=1))
            else:
                group.append(rng.integers(0, n + 1, size=(rows, n),
                                          dtype=np.int32))
            size += rows
    if group:
        yield group[0] if len(group) == 1 else np.concatenate(group)


def verify_auto(net: network.SortingNetwork, cap: int | None = None) -> VerificationReport:
    """Exhaustive when n is small enough, 0-1 otherwise."""
    if net.graph.n <= EXHAUSTIVE_CAP:
        return verify_exhaustive(net)
    return verify_zero_one(net, cap=cap)


# ---------------------------------------------------------------------------
# matchings as routing moves


def all_matchings(g: graphs.Graph) -> list[tuple]:
    """Every nonempty matching of g (order deterministic), a list of its own;
    the matchings are enumerated once per graph and cached on it."""
    return list(g._matchings)


# ---------------------------------------------------------------------------
# layered BFS: one sort-deduplication step for the rt and st searches


def _fresh(cand: np.ndarray, visited: np.ndarray,
           shift: np.uint64 | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sort-deduplicate one chunk of BFS candidates against visited.

    A candidate's state is cand >> shift; visited holds the states seen so
    far, sorted.  Returns the candidates whose state is new, sorted, one per
    state (the smallest, so the one with the smallest low bits), and visited
    merged with their states.
    """
    cand = np.sort(cand)
    states = cand >> shift if shift else cand
    first = np.empty(len(cand), dtype=bool)
    first[:1] = True
    np.not_equal(states[1:], states[:-1], out=first[1:])
    cand = cand[first]
    states = cand >> shift if shift else cand
    fresh = cand[visited.take(visited.searchsorted(states), mode="clip") != states]
    merged = np.concatenate((visited, fresh >> shift if shift else fresh))
    merged.sort(kind="stable")  # two sorted runs: a linear merge
    return fresh, merged


# ---------------------------------------------------------------------------
# exact routing numbers


class _RtMoves(NamedTuple):
    """The matchings of a graph as moves on packed arrangements.

    An arrangement at (at[v-1] = pebble on v, 0 for an untracked pebble) is
    packed as the sum of at[v-1] << 4 (n - v): vertex 1 in the highest bits,
    so integer order is tuple order.  A matching sends the pebble on u to
    its partner, so the packed images of a batch of unpacked arrangements
    under every matching are one product with weights[u-1, m] =
    16^(n - partner_m(u)), shifted past the _RT_INDEX_BITS low bits that
    hold a candidate's generation index.
    """
    matchings: list
    weights: np.ndarray  # (n, matchings) uint64
    shifts: np.ndarray  # (n,) uint64: 4 (n - v)


# a candidate's index in its chunk is below max(CHUNK, matchings) < 2^28
_RT_INDEX_BITS = 64 - 4 * RT_LIMIT
_RT_INDEX_MASK = np.uint64((1 << _RT_INDEX_BITS) - 1)
_RT_SHIFT = np.uint64(_RT_INDEX_BITS)
_NIBBLE = np.uint64(0xF)


def _rt_moves(g: graphs.Graph) -> _RtMoves:
    """The move table of g, built once per graph."""
    if g.n > RT_LIMIT:
        raise ConstructionError(
            f"packed arrangements hold at most {RT_LIMIT} vertices, not {g.n}")
    n = g.n
    matchings = all_matchings(g)
    bit = [4 * (n - v) + _RT_INDEX_BITS for v in range(1, n + 1)]
    dests = []
    for m in matchings:
        dest = list(range(n))
        for u, v in m:
            dest[u - 1], dest[v - 1] = v - 1, u - 1
        dests.append(dest)
    weights = [[1 << bit[dest[u]] for dest in dests] for u in range(n)]
    return _RtMoves(matchings, np.array(weights, dtype=np.uint64),
                    np.arange(4 * (n - 1), -1, -4, dtype=np.uint64))


def _rt_pack(at) -> int:
    return sum(p << 4 * (len(at) - v) for v, p in enumerate(at, 1))


def _placed(n: int, pebbles: tuple, spots: tuple) -> tuple:
    """Arrangement with pebble pebbles[i] on vertex spots[i], 0 elsewhere."""
    at = [0] * n
    for p, v in zip(pebbles, spots):
        at[v - 1] = p
    return tuple(at)


def _rt_bfs(moves: _RtMoves, starts: list, stop_at: tuple | None = None):
    """BFS from the arrangements starts over packed arrangements where one
    move swaps along every edge of a matching.

    Returns the layers, layer d a pair (codes, gen): the packed states at
    distance d in discovery order (frontier state by frontier state, each
    through the matchings in order), and for each the generation index
    p * matchings + m of its first discovery, from state p of layer d - 1
    through matching m.  A layer is expanded CHUNK candidates at a time; a
    candidate carries its index in its low bits, so one sort both
    deduplicates and finds the first discoverer.  The search stops as soon
    as it discovers stop_at, which then ends the last layer, or once it
    holds every state: a start with k tracked pebbles reaches at most the
    n!/(n-k)! placements of them.
    """
    n, width = moves.weights.shape
    frontier = np.array([_rt_pack(s) for s in starts], dtype=np.uint64)
    stop = None if stop_at is None else _rt_pack(stop_at)
    bound = sum(math.perm(n, sum(p > 0 for p in s)) for s in starts)
    layers = [(frontier, None)]  # the starts have no discoverer
    visited = np.sort(frontier)
    rows = max(1, CHUNK // max(width, 1))
    hit = ()
    while len(visited) < bound and not len(hit):
        found = []
        for r0 in range(0, len(frontier), rows):
            at = (frontier[r0:r0 + rows, None] >> moves.shifts) & _NIBBLE
            cand = (at @ moves.weights).ravel()
            cand |= np.arange(len(cand), dtype=np.uint64)
            fresh, visited = _fresh(cand, visited, _RT_SHIFT)
            gen = np.sort(fresh & _RT_INDEX_MASK)
            codes = cand[gen] >> _RT_SHIFT
            if stop is not None:
                hit = np.flatnonzero(codes == stop)[:1]
                if len(hit):
                    gen, codes = gen[:hit[0] + 1], codes[:hit[0] + 1]
            found.append((codes, gen + np.uint64(r0 * width) if r0 else gen))
            if len(hit):
                break
        frontier, gen = found[0] if len(found) == 1 else \
            (np.concatenate(part) for part in zip(*found))
        if not len(frontier):
            break
        layers.append((frontier, gen))
    return layers


def exact_rt(g: graphs.Graph, pi=None, cap: int | None = None) -> OracleResult:
    """rt(G, pi), or rt(G) = max over pi when pi is None."""
    graphs.check_connected(g)
    _check_cap(g.n, cap, RT_CAP, "exact rt", RT_LIMIT)
    moves = _rt_moves(g)
    start = perms.identity(g.n)
    if pi is not None:
        pi = perms.check_permutation(pi, g.n)
        target = perms.inverse(pi)  # at[pi(v)-1] = v
        layers = _rt_bfs(moves, [start], stop_at=target)
        d, i = len(layers) - 1, len(layers[-1][0]) - 1
        if target == start:  # never discovered: the search runs to the end
            d = i = 0
        elif int(layers[d][0][i]) != _rt_pack(target):
            raise TaskError("target arrangement unreachable (graph disconnected?)")
        stages = []
        for _, gen in layers[d:0:-1]:  # back along first discoverers
            i, m = divmod(int(gen[i]), len(moves.matchings))
            stages.append([(u, v, network.SWAP) for u, v in moves.matchings[m]])
        plan = network.make_plan(g, stages[::-1])
        if plan.realized != pi:
            raise ConstructionError("rt BFS bookkeeping broken: witness misses pi")
        return OracleResult(value=d, witness=plan,
                            explored=sum(len(c) for c, _ in layers))
    layers = _rt_bfs(moves, [start])
    explored = sum(len(c) for c, _ in layers)
    if explored != math.factorial(g.n):
        raise TaskError("arrangement space not fully reachable")
    last = min(layers[-1][0].tolist())
    arg = tuple((last >> 4 * (g.n - v)) & 0xF for v in range(1, g.n + 1))
    return OracleResult(value=len(layers) - 1, witness=perms.inverse(arg),
                        explored=explored,
                        detail="witness is a hardest target permutation")


def _rt_worst(g: graphs.Graph, tasks: list) -> tuple[list, int]:
    """The worst bijection A -> B of each task (A, B), A and B sorted, the
    pebbles named after their sources in A and every other pebble untracked.

    One BFS starts from the arrangements of every A at once: pebble names
    never change, so each start explores its own states.  Returns, per
    task, the worst distance and its map, the first in
    itertools.permutations(B) order among ties; then the states explored.
    """
    moves = _rt_moves(g)
    layers = _rt_bfs(moves, [_placed(g.n, A, A) for A, _ in tasks])
    codes = np.concatenate([c for c, _ in layers])
    dist = np.repeat(np.arange(len(layers)), [len(c) for c, _ in layers])
    order = np.argsort(codes)
    codes, dist = codes[order], dist[order]
    out = []
    for A, B in tasks:
        spots = np.array(B)[_lex_block(len(B)) - 1]  # column j: j-th bijection
        place = np.uint64(1) << moves.shifts[spots - 1]
        wanted = np.array(A, dtype=np.uint64) @ place  # packed arrangements
        pos = codes.searchsorted(wanted)
        if (codes.take(pos, mode="clip") != wanted).any():
            raise TaskError("assignment unreachable (graph disconnected?)")
        j = int(np.argmax(dist[pos]))
        out.append((int(dist[pos[j]]), dict(zip(A, map(int, spots[:, j])))))
    return out, len(codes)


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
    [(worst, worst_map)], explored = _rt_worst(g, [(A, B)])
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
    sources = [A for k in range(1, min(p, g.n) + 1)
               for A in itertools.combinations(range(1, g.n + 1), k)]
    worst, explored = _rt_worst(g, [(A, A) for A in sources])
    best, witness = 0, None
    for A, (steps, worst_map) in zip(sources, worst):
        if steps > best:
            best, witness = steps, (A, worst_map)
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


def _st_word(n: int) -> type:
    """The integer type of an st image-set mask over the 2^n configurations:
    np.uint32 while they fit in 32 bits, np.uint64 up to ST_WORD_LIMIT.

    Constants mixed with these masks are Python ints or this type: under
    NEP 50 an np.uint64 scalar would widen a uint32 array to 64 bits.
    """
    return np.uint32 if 1 << n <= 32 else np.uint64


def _stage_luts(stages: list[tuple], n: int) -> np.ndarray:
    """Byte-indexed OR-image tables, luts[byte, value, stage], C-contiguous,
    in the word of n.

    luts[bp, b, s] is the OR of the images under stage s of the configs
    8 bp + i for every set bit i of b, so a mask's image under s is the OR
    over its bytes of luts[bp, byte_bp, s].  The stage index is innermost:
    one mask byte selects a whole contiguous row, its images under every
    stage.
    """
    word = _st_word(n)
    size = 1 << n
    nbytes = (size + 7) // 8
    cfgs = np.arange(size, dtype=word)
    place = cfgs[:n, None]  # bit b of a config is vertex b + 1
    bits = (cfgs >> place) & 1
    cols = np.array([network.run_stages((stage,), list(bits), _and_or)
                     for stage in stages], dtype=word)
    cols = cols.reshape(len(stages), n, size)  # [stage, vertex, config]
    img = np.zeros((nbytes * 8, len(stages)), dtype=word)
    img[:size] = (word(1) << (cols << place).sum(axis=1, dtype=word)).T
    img = img.reshape(nbytes, 2, 4, len(stages))  # low and high nibble
    nib = np.zeros((nbytes, 2, 16, len(stages)), dtype=word)
    for bit in range(4):  # nibbles with top bit `bit` extend those below it
        nib[:, :, 1 << bit:2 << bit] = nib[:, :, :1 << bit] | img[:, :, bit, None]
    luts = nib[:, 1, :, None] | nib[:, 0, None, :]  # byte = 16 hi + lo
    return luts.reshape(nbytes, 256, len(stages))


def _sort_targets(n: int, pi: tuple | None = None) -> dict:
    """order -> mask of its n+1 sorted configs (the top k ranks hold 1s),
    for pi alone or, when pi is None, for every order in
    perms.all_permutations order.  Each call gets a dict of its own."""
    targets = dict(zip(*_all_order_masks(n)))
    return targets if pi is None else {pi: targets[pi]}


@cache  # made once per n in one array pass; n <= ST_WORD_LIMIT, 720 orders
def _all_order_masks(n: int) -> tuple[tuple, tuple]:
    orders = tuple(perms.all_permutations(n))
    by_rank = np.argsort(orders, axis=1)[:, ::-1]  # vertex - 1, rank n first
    cfgs = np.cumsum(np.left_shift(1, by_rank), axis=1)  # top k ranks hold 1s
    bits = np.left_shift(np.uint64(1), cfgs.astype(np.uint64))
    return orders, tuple((np.bitwise_or.reduce(bits, axis=1) | 1).tolist())


def _apply_stages(frontier: np.ndarray, luts: np.ndarray) -> np.ndarray:
    """Images of every frontier mask under every stage of luts (laid out as
    _stage_luts builds them), shape (masks, stages), C-contiguous.

    Each mask byte gathers whole rows, luts[bp].take(byte, axis=0), and the
    rows of a mask's bytes are ORed.  Row i is mask i's images in stage
    order, so the block read transposed is stage-major.
    """
    acc = luts[0].take(frontier & 0xFF, axis=0)
    for bp in range(1, luts.shape[0]):
        acc |= luts[bp].take((frontier >> 8 * bp) & 0xFF, axis=0)
    return acc


class _StSearch:
    """Layered BFS over image-set states shared by all exact_st modes.

    Each layer is sorted; visited is the sorted array of every state seen.
    Both hold states in the word _st_word(n).
    """

    def __init__(self, g: graphs.Graph, comparator_only: bool):
        graphs.check_connected(g)
        self.n = g.n
        self.word = _st_word(g.n)
        self.stages = _decorated_stages(g, comparator_only)
        init = (1 << (1 << self.n)) - 1  # empty prefix reaches every config
        self.layers = [np.array([init], dtype=self.word)]
        self.visited = self.layers[0]
        self.exhausted = False

    @cached_property
    def luts(self) -> np.ndarray:
        """The stage tables, built when a layer is first expanded."""
        return _stage_luts(self.stages, self.n)

    def grow(self) -> np.ndarray:
        """Extend the BFS by one layer; returns the new layer (may be empty).

        The previous layer is expanded CHUNK stage images at a time.
        """
        if self.exhausted:
            return np.empty(0, dtype=self.word)
        prev, fresh = self.layers[-1], []
        cols = max(1, CHUNK // max(len(self.stages), 1))
        for c0 in range(0, len(prev), cols):
            images = _apply_stages(prev[c0:c0 + cols], self.luts)
            new, self.visited = _fresh(images.ravel(), self.visited)
            fresh.append(new)
        layer = fresh[0] if len(fresh) == 1 else np.sort(np.concatenate(fresh))
        self.layers.append(layer)
        if len(layer) == 0:
            self.exhausted = True
        return layer

    def walk(self, targets: dict, depth_cap: int | None = None):
        """Yield (depth, hits) for depth 0, 1, ...: hits lists (order, index
        of a sorting state in the layer) for every order of targets first
        sorted at that depth, in targets' order.

        Ends once every order is sorted, the state space is exhausted or
        depth_cap is passed; a layer is grown only when the walk reaches it.

        Every stage keeps the weight of a config, so every state holds a
        config of each weight 0..n; one inside an order's sorted mask, which
        has one config per weight, is that mask.  So each layer (sorted) is
        searched for the pending masks in one call.
        """
        orders = list(targets)
        masks = np.array([targets[o] for o in orders], dtype=self.word)
        depth = 0
        while orders and (depth_cap is None or depth <= depth_cap):
            layer = self.layers[depth] if depth < len(self.layers) else self.grow()
            pos = layer.searchsorted(masks)
            inside = (layer.take(pos, mode="clip") == masks).tolist() \
                if len(layer) else [False] * len(orders)
            hits = [(o, p) for o, p, i in zip(orders, pos.tolist(), inside) if i]
            if hits:
                keep = [not i for i in inside]
                orders = [o for o, k in zip(orders, keep) if k]
                masks = masks[keep]
            yield depth, hits
            if self.exhausted:
                return
            depth += 1

    def witness_stages(self, depth: int, idx: int) -> list[tuple]:
        """Reconstruct one stage sequence reaching layers[depth][idx]: at each
        step back, the first stage, then the first state of the layer before,
        whose image is the current state."""
        chosen = []
        target = self.layers[depth][idx]
        for d in range(depth, 0, -1):
            prev = self.layers[d - 1]
            si, i = self._first_parent(prev, target)
            chosen.append(self.stages[si])
            target = prev[i]
        chosen.reverse()
        return chosen

    def _first_parent(self, prev: np.ndarray, target) -> tuple[int, int]:
        """(stage, index) of the first image of prev equal to target in
        stage-major order: the smallest stage with a hit, then the smallest
        index in prev.

        A block of about CHUNK images is several stages, luts[:, :, s0:],
        over all of prev, or one stage over a slice of it.  The block comes
        back mask-major, so it is searched transposed (images.T, row = stage)
        and its first hit is the first overall.
        """
        rows = max(1, CHUNK // len(prev))
        for s0 in range(0, len(self.stages), rows):
            luts = self.luts[:, :, s0:s0 + rows]
            for c0 in range(0, len(prev), CHUNK):
                images = _apply_stages(prev[c0:c0 + CHUNK], luts)
                hits = np.argwhere(images.T == target)
                if len(hits):
                    return s0 + int(hits[0][0]), c0 + int(hits[0][1])
        raise ConstructionError("BFS layer bookkeeping broken")


def exact_st(g: graphs.Graph, pi=None, cap: int | None = None,
             comparator_only: bool = False) -> OracleResult:
    """st(G, pi), or st(G) = min over pi when pi is None.

    The witness is a SortingNetwork achieving the optimum.
    """
    _check_cap(g.n, cap, ST_CAP, "exact st", ST_WORD_LIMIT)
    n = g.n
    targets = _sort_targets(
        n, None if pi is None else perms.check_permutation(pi, n))
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
    targets = _sort_targets(g.n)
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
    _check_cap(g.n, cap, ST_CAP, "sandwich check", ST_WORD_LIMIT)
    n = g.n
    rt = exact_rt(g, cap=cap).value
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
    """All connected graphs on n <= 5 vertices, one per isomorphism class:
    the first edge subset of each class in subset-bits order.

    A subset's canonical code is its least image under the n! relabelings,
    read as a bitmask over the vertex pairs; one product of the subset bit
    matrix with each relabeling's pair weights gives every subset's images
    at once.  Connectivity holds for a whole class or none of it, so it is
    tested only on each class's first subset.
    """
    if n < 1 or n > ST_CAP:
        raise ParameterError(f"enumeration supports 1 <= n <= {ST_CAP}")
    if n == 1:
        return [graphs.graph(1, [])]
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    weights = np.array(
        [[1 << index[min(p[u - 1], p[v - 1]), max(p[u - 1], p[v - 1])]
          for p in itertools.permutations(range(1, n + 1))]
         for u, v in pairs], dtype=np.int64)  # [pair, relabeling]
    subsets = np.arange(1 << len(pairs))
    bits = (subsets[:, None] >> np.arange(len(pairs))) & 1
    _, first = np.unique((bits @ weights).min(axis=1), return_index=True)
    out = []
    for s in np.sort(first).tolist():
        edges = [pairs[i] for i in range(len(pairs)) if s >> i & 1]
        if len(edges) < n - 1:
            continue
        g = graphs.graph(n, edges)
        if graphs.is_connected(g):
            out.append(g)
    return out
