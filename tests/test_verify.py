import itertools
import math
import operator
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from matchnet import verify
from matchnet.constructions import batcher_complete, odd_even_transposition
from matchnet.errors import (CapError, ConstructionError, ParameterError,
                             TaskError)
from matchnet.graphs import (complete_graph, graph, is_connected, path_graph,
                             star_graph)
from matchnet.network import (DIR, SWAP, execute, is_sorted_for,
                              make_network, make_plan, make_stage,
                              plan_realized)
from matchnet.perms import all_permutations, inverse
from matchnet.routing import route_auto
from matchnet.verify import (EXHAUSTIVE_CAP, RANDOM_DEFAULT_TRIALS,
                             RT_LIMIT, ZERO_ONE_CAP, all_matchings,
                             connected_graphs_upto_iso, exact_rt,
                             exact_rt_p, exact_rt_partial, exact_st,
                             exact_st_all_orders, sandwich_check,
                             truth_columns, verify_auto, verify_exhaustive,
                             verify_random, verify_zero_one)


def _random_net(n, seed, depth=8):
    """Stage sequence drawn from the matchings of K_n, not always sorting."""
    rng = random.Random(seed)
    g = complete_graph(n)
    matchings = [m for m in all_matchings(g) if m]
    stages = []
    for _ in range(depth):
        picked = rng.choice(matchings)
        comps = [(u, v, DIR if rng.random() < 0.8 else SWAP)
                 for (u, v) in picked]
        stages.append(make_stage(g, comps))
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return make_network(g, tuple(order), stages)


def test_zero_one_matches_exhaustive_on_random_nets():
    for seed in range(40):
        net = _random_net(random.Random(seed).randrange(2, 7), seed)
        zo = verify_zero_one(net)
        ex = verify_exhaustive(net)
        assert zo.passed == ex.passed, f"seed {seed}"
        if not zo.passed:
            assert zo.counterexample is not None
            out = execute(net, zo.counterexample)
            rank = net.order
            vals = sorted(zo.counterexample)
            assert any(out[v - 1] != vals[rank[v - 1] - 1]
                       for v in range(1, net.graph.n + 1))


@st.composite
def broken_sorters(draw):
    """An odd-even or Batcher sorter on n <= 8 with one comparator dropped
    or reversed (some of these still sort)."""
    build = draw(st.sampled_from([odd_even_transposition, batcher_complete]))
    net = build(draw(st.integers(2, 8)))
    s, c = draw(st.sampled_from([(s, c) for s, stage in enumerate(net.stages)
                                 for c in range(len(stage))]))
    stage = list(net.stages[s])
    u, v, kind = stage[c]
    if draw(st.booleans()):
        del stage[c]
    else:
        stage[c] = (v, u, kind)
    stages = list(net.stages)
    stages[s] = stage
    return make_network(net.graph, net.order, stages)


@settings(max_examples=80, deadline=None)
@given(broken_sorters())
def test_zero_one_and_exhaustive_agree_on_broken_sorters(net):
    zo, ex = verify_zero_one(net), verify_exhaustive(net)
    assert zo.passed == ex.passed
    for rep in (zo, ex):
        if not rep.passed:
            assert not is_sorted_for(net.order, execute(net, rep.counterexample))


def test_zero_one_passes_known_sorter():
    net = odd_even_transposition(6)
    rep = verify_zero_one(net)
    assert rep.passed and rep.method == "zero_one"
    assert rep.inputs_checked == 2 ** 6


def test_truth_columns_shape():
    cols = truth_columns(4)
    assert len(cols) == 4
    # vertex v's column flips with period 2^(v-1) across the 16 inputs
    assert cols[0] % 2 == 0  # input 0 has all-zero assignment
    seen = {tuple((c >> i) & 1 for c in cols) for i in range(16)}
    assert len(seen) == 16


def test_caps_raise_and_override():
    big = odd_even_transposition(ZERO_ONE_CAP + 1)
    with pytest.raises(CapError):
        verify_zero_one(big)
    mid = odd_even_transposition(EXHAUSTIVE_CAP + 1)
    with pytest.raises(CapError):
        verify_exhaustive(mid)
    rep = verify_exhaustive(mid, cap=EXHAUSTIVE_CAP + 1)
    assert rep.passed


def test_verify_auto_dispatch():
    small = odd_even_transposition(4)
    assert verify_auto(small).method == "exhaustive"
    larger = odd_even_transposition(10)
    assert verify_auto(larger).method == "zero_one"


def test_exact_st_knowns():
    assert exact_st(path_graph(2)).value == 1
    assert exact_st(path_graph(3)).value == 3
    assert exact_st(complete_graph(3)).value == 3


def test_exact_st_witness_sorts():
    res = exact_st(path_graph(3))
    assert res.witness is not None
    rep = verify_exhaustive(res.witness)
    assert rep.passed
    assert res.witness.depth == res.value


def test_exact_st_fixed_order():
    # identity order on P_3 is one of the orders; its optimum can only be
    # at least the free minimum
    free = exact_st(path_graph(3)).value
    fixed = exact_st(path_graph(3), pi=(1, 2, 3)).value
    assert fixed >= free


def test_exact_st_all_orders_consistent():
    table = exact_st_all_orders(path_graph(3), depth_cap=6)
    vals = [v for v in table.values() if v is not None]
    assert vals and min(vals) == exact_st(path_graph(3)).value


def test_exact_rt_knowns():
    assert exact_rt(complete_graph(4)).value == 2
    assert exact_rt(path_graph(3)).value == 3
    res = exact_rt(complete_graph(4), pi=(2, 1, 4, 3))
    assert res.value == 1
    # witness plan realizes the permutation
    assert res.witness is not None
    assert res.witness.realized == (2, 1, 4, 3)


@st.composite
def connected_graphs_with_a_permutation(draw):
    """A random spanning tree on n <= 6 vertices plus random extra edges,
    and a permutation of its vertices."""
    n = draw(st.integers(1, 6))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=6)))
    pi = draw(st.permutations(list(range(1, n + 1))))
    return graph(n, edges), tuple(pi)


@settings(max_examples=40, deadline=None)
@given(connected_graphs_with_a_permutation())
def test_exact_rt_witness_against_planner_and_worst_case(case):
    g, pi = case
    res = exact_rt(g, pi)
    assert res.witness.realized == pi
    assert res.witness.depth == res.value
    assert res.value <= route_auto(g, pi).depth
    assert res.value <= exact_rt(g).value


def test_rt_oracles_refuse_past_the_hard_limit_whatever_the_cap():
    g = path_graph(RT_LIMIT + 1)
    for call in (lambda: exact_rt(g, cap=26),
                 lambda: exact_rt_partial(g, [1], [2], cap=26),
                 lambda: exact_rt_p(g, 2, cap=26)):
        with pytest.raises(CapError, match=f"exceeds cap {RT_LIMIT}"):
            call()


def test_exact_rt_partial():
    # moving one pebble across P_4 takes 3 stages
    res = exact_rt_partial(path_graph(4), [1], [4])
    assert res.value == 3
    res2 = exact_rt_partial(path_graph(4), [1, 4], [4, 1])
    assert res2.value >= 3
    for A, B, text in (([1, 2], [3], "need |A| = |B| >= 1"),
                       ([], [], "need |A| = |B| >= 1"),
                       ([1], [5], "vertex 5 out of range"),
                       ([0], [2], "vertex 0 out of range")):
        with pytest.raises(TaskError, match=re.escape(text)):
            exact_rt_partial(path_graph(4), A, B)


def test_exact_rt_p():
    assert exact_rt_p(complete_graph(4), 2).value == 1
    assert exact_rt_p(complete_graph(4), 3).value == 2
    assert exact_rt_p(complete_graph(4), 100).value == 2
    with pytest.raises(TaskError, match="p >= 1 required"):
        exact_rt_p(complete_graph(4), 0)


def test_sandwich_check_small_graphs():
    for g in connected_graphs_upto_iso(4):
        rep = sandwich_check(g)
        assert rep.passed, g.family


def _loop_config_image(stage, cfg):
    """The config a stage sends cfg to, one comparator at a time."""
    for u, v, kind in stage:
        a, b = (cfg >> (u - 1)) & 1, (cfg >> (v - 1)) & 1
        na, nb = (a & b, a | b) if kind == DIR else (b, a)
        cfg = (cfg & ~(1 << (u - 1)) & ~(1 << (v - 1))) \
            | (na << (u - 1)) | (nb << (v - 1))
    return cfg


def _loop_stage_luts(stages, n):
    """Reference: the per-configuration, per-byte loop the numpy tables
    replaced, one Python int per table entry, indexed [stage][byte][value]."""
    size = 1 << n
    luts = []
    for stage in stages:
        img = [1 << _loop_config_image(stage, cfg) for cfg in range(size)]
        per_stage = []
        for bp in range((size + 7) // 8):
            lut = [0] * 256
            for b in range(1, 256):
                idx = bp * 8 + (b & -b).bit_length() - 1
                lut[b] = lut[b & (b - 1)] | (img[idx] if idx < size else 0)
            per_stage.append(lut)
        luts.append(per_stage)
    return luts


@pytest.mark.parametrize("g, comparator_only", [
    (path_graph(1), False), (path_graph(2), False), (complete_graph(3), False),
    (complete_graph(4), False), (star_graph(5), False),
    (path_graph(6), True)])
def test_stage_luts_match_the_loop_reference(g, comparator_only):
    stages = verify._decorated_stages(g, comparator_only)
    luts = verify._stage_luts(stages, g.n)
    assert luts.dtype == (np.uint32 if g.n <= 5 else np.uint64)
    assert luts.shape == (((1 << g.n) + 7) // 8, 256, len(stages))
    assert luts.flags.c_contiguous  # luts[byte, value] is one stage row
    assert luts.transpose(2, 0, 1).tolist() == _loop_stage_luts(stages, g.n)


def _loop_images(masks, stages, n):
    """Reference: image[i][s] = OR of 1 << stage_s(cfg) over the configs
    cfg in masks[i], one config at a time."""
    table = [[_loop_config_image(stage, cfg) for cfg in range(1 << n)]
             for stage in stages]
    return [[sum({1 << to[cfg] for cfg in range(1 << n) if mask >> cfg & 1})
             for to in table] for mask in masks]


@st.composite
def st_image_cases(draw):
    """A connected graph on n <= 6 vertices and up to six image-set masks
    (any 2^n-bit values, not only reachable ones)."""
    n = draw(st.integers(1, 6))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=3)))
    masks = draw(st.lists(st.integers(0, (1 << (1 << n)) - 1),
                          min_size=1, max_size=6))
    return graph(n, edges), masks, draw(st.booleans())


@settings(max_examples=40, deadline=None)
@given(st_image_cases())
@example((path_graph(1), [0, 1, 3], False))  # no stages
@example((path_graph(6), [(1 << 64) - 1, 1 << 63 | 1, 0x0123456789ABCDEF],
          False))  # 8-byte words, the top bit set
def test_apply_stages_matches_the_per_mask_stage_loop(case):
    g, masks, comparator_only = case
    stages = verify._decorated_stages(g, comparator_only)
    luts = verify._stage_luts(stages, g.n)
    word = verify._st_word(g.n)
    images = verify._apply_stages(np.array(masks, dtype=word), luts)
    assert images.dtype == word and images.flags.c_contiguous
    assert images.shape == (len(masks), len(stages))
    assert images.tolist() == _loop_images(masks, stages, g.n)


@pytest.mark.parametrize("chunk", [verify.CHUNK, 2, 1])
def test_first_parent_takes_the_smallest_stage_then_index(chunk,
                                                          monkeypatch):
    """prev = [y, x, x]: y reaches the target through a late stage, the
    planted duplicate x through an earlier one, so the mask-major first hit
    (index 0) is not the stage-major one (the earlier stage, index 1)."""
    monkeypatch.setattr(verify, "CHUNK", chunk)
    search = verify._StSearch(path_graph(4), comparator_only=False)
    search.grow()
    layer = search.grow()
    images = _loop_images(layer.tolist(), search.stages, search.n)
    plant = None
    for (i, x_img), (j, y_img) in itertools.product(enumerate(images),
                                                    repeat=2):
        for late, target in enumerate(y_img):
            early = x_img.index(target) if target in x_img else len(x_img)
            if i != j and early < late and target not in y_img[:late]:
                plant = layer[i], layer[j], target
                break
        if plant:
            break
    x, y, target = plant
    prev = np.array([y, x, x], dtype=search.word)
    hits = [(s, k) for k, row in enumerate(_loop_images(prev.tolist(),
                                                        search.stages, 4))
            for s, image in enumerate(row) if image == target]
    assert min(hits) != min(hits, key=lambda h: (h[1], h[0]))
    assert min(hits)[1] == 1  # the earlier stage, on the first of x's copies
    assert search._first_parent(prev, search.word(target)) == min(hits)


@pytest.mark.parametrize("g, word", [
    (path_graph(1), np.uint32), (complete_graph(5), np.uint32),
    (path_graph(6), np.uint64)])
def test_st_search_holds_every_state_in_its_word(g, word):
    search = verify._StSearch(g, comparator_only=False)
    targets = dict(itertools.islice(verify._sort_targets(g.n).items(), 3))
    for _ in search.walk(targets, depth_cap=2):
        pass
    assert verify._st_word(g.n) is word
    assert search.luts.dtype == word and search.visited.dtype == word
    assert all(layer.dtype == word for layer in search.layers)
    assert verify._apply_stages(search.layers[-1], search.luts).dtype == word


def test_st_witness_check_raises_without_asserts():
    search = verify._StSearch(path_graph(3), comparator_only=False)
    search.grow()
    assert len(search.grow())
    assert len(search.witness_stages(2, 0)) == 2
    search.layers[1] = search.layers[0]  # no layer-1 state leads to layer 2
    with pytest.raises(ConstructionError, match="bookkeeping"):
        search.witness_stages(2, 0)


def test_sandwich_check_passes_its_cap_on(monkeypatch):
    caps = []

    class Value:
        value = 3

    def st_spy(g, pi=None, cap=None, comparator_only=False):
        caps.append(("st", cap))
        return Value()

    def st_all_spy(g, cap=None, depth_cap=None, comparator_only=False):
        caps.append(("st_all", cap))
        return {tuple(range(1, g.n + 1)): 3}

    def rt_spy(g, pi=None, cap=None):
        caps.append(("rt", cap))
        return Value()

    monkeypatch.setattr(verify, "exact_st", st_spy)
    monkeypatch.setattr(verify, "exact_st_all_orders", st_all_spy)
    monkeypatch.setattr(verify, "exact_rt", rt_spy)
    g, pi = path_graph(6), tuple(range(1, 7))
    with pytest.raises(CapError):
        sandwich_check(g, pi)  # n = 6 is past the default cap
    assert caps == []
    assert sandwich_check(g, pi, cap=6).passed
    # one st search; st(G) is its minimum
    assert caps == [("rt", 6), ("st_all", 6)]


def test_sandwich_check_refuses_past_the_st_word_before_rt(monkeypatch):
    def no_rt(*args, **kwargs):
        pytest.fail("exact_rt ran before the cap check")

    monkeypatch.setattr(verify, "exact_rt", no_rt)
    with pytest.raises(CapError, match="sandwich check refused: n=7 exceeds cap 6"):
        sandwich_check(path_graph(7), cap=7)


# References for the shared stage kernel: the row-major matrix loop and the
# two-list plan_realized it replaced, kept verbatim.

def _reference_run_matrix(net, arr):
    for stage in net.stages:
        for u, v, kind in stage:
            cu, cv = arr[:, u - 1].copy(), arr[:, v - 1].copy()
            if kind == DIR:
                np.minimum(cu, cv, out=arr[:, u - 1])
                np.maximum(cu, cv, out=arr[:, v - 1])
            else:
                arr[:, u - 1], arr[:, v - 1] = cv, cu
    return arr


def _reference_sorted_rows(net, arr):
    inv_idx = [v - 1 for v in inverse(net.order)]
    ranked = arr[:, inv_idx]
    return np.all(np.diff(ranked.astype(np.int64), axis=1) >= 0, axis=1)


def _reference_plan_realized(n, stages):
    pos = list(range(1, n + 1))  # pos[pebble-1] = current vertex
    at = list(range(1, n + 1))  # at[vertex-1] = pebble there
    for s in stages:
        for u, v, _ in s:
            pu, pv = at[u - 1], at[v - 1]
            at[u - 1], at[v - 1] = pv, pu
            pos[pu - 1], pos[pv - 1] = v, u
    return tuple(pos)


def _reference_exhaustive(net):
    """(passed, counterexample, inputs_checked) of the old exhaustive loop."""
    n = net.graph.n
    inputs = np.array(list(itertools.permutations(range(1, n + 1))),
                      dtype=np.int16)
    ok = _reference_sorted_rows(net, _reference_run_matrix(net, inputs.copy()))
    if not ok.all():
        i = int(np.argmin(ok))
        return False, tuple(int(x) for x in inputs[i]), len(inputs)
    return True, None, len(inputs)


def _reference_random(net, trials, seed):
    """(passed, counterexample, inputs_checked) of the old random loop."""
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
            ok = _reference_sorted_rows(net, _reference_run_matrix(net, arr))
            if not ok.all():
                i = int(np.argmin(ok))
                return (False, tuple(int(x) for x in inputs[i]),
                        checked + i + 1)
            done += rows
            checked += rows
    return True, None, trials


def _matching_stages(draw, n, kinds, max_depth=12):
    """Random stages on K_n; a comparator's orientation is the draw order."""
    stages = []
    for _ in range(draw(st.integers(0, max_depth))):
        verts = draw(st.permutations(range(1, n + 1)))
        stages.append([(verts[2 * i], verts[2 * i + 1],
                        draw(st.sampled_from(kinds)))
                       for i in range(draw(st.integers(0, n // 2)))])
    return stages


@st.composite
def planted_networks(draw):
    """A network on K_n, n <= 8: random dir comparators in both
    orientations mixed with swaps, or a Batcher sorter with one planted
    fault (a comparator dropped, flipped, or turned into a swap)."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        base = batcher_complete(n)
        stages = [list(s) for s in base.stages]
        order = base.order
        if stages:
            s = stages[draw(st.integers(0, len(stages) - 1))]
            i = draw(st.integers(0, len(s) - 1))
            u, v, _ = s[i]
            s[i:i + 1] = draw(st.sampled_from(
                [[], [(v, u, DIR)], [(u, v, SWAP)]]))
    else:
        stages = _matching_stages(draw, n, [DIR, SWAP])
        order = draw(st.permutations(range(1, n + 1)))
    return make_network(complete_graph(n), tuple(order), stages)


def _outcome(report):
    return report.passed, report.counterexample, report.inputs_checked


@settings(max_examples=80, deadline=None)
@given(planted_networks(), st.integers(0, 2**32 - 1),
       st.integers(1, 3_000))
def test_kernel_matches_the_matrix_reference(net, seed, trials):
    n = net.graph.n
    block = np.random.default_rng(seed).integers(0, n // 2 + 2, size=(30, n))
    before = block.copy()
    ref = _reference_run_matrix(net, block.copy())
    for row, want in zip(block.tolist(), ref.tolist()):
        assert execute(net, row) == want
    assert verify._sorted_rows(net, block).tolist() == \
        _reference_sorted_rows(net, ref).tolist()
    assert np.array_equal(block, before)  # the input block is never changed
    assert _outcome(verify_exhaustive(net)) == _reference_exhaustive(net)
    # the drawn count, and counts at verify_random's chunk edges: one row,
    # an odd split, one pass for both halves, two passes, three passes
    for count in (trials, 1, 3, 1024, 50_001, 100_001):
        assert _outcome(verify_random(net, count, seed)) == \
            _reference_random(net, count, seed), count


@pytest.mark.parametrize("n, stage, comparator, first_fault", [
    (12, 0, 2, {1024: 964, 100_001: 831}),  # in the repeat half of one pass
    (24, 8, 0, {100_001: 62_890}),  # in the second pass
    (24, 0, 6, {120_000: 119_286})])  # in the last draw
def test_random_chunks_match_the_reference_on_rare_faults(
        n, stage, comparator, first_fault):
    """Odd-even transposition with one comparator dropped fails on few
    inputs, so its first failure lands past the first input chunk."""
    base = odd_even_transposition(n)
    stages = [list(s) for s in base.stages]
    del stages[stage][comparator]
    net = make_network(base.graph, base.order, stages)
    for trials in (1, 3, 1024, 50_001, 100_001, 120_000):
        got = _outcome(verify_random(net, trials))
        assert got == _reference_random(net, trials, 0), trials
        if trials in first_fault:
            assert got[2] == first_fault[trials] and not got[0]


@st.composite
def swap_plans(draw):
    n = draw(st.integers(1, 8))
    return n, _matching_stages(draw, n, [SWAP])


@settings(max_examples=80, deadline=None)
@given(swap_plans())
def test_plan_realized_matches_its_reference(case):
    n, stages = case
    want = _reference_plan_realized(n, stages)
    assert plan_realized(n, stages) == want
    assert make_plan(complete_graph(n), stages).realized == want


def _reference_connected_graphs_upto_iso(n):
    """The per-subset loop the array canonical form replaced: the least
    sorted edge tuple over all relabelings, connectivity tested first."""
    if n == 1:
        return [graph(1, [])]
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    relabelings = list(itertools.permutations(range(1, n + 1)))
    seen = set()
    out = []
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        if len(edges) < n - 1:
            continue
        g = graph(n, edges)
        if not is_connected(g):
            continue
        canon = min(
            tuple(sorted((min(p[u - 1], p[v - 1]), max(p[u - 1], p[v - 1]))
                         for u, v in edges))
            for p in relabelings)
        if canon not in seen:
            seen.add(canon)
            out.append(g)
    return out


@pytest.mark.parametrize("n", range(1, 6))
def test_connected_graphs_match_the_relabeling_loop_reference(n):
    got = connected_graphs_upto_iso(n)
    want = _reference_connected_graphs_upto_iso(n)
    assert [(g.n, sorted(g.edges)) for g in got] == \
        [(g.n, sorted(g.edges)) for g in want]


def test_connected_graphs_counts():
    # connected simple graphs on 1..4 vertices up to isomorphism
    assert len(connected_graphs_upto_iso(1)) == 1
    assert len(connected_graphs_upto_iso(2)) == 1
    assert len(connected_graphs_upto_iso(3)) == 2
    assert len(connected_graphs_upto_iso(4)) == 6
    for n in (0, 6):
        with pytest.raises(ParameterError, match="supports 1 <= n <= 5"):
            connected_graphs_upto_iso(n)


def test_all_matchings_k3():
    # nonempty only: three single edges, no disjoint pair exists in K_3
    ms = all_matchings(complete_graph(3))
    assert sorted(len(m) for m in ms) == [1, 1, 1]
    ms4 = all_matchings(complete_graph(4))
    assert sorted(len(m) for m in ms4) == [1] * 6 + [2] * 3


def test_verify_random_catches_planted_bug():
    g = complete_graph(6)
    net = batcher_complete(6)
    # drop the last stage so some inputs stay unsorted
    broken = make_network(g, net.order, list(net.stages[:-1]))
    rep = verify_random(broken, trials=20_000, seed=0)
    assert not rep.passed
    assert rep.counterexample is not None
    out = execute(broken, rep.counterexample)
    vals = sorted(rep.counterexample)
    assert any(out[v - 1] != vals[broken.order[v - 1] - 1]
               for v in range(1, 7))


def test_verify_random_deterministic_and_seeded():
    net = odd_even_transposition(8)
    a = verify_random(net, trials=5_000, seed=3)
    b = verify_random(net, trials=5_000, seed=3)
    assert a.passed and b.passed
    assert a.inputs_checked == b.inputs_checked == 5_000
    assert RANDOM_DEFAULT_TRIALS == 200_000


@pytest.mark.parametrize("trials", [0, -5])
def test_verify_random_refuses_fewer_than_one_trial(trials):
    with pytest.raises(ParameterError, match="trials >= 1"):
        verify_random(odd_even_transposition(4), trials=trials)


# References for the layered array BFS: the per-state dict BFS over
# operator.itemgetter moves and the np.unique + Python-set st search it
# replaced, kept verbatim apart from names and the shared helpers they call.

def _reference_rt_bfs(g, start, stop_at=None):
    moves = []
    for m in all_matchings(g):
        idx = list(range(g.n))
        for u, v in m:
            idx[u - 1], idx[v - 1] = v - 1, u - 1
        moves.append((operator.itemgetter(*idx), m))
    dist = {start: 0}
    parent = {start: None}
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


def _reference_exact_rt(g, pi=None):
    """(value, witness, explored) of the old exact_rt."""
    start = tuple(range(1, g.n + 1))
    if pi is not None:
        target = inverse(pi)
        dist, parent = _reference_rt_bfs(g, start, stop_at=target)
        stages, state = [], target
        while parent[state] is not None:
            state, m = parent[state]
            stages.append([(u, v, SWAP) for u, v in m])
        return (dist[target], make_plan(g, stages[::-1]), len(dist))
    dist, _ = _reference_rt_bfs(g, start)
    worst = max(dist.values())
    arg = min(s for s, d in dist.items() if d == worst)
    return worst, inverse(arg), len(dist)


def _reference_rt_worst(g, A, B):
    at = [0] * g.n
    for p in A:
        at[p - 1] = p
    dist, _ = _reference_rt_bfs(g, tuple(at))
    worst, worst_map = -1, None
    for assignment in itertools.permutations(B):
        at = [0] * g.n
        for p, v in zip(A, assignment):
            at[v - 1] = p
        d = dist[tuple(at)]
        if d > worst:
            worst, worst_map = d, dict(zip(A, assignment))
    return worst, worst_map, len(dist)


def _reference_exact_rt_p(g, p):
    best, witness = 0, None
    explored = 0
    for k in range(1, min(p, g.n) + 1):
        for A in itertools.combinations(range(1, g.n + 1), k):
            worst, worst_map, seen = _reference_rt_worst(g, A, A)
            explored += seen
            if worst > best:
                best, witness = worst, (A, worst_map)
    return best, witness, explored


class _ReferenceStSearch:
    def __init__(self, g, comparator_only):
        self.n = g.n
        self.stages = verify._decorated_stages(g, comparator_only)
        self.luts = verify._stage_luts(self.stages, self.n)
        init = (1 << (1 << self.n)) - 1
        self.layers = [np.array([init], dtype=np.uint64)]
        self.visited = {init}
        self.exhausted = False

    def grow(self):
        if self.exhausted:
            return np.empty(0, dtype=np.uint64)
        merged = np.unique(verify._apply_stages(self.layers[-1], self.luts))
        fresh = [x for x in merged.tolist() if x not in self.visited]
        self.visited.update(fresh)
        layer = np.array(fresh, dtype=np.uint64)
        self.layers.append(layer)
        if len(layer) == 0:
            self.exhausted = True
        return layer

    def satisfied(self, layer, sorted_mask):
        bad = layer & np.uint64(~sorted_mask & ((1 << 64) - 1))
        hits = np.flatnonzero(bad == 0)
        return int(hits[0]) if len(hits) else -1

    def walk(self, targets, depth_cap=None):
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

    def witness_stages(self, depth, idx):
        chosen = []
        target = self.layers[depth][idx]
        for d in range(depth, 0, -1):
            prev = self.layers[d - 1]
            images = verify._apply_stages(prev, self.luts)  # (masks, stages)
            hits = np.argwhere(images.T == target)  # stage-major
            si, i = hits[0]
            chosen.append(self.stages[si])
            target = prev[i]
        chosen.reverse()
        return chosen


def _oracle_tuple(res):
    return res.value, res.witness, res.explored


@st.composite
def rt_cases(draw):
    """A connected graph on n <= 7 vertices with a permutation, a partial
    task (A, B), p <= 2 and a chunk size (the default, or one small enough
    that every layer spans several chunks)."""
    n = draw(st.integers(1, 7))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=5)))
    pi = tuple(draw(st.permutations(range(1, n + 1))))
    k = draw(st.integers(1, min(n, 3)))
    A = tuple(sorted(draw(st.permutations(range(1, n + 1)))[:k]))
    B = tuple(sorted(draw(st.permutations(range(1, n + 1)))[:k]))
    return (graph(n, edges), pi, A, B, draw(st.integers(1, 2)),
            draw(st.sampled_from([verify.CHUNK, 7])))


@settings(max_examples=60, deadline=None)
@given(rt_cases())
def test_rt_oracles_match_the_dict_bfs_reference(case):
    g, pi, A, B, p, chunk = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "CHUNK", chunk)
        assert _oracle_tuple(exact_rt(g)) == _reference_exact_rt(g)
        assert _oracle_tuple(exact_rt(g, pi)) == _reference_exact_rt(g, pi)
        assert _oracle_tuple(exact_rt_partial(g, A, B)) == \
            _reference_rt_worst(g, A, B)
        assert _oracle_tuple(exact_rt_p(g, p)) == _reference_exact_rt_p(g, p)


def _st_hosts():
    """Every connected graph with n <= 4, also with chunks of 5 images,
    and every fifth one with n = 5."""
    small = [g for n in range(1, 5) for g in connected_graphs_upto_iso(n)]
    five = connected_graphs_upto_iso(5)
    return [pytest.param(g, chunk, id=f"n={g.n} {sorted(g.edges)} chunk={chunk}")
            for g, chunk in [(g, c) for g in small for c in (verify.CHUNK, 5)]
            + [(g, verify.CHUNK) for g in five[::5]]]


@pytest.mark.parametrize("g, chunk", _st_hosts())
def test_st_search_matches_the_unique_and_set_reference(g, chunk,
                                                        monkeypatch):
    monkeypatch.setattr(verify, "CHUNK", chunk)
    targets = verify._sort_targets(g.n)
    new = verify._StSearch(g, comparator_only=False)
    ref = _ReferenceStSearch(g, comparator_only=False)
    assert list(new.walk(targets)) == list(ref.walk(targets))
    while not new.exhausted:
        new.grow()
        ref.grow()
    assert [x.tolist() for x in new.layers] == [x.tolist() for x in ref.layers]
    assert len(new.visited) == len(ref.visited)
    assert new.visited.tolist() == sorted(ref.visited)
    for depth, layer in enumerate(ref.layers):
        for idx in {0, len(layer) // 2, len(layer) - 1} if len(layer) else ():
            assert new.witness_stages(depth, idx) == \
                ref.witness_stages(depth, idx)


@pytest.mark.parametrize("n", range(1, 9))
def test_lex_block_is_itertools_permutations_order(n):
    block = verify._lex_block(n)
    assert block.dtype == np.int16 and block.shape == (n, math.factorial(n))
    assert block.T.tolist() == [list(p) for p in
                                itertools.permutations(range(1, n + 1))]


def test_rt_bookkeeping_checks_raise_without_asserts(monkeypatch):
    with pytest.raises(ConstructionError, match="at most 9 vertices"):
        verify._rt_moves(path_graph(RT_LIMIT + 1))
    with pytest.raises(TaskError, match="unreachable"):
        verify._rt_worst(graph(3, [(1, 2)]), [((1,), (3,))])
    real = verify._rt_bfs

    def misdirected(moves, starts, stop_at=None):
        layers = real(moves, starts, stop_at)
        codes, gen = layers[-1]
        return layers[:-1] + [(codes, np.zeros_like(gen))]

    monkeypatch.setattr(verify, "_rt_bfs", misdirected)
    with pytest.raises(ConstructionError, match="bookkeeping"):
        exact_rt(path_graph(4), (4, 3, 2, 1))


def _loop_sort_targets(orders, n):
    """The sorted-config masks as first written: one Python loop per order."""
    targets = {}
    for order in map(tuple, orders):
        inv = inverse(order)
        cfg, mask = 0, 1  # k = 0: all zeros
        for r in range(n, 0, -1):
            cfg |= 1 << (inv[r - 1] - 1)
            mask |= 1 << cfg
        targets[order] = mask
    return targets


@pytest.mark.parametrize("n", range(1, verify.ST_WORD_LIMIT + 1))
def test_sort_targets_match_the_loop_reference(n):
    want = _loop_sort_targets(all_permutations(n), n)
    got = verify._sort_targets(n)
    assert list(got.items()) == list(want.items())
    assert all(type(m) is int for m in got.values())
    got.clear()  # each caller gets its own dict; the masks made once stay
    assert verify._sort_targets(n) == want
    pi = tuple(random.Random(n).sample(range(1, n + 1), n))
    assert verify._sort_targets(n, pi) == {pi: want[pi]}
