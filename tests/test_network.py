import json
import random
import re
import weakref
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matchnet import constructions as cons, graphs, network
from matchnet.errors import (CapError, ConstructionError, StructureError,
                             TaskError)
from matchnet.graphs import (complete_graph, generate, graph, graph_from_doc,
                             path_graph, random_tree)
from matchnet.network import (DIR, SWAP, RoutingPlan, SortingNetwork,
                              concatenate, execute, is_sorted_for,
                              make_network, make_plan, make_stage,
                              network_from_json, network_to_json,
                              plan_from_json, plan_realized, plan_to_json)
from matchnet.routing import route_auto
from matchnet.verify import all_matchings

# the readers' one refusal of a stage body they cannot read
_STAGE_REFUSAL = f"malformed stage in network JSON: {network._RULE}"


def test_make_stage_validates_edges():
    g = path_graph(4)
    with pytest.raises(ConstructionError):
        make_stage(g, [(1, 3, DIR)])  # not an edge
    with pytest.raises(ConstructionError):
        make_stage(g, [(1, 2, DIR), (2, 3, DIR)])  # shares vertex 2
    with pytest.raises(StructureError):
        make_stage(g, [(1, 2, "sideways")])


def test_make_stage_normalizes_swap_keeps_dir():
    g = path_graph(3)
    st_ = make_stage(g, [(2, 1, SWAP)])
    assert st_ == ((1, 2, SWAP),)
    st_ = make_stage(g, [(2, 1, DIR)])
    assert st_ == ((2, 1, DIR),)  # orientation is meaningful


def test_execute_dir_puts_min_at_first():
    g = path_graph(2)
    net = make_network(g, (1, 2), [[(1, 2, DIR)]])
    assert execute(net, [5, 3]) == [3, 5]
    assert execute(net, [3, 5]) == [3, 5]
    net = make_network(g, (2, 1), [[(2, 1, DIR)]])
    assert execute(net, [3, 5]) == [5, 3]


def test_execute_swap_unconditional():
    g = path_graph(2)
    plan = make_plan(g, [[(1, 2, SWAP)]])
    assert execute(plan, [3, 5]) == [5, 3]
    assert plan.realized == (2, 1)


def test_plan_realized():
    # pebble from vertex 1 moves 1 -> 2 -> 3, pebble 2 -> 1, pebble 3 -> 2
    assert plan_realized(3, [((1, 2, SWAP),), ((2, 3, SWAP),)]) == (3, 1, 2)


def test_plan_rejects_dir():
    with pytest.raises(StructureError):
        make_plan(path_graph(2), [[(1, 2, DIR)]])


def test_is_sorted_for():
    assert is_sorted_for((1, 2, 3), [1, 1, 2])
    assert not is_sorted_for((1, 2, 3), [2, 1, 3])
    # order (3,1,2): vertex 2 holds rank 1, vertex 3 rank 2, vertex 1 rank 3
    assert is_sorted_for((3, 1, 2), [5, 1, 3])
    assert not is_sorted_for((3, 1, 2), [1, 5, 3])


def test_concatenate_requires_same_host():
    a = make_network(path_graph(2), (1, 2), [[(1, 2, DIR)]])
    b = make_network(path_graph(2), (1, 2), [[(1, 2, DIR)]])
    assert concatenate(a, b).depth == 2
    c = make_network(path_graph(3), (1, 2, 3), [])
    with pytest.raises(StructureError):
        concatenate(a, c)


def test_network_json_roundtrip():
    g = random_tree(9, 2)
    stages = [[(u, v, SWAP)] for u, v in sorted(g.edges)[:3]]
    net = make_network(g, tuple(range(1, 10)), stages,
                       provenance={"construction": "test"},
                       certificate={"formula_name": "x", "parameters": {},
                                    "claimed_bound": 3, "achieved_depth": 3})
    back = network_from_json(network_to_json(net))
    assert back == net
    assert back.certificate == net.certificate
    plan = make_plan(g, stages)
    assert plan_from_json(plan_to_json(plan)) == plan


def test_network_json_refuses_a_certificate_that_misstates_the_depth():
    net = cons.longest_path_sort(generate("mesh:3,3"))
    assert net.depth == 60
    doc = json.loads(network_to_json(net))
    cert = doc["certificate"]
    for good in (cert, {**cert, "claimed_bound": 61}, None):
        back = network_from_json(json.dumps({**doc, "certificate": good}))
        assert back.certificate == good
    bad_depth = [{**cert, "achieved_depth": depth}
                 for depth in (85, True, 60.0, "60", None)]
    low_bound = [{**cert, "claimed_bound": bound}
                 for bound in (0, 59, 60.5, "99", None, [99])]
    missing = [{k: v for k, v in cert.items() if k != key}
               for key in ("achieved_depth", "claimed_bound")]
    for bad in bad_depth + low_bound + missing + [
            {**cert, "achieved_depth": 1, "claimed_bound": 0},
            {**cert, "achieved_depth": 62, "claimed_bound": 61}, [], 60, "x"]:
        with pytest.raises(StructureError, match="no lower than it or 60 "):
            network_from_json(json.dumps({**doc, "certificate": bad}))


def test_network_json_rejects_malformed_documents():
    good = json.loads(network_to_json(make_network(path_graph(2), (1, 2),
                                                   [[(1, 2, DIR)]])))
    for bad in [[], dict(good, stages=5), dict(good, graph=[2]),
                dict(good, stages=[{"cmp": [[1, 2]]}])]:
        with pytest.raises(StructureError):
            network_from_json(json.dumps(bad))


def test_order_must_be_permutation():
    with pytest.raises(TaskError):
        make_network(path_graph(3), (1, 1, 2), [])


def _random_net(n, seed):
    rng = random.Random(seed)
    g = complete_graph(n)
    ms = all_matchings(g)
    stages = []
    for _ in range(rng.randrange(1, 8)):
        m = rng.choice(ms)
        stages.append([(u, v, DIR) if rng.random() < 0.8 else (u, v, SWAP)
                       for u, v in m])
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return make_network(g, order, stages)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10_000), st.data())
def test_execute_is_monotone(n, seed, data):
    # comparators and swaps are monotone maps, so pointwise <= is preserved
    net = _random_net(n, seed)
    xs = data.draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))
    bump = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    ys = [x + b for x, b in zip(xs, bump)]
    out_x = execute(net, xs)
    out_y = execute(net, ys)
    assert all(a <= b for a, b in zip(out_x, out_y))


def test_run_stages_works_in_the_callers_list():
    stages = [((1, 2, DIR),), ((2, 3, SWAP),), ((1, 2, DIR),)]
    cols = [3, 2, 1]
    out = network.run_stages(stages, cols,
                             lambda a, b: (min(a, b), max(a, b)))
    assert out is cols and cols == [1, 2, 3]

    def fails(a, b):
        raise ValueError("cx")
    for stages in ([((1, 2, DIR),)], [((2, 3, SWAP),), ((1, 2, DIR),)]):
        cols = [3, 2, 1]
        with pytest.raises(ValueError, match="cx"):
            network.run_stages(stages, cols, fails)
        assert len(cols) == 3 and None not in cols


def test_run_stages_keeps_no_replaced_column_alive():
    # the 0-1 verifier's columns are 2^n bits each: a kernel that copied
    # the caller's list would hold every input column for the whole run
    cols = [np.array([0, 1, 0, 1], bool), np.array([0, 0, 1, 1], bool)]
    first = weakref.ref(cols[0])
    alive = []

    def cx(a, b):
        alive.append(first() is not None)
        return a & b, a | b
    network.run_stages([((1, 2, DIR),)] * 3, cols, cx)
    assert alive == [True, False, False]
    assert cols[0].tolist() == [0, 0, 0, 1] and len(cols) == 2


def test_execute_needs_matching_length():
    net = make_network(path_graph(3), (1, 2, 3), [])
    with pytest.raises(TaskError):
        execute(net, [1, 2])


# ---------------------------------------------------------------------------
# the whole-list validation kernel against make_stage, stage by stage


def _stage_by_stage(g, stages, swaps_only):
    """make_network / make_plan as first written: make_stage on each stage,
    after the swap-only test of that stage for a plan."""
    out = []
    for s in stages:
        if swaps_only:
            for u, v, kind in s:
                if kind != SWAP:
                    raise StructureError("routing plans may only contain swaps")
        out.append(make_stage(g, s))
    return tuple(out)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as e:  # the type and text are what is compared
        return type(e), str(e)


def _mutant(draw, g, stage):
    """One fault planted in a stage (or a legal variant of it)."""
    n = g.n
    edges = sorted(g.edges)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    non_edges = [p for p in pairs if p not in g.edges]
    a, b = draw(st.sampled_from(edges)) if edges else (1, 2)
    kind = draw(st.sampled_from([DIR, SWAP]))
    fault = draw(st.sampled_from([
        "non_edge", "shared", "kind", "range", "alias", "float", "bool",
        "flip", "list", "short", "long", "empty", "dir_down"]))
    at = draw(st.integers(0, len(stage)))
    stage = list(stage)
    if fault == "non_edge" and non_edges:
        u, v = draw(st.sampled_from(non_edges))
        stage.insert(at, (u, v, kind))
    elif fault == "shared" and stage:
        u = stage[draw(st.integers(0, len(stage) - 1))][0]
        stage.insert(at, (u, a if a != u else b, kind))
    elif fault == "kind":
        stage.insert(at, (a, b, draw(st.sampled_from(["sideways", None, 1]))))
    elif fault == "range":
        bad = draw(st.sampled_from([0, -1, n + 1, 10 ** 20]))
        stage.insert(at, (bad, b, kind) if draw(st.booleans()) else (a, bad, kind))
    elif fault == "alias":
        # (a-1)*(n+1) + (b+n+1) is the key of edge (a, b)
        stage.insert(at, (a - 1, b + n + 1, kind))
    elif fault == "float":
        stage.insert(at, (float(a), b, kind))
    elif fault == "bool" and 1 in (a, b):
        stage.insert(at, (True, b if a == 1 else a, kind))
    elif fault == "flip" and stage:
        i = draw(st.integers(0, len(stage) - 1))
        u, v, k = stage[i]
        stage[i] = (v, u, k)
    elif fault == "list" and stage:
        i = draw(st.integers(0, len(stage) - 1))
        stage[i] = list(stage[i])
    elif fault == "short":
        stage.insert(at, (a, b))
    elif fault == "long":
        stage.insert(at, (a, b, kind, "extra"))
    elif fault == "empty":
        stage = []
    elif fault == "dir_down":
        stage.insert(at, (max(a, b), min(a, b), DIR))
    return stage


@st.composite
def _graph_and_stages(draw):
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = graph(n, edges)
    stages = []
    for _ in range(draw(st.integers(0, 5))):
        free = draw(st.permutations(sorted(g.edges)))
        used, stage = set(), []
        for u, v in free[:draw(st.integers(0, len(free)))]:
            if u not in used and v not in used:
                used |= {u, v}
                if draw(st.booleans()):
                    u, v = v, u  # dir in both orientations, swaps unsorted
                stage.append((u, v, draw(st.sampled_from([DIR, SWAP]))))
        if draw(st.integers(0, 3)) == 0:
            stage = _mutant(draw, g, stage)
        stages.append(stage)
    if draw(st.booleans()):
        stages = [tuple(s) for s in stages]
    return g, stages


@settings(max_examples=400, deadline=None)
@given(_graph_and_stages(), st.booleans())
def test_kernel_matches_make_stage_stage_by_stage(case, swaps_only):
    g, stages = case
    want = _outcome(_stage_by_stage, g, stages, swaps_only)
    got = _outcome(network._freeze, g, stages, swaps_only)
    assert got == want
    if swaps_only:
        assert _outcome(lambda: make_plan(g, stages).stages) == want
    else:
        assert _outcome(lambda: make_network(
            g, tuple(range(1, g.n + 1)), stages).stages) == want
    if want[0] == "ok":  # canonical comparators are kept, never copied,
        for s, frozen in zip(stages, got[1]):  # and so are stages of them
            canonical = [type(c) is tuple and (c[2] == DIR or c[0] < c[1])
                         for c in s]
            for c, f, keep in zip(s, frozen, canonical):
                if keep:
                    assert f is c
            if type(s) is tuple and all(canonical):
                assert frozen is s


@settings(max_examples=300, deadline=None)
@given(_graph_and_stages(), st.booleans(), st.data())
def test_kernel_checks_each_repeated_stage_object_once(case, swaps_only,
                                                       data):
    g, stages = case
    picks = st.lists(st.integers(0, len(stages) - 1), max_size=12)
    stages = [stages[i] for i in data.draw(picks)] if stages else []
    want = _outcome(_stage_by_stage, g, stages, swaps_only)
    got = _outcome(network._freeze, g, stages, swaps_only)
    assert got == want
    if want[0] == "ok":  # every repeat of a stage object is one frozen one
        frozen = {}
        for s, f in zip(stages, got[1]):
            assert frozen.setdefault(id(s), f) is f
        kept = [f for f in frozen.values() if f]  # () is one object
        assert len(set(map(id, kept))) == len(kept)


def test_kernel_checks_a_repeated_stage_once(monkeypatch):
    g = path_graph(4)
    flips = [(2, 1, SWAP), (4, 3, SWAP)]  # swaps with u > v are flipped
    kept = ((2, 3, DIR),)
    bad = [(1, 3, SWAP)]  # not an edge
    held = []
    real = network._checked
    monkeypatch.setattr(network, "_checked", lambda g, stages, swaps_only: (
        held.append(len(stages)), real(g, stages, swaps_only))[1])
    stages = [flips, kept, flips, kept, flips]
    frozen = network._freeze(g, stages)
    assert frozen == _stage_by_stage(g, stages, False) and held == [2]
    assert frozen[0] is frozen[2] is frozen[4] and frozen[0][0] == (1, 2, SWAP)
    assert frozen[1] is frozen[3] is kept  # its stage is not rebuilt
    for stages in ([kept, bad, kept, bad], [bad, flips, bad], [flips, flips]):
        for swaps_only in (False, True):
            assert _outcome(network._freeze, g, stages, swaps_only) \
                == _outcome(_stage_by_stage, g, stages, swaps_only)
    # a builder's repeated rounds: the contour sorter alternates two
    held.clear()
    net = cons.contour_tree_sort(random_tree(64, 1))
    assert held == [len({id(s) for s in net.stages})] and held[0] < net.depth


def _tabled(stages, as_tuples):
    """stages rebuilt from a table made as routing._checked and
    _read_canonical make theirs: one object per distinct comparator value,
    the stages gathered from those, and each occurrence's index and each
    stage's length over the stage objects _freeze keeps (the first of
    each repeat, in order)."""
    index, cmps = {}, []
    for c in chain.from_iterable(stages):
        if tuple(c) not in index:  # a list comparator is keyed as a tuple
            index[tuple(c)] = len(cmps)
            cmps.append(c)
    made = {}
    for s in stages:
        if id(s) not in made:
            got = [cmps[index[tuple(c)]] for c in s]
            made[id(s)] = tuple(got) if as_tuples else got
    stages = [made[id(s)] for s in stages]
    kept = list({id(s): s for s in stages}.values())  # () is one object
    which = np.array([index[tuple(c)] for c in chain.from_iterable(kept)],
                     np.intp)
    return stages, (cmps, which, list(map(len, kept)))


@settings(max_examples=300, deadline=None)
@given(_graph_and_stages(), st.booleans(), st.booleans(), st.data())
def test_kernel_takes_a_producers_table_as_it_takes_the_stages(
        case, swaps_only, as_tuples, data):
    g, stages = case
    picks = st.lists(st.integers(0, len(stages) - 1), max_size=8)
    stages = [stages[i] for i in data.draw(picks)] if stages else []
    stages, table = _tabled(stages, as_tuples)
    cmps = list(table[0])
    want = _outcome(network._freeze, g, stages, swaps_only)
    got = _outcome(network._freeze, g, stages, swaps_only, table)
    assert got == want and table[0] == cmps  # the table is left as it was
    if want[0] == "ok":  # the same objects are kept and shared
        def kept(frozen):
            return [[f is c for f, c in zip(fs, s)] + [fs is s]
                    for fs, s in zip(frozen, stages)]

        def shared(frozen):
            return [[a is b for b in frozen] for a in frozen]

        assert kept(got[1]) == kept(want[1])
        assert shared(got[1]) == shared(want[1])
    # lengths that disagree with the stages _freeze keeps never reach the
    # array pass: the per-stage path gives the answer
    lens = table[2]
    wrong = [[*lens, 0]]
    if lens:
        wrong += [lens[:-1], [*lens[:-1], lens[-1] + 1]]
    if len(lens) > 1 and lens[0]:
        wrong.append([lens[0] - 1, lens[1] + 1, *lens[2:]])
    bad = (table[0], table[1], data.draw(st.sampled_from(wrong)))
    passed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "_passed", lambda *args: passed.append(args))
        assert _outcome(network._freeze, g, stages, swaps_only, bad) == want
    assert passed == []


def test_the_router_and_the_readers_hand_freeze_a_table_it_takes(
        monkeypatch):
    # a refused or missing table still gives the right stages, through the
    # identity pass or the per-stage path, so only a spy sees it
    g = generate("mesh:4,4")
    net = cons.contour_tree_sort(random_tree(32, 1))  # its stages repeat
    assert len({id(s) for s in net.stages}) < net.depth
    pi = tuple(range(16, 0, -1))
    texts = [(plan_from_json, plan_to_json(route_auto(g, pi))),
             (network_from_json, network_to_json(net))]
    texts += [(read, _indented(text)) for read, text in texts]
    calls = []
    for name in ("_checked", "make_stage"):
        real = getattr(network, name)
        monkeypatch.setattr(network, name, lambda *args, real=real, name=name:
                            (calls.append(name), real(*args))[1])
    assert route_auto(g, pi).realized == pi
    for read, text in texts:
        assert read(text).depth > 1
    assert calls == []


def test_kernel_refuses_ids_that_alias_an_edge():
    g = path_graph(4)  # 0*5 + 7 and -1*5 + 12 are the key of edge (1, 2)
    for u, v in [(0, 7), (7, 0), (-1, 12)]:
        for kind in (DIR, SWAP):
            with pytest.raises(ConstructionError, match="not an edge"):
                make_network(g, (1, 2, 3, 4), [[(3, 4, kind)], [(u, v, kind)]])
        with pytest.raises(ConstructionError, match="not an edge"):
            make_plan(g, [[(3, 4, SWAP)], [(u, v, SWAP)]])


def test_vertex_ids_must_be_plain_ints():
    g = path_graph(3)
    for bad in [(1.0, 2, DIR), (True, 2, SWAP), (1, 2.0, SWAP), ("1", 2, DIR)]:
        with pytest.raises(StructureError, match="non-integer vertex id"):
            make_stage(g, [bad])
        with pytest.raises(StructureError, match="non-integer vertex id"):
            make_network(g, (1, 2, 3), [[(2, 3, DIR)], [bad]])
        with pytest.raises(StructureError, match="non-integer vertex id"):
            make_plan(g, [[(bad[0], bad[1], SWAP)]])


def test_plan_and_graph_json_refuse_non_int_ids():
    text = plan_to_json(make_plan(path_graph(3), [[(1, 2, SWAP)]]))
    assert plan_from_json(text).realized == (2, 1, 3)

    for path, value in [(("stages", 0, "cmp", 0, 0), 1.0),
                        (("stages", 0, "cmp", 0, 1), True),
                        (("graph", "edges", 0, 0), 1.0),
                        (("graph", "n"), 3.0)]:
        doc = json.loads(text)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        for read in (plan_from_json, network_from_json):
            with pytest.raises(StructureError):
                read(json.dumps(doc))
    for order in ([2.0, 1, 3], [2, True, 3], None, 5):
        doc = json.loads(text)
        doc["order"] = order
        for read in (plan_from_json, network_from_json):
            with pytest.raises(StructureError, match="order must be a list"):
                read(json.dumps(doc))


def test_the_readers_share_no_comparator_before_checking_its_ids():
    # (True, 2, "swap") and (1.0, 2, "swap") equal (1, 2, "swap"): sharing
    # an earlier clean comparator for them would hide their fault
    plan = make_plan(path_graph(3), [[(1, 2, SWAP)], [(2, 3, SWAP)],
                                     [(1, 2, SWAP)]])
    for bad in (True, 1.0):
        doc = json.loads(plan_to_json(plan))
        doc["stages"][2]["cmp"][0][0] = bad
        for read in (plan_from_json, network_from_json):
            with pytest.raises(StructureError) as e:
                read(json.dumps(doc))
            assert str(e.value) == _STAGE_REFUSAL


def test_json_writes_and_reads_comparators_once():
    g = path_graph(4)
    stages = [((1, 2, SWAP), (3, 4, SWAP)), ((2, 3, SWAP),)]
    plan = make_plan(g, stages)
    assert plan.stages == tuple(stages)
    assert all(f is c for s, fs in zip(stages, plan.stages)
               for c, f in zip(s, fs))
    text = plan_to_json(plan)
    assert '"cmp":[[1,2,"swap"],[3,4,"swap"]]' in text
    assert '"edges":[[1,2],[2,3],[3,4]]' in text
    assert plan_from_json(text) == plan


@pytest.mark.parametrize("name", ["non_edge", "aliasing_vertex",
                                  "shared_vertex"])
def test_comparator_faults_in_files_are_structure_errors(name):
    # the builders' ConstructionError becomes StructureError, same text
    path = Path(__file__).parent / "corpus" / f"{name}.json"
    doc = json.loads(path.read_text())
    g = graph_from_doc(doc["graph"])
    if doc["graph"].get("order") is not None:
        raise StructureError("network JSON graph order must be null")
    stages = [[tuple(c) for c in s["cmp"]] for s in doc["stages"]]
    with pytest.raises(ConstructionError) as built:
        make_network(g, doc["order"], stages)
    with pytest.raises(StructureError) as read:
        network_from_json(path.read_text())
    assert str(read.value) == str(built.value)
    for s in doc["stages"]:  # the same faults in a plan file
        s["cmp"] = [[u, v, SWAP] for u, v, _ in s["cmp"]]
    doc["plan"] = True
    with pytest.raises(StructureError) as read:
        plan_from_json(json.dumps(doc))
    assert str(read.value) == str(built.value)


def test_the_readers_refuse_an_int_past_the_digit_limit():
    # json.loads raises a bare ValueError on an int literal longer than
    # 4300 digits; all three readers raise it as StructureError, whether
    # it sits in the head or in a comparator
    big = "9" * 5000
    plan = plan_to_json(make_plan(path_graph(2), [[(1, 2, SWAP)]]))
    net = network_to_json(make_network(path_graph(2), (1, 2), [[(1, 2, DIR)]]))
    texts = [plan.replace('"n":2', f'"n":{big}'),
             plan.replace('[1,2,"swap"]', f'[{big},2,"swap"]'),
             net.replace('"order":[1,2]', f'"order":[{big},2]'),
             net.replace('[1,2,"dir"]', f'[1,{big},"dir"]')]
    corpus = Path(__file__).parent / "corpus"
    texts.append((corpus / "huge_int_literal.json").read_text())
    assert len(set(texts)) == 5 and plan not in texts and net not in texts
    for text in texts:
        for read in (plan_from_json, network_from_json):
            with pytest.raises(StructureError, match="^bad network JSON: "
                               "Exceeds the limit"):
                read(text)
    for text in (f'{{"edges":[[1,2]],"n":{big}}}',
                 f'{{"edges":[[1,{big}]],"n":2}}',
                 (corpus / "graphs" / "huge_int_literal.json").read_text()):
        with pytest.raises(StructureError, match="^bad graph JSON: "
                           "Exceeds the limit"):
            graphs.from_json(text)



def test_both_readers_refuse_a_host_key_the_writers_never_write():
    # each of these read back equal, and export dropped it
    for read, obj in (
            (network_from_json,
             make_network(path_graph(4), (1, 2, 3, 4), [[(1, 2, DIR)]])),
            (plan_from_json, make_plan(path_graph(4), [[(1, 2, SWAP)]]))):
        doc = json.loads(_written(obj))
        for key, value, error in (
                ("x", 1, "graph JSON has an unknown key 'x'"),
                ("order", [4, 3, 2, 1], "graph order must be null"),
                ("order", "junk", "graph order must be null")):
            bad = {**doc, "graph": {**doc["graph"], key: value}}
            for text in (graphs.dumps(bad), json.dumps(bad, indent=1)):
                with pytest.raises(StructureError) as e:
                    read(text)
                assert str(e.value).endswith(error)
        assert read(json.dumps(doc, indent=1)) == obj


def test_each_reader_refuses_the_other_document():
    text = (Path(__file__).parent / "corpus" / "plan_document.json"
            ).read_text().strip()
    plan = plan_from_json(text)  # a valid plan file, written by plan_to_json
    assert plan_to_json(plan) == text
    with pytest.raises(StructureError, match='must not carry "plan"'):
        network_from_json(text)
    doc = json.loads(text)
    for key, value in (("provenance", {"built_by": "test"}),
                       ("certificate", None)):
        with pytest.raises(StructureError, match=f"must not carry '{key}'"):
            plan_from_json(json.dumps({**doc, key: value}))
    net = make_network(plan.graph, plan.realized, plan.stages,
                       provenance={"built_by": "test"})
    net_doc = json.loads(network_to_json(net))
    assert network_from_json(json.dumps(net_doc)) == net
    for flag in (True, False, None):  # any "plan" key, whatever its value
        with pytest.raises(StructureError, match='must not carry "plan"'):
            network_from_json(json.dumps({**net_doc, "plan": flag}))

def test_deeply_nested_json_is_a_structure_error():
    text = "[" * 5000 + "]" * 5000
    for read in (network_from_json, plan_from_json):
        with pytest.raises(StructureError, match="nested too deeply"):
            read(text)


def _loads_depth_limit(cap: int = 2 ** 17) -> int:
    """The deepest list nesting json.loads accepts here (capped)."""
    lo, hi = 1, cap
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            json.loads("[" * mid + "]" * mid)
            lo = mid
        except RecursionError:
            hi = mid - 1
    return lo


def test_a_provenance_nested_as_deep_as_json_loads_accepts_reads_back():
    # the readers write a parsed document back before reading it, and that
    # must not refuse what json.loads accepts nor raise past StructureError:
    # the full parse and the canonical path's parse of the head run at one
    # call depth, so each depth near the limit gives one answer, compact
    # or spaced
    net = make_network(path_graph(2), (1, 2), [[(1, 2, DIR)]])
    text = network_to_json(net)
    limit = _loads_depth_limit()

    def nested(depth, spaced):
        doc = text.replace('"order":[1,2]', '"order":[1,2],"provenance":'
                           '{"a":' + "[" * depth + "]" * depth + "}")
        return doc.replace(",", ", ") if spaced else doc

    for spaced in (False, True):
        for depth in (limit - 16, *range(limit - 6, limit + 2), 2 * limit + 2):
            if depth <= limit - 4:  # the document itself nests 2 deeper
                back = network_from_json(nested(depth, spaced))
                assert back == net
                prov = back.provenance["a"]
                for _ in range(depth - 1):
                    prov, = prov
                assert prov == []
            else:
                with pytest.raises(StructureError) as e:
                    network_from_json(nested(depth, spaced))
                assert str(e.value) == "bad network JSON: nested too deeply"


def test_a_cyclic_provenance_still_raises_in_the_writer():
    # the writers skip json's circular-reference check: their documents
    # are trees they build, and a cycle put in by hand still fails, only
    # as RecursionError where it was ValueError
    loop = {"step": "loop"}
    loop["self"] = loop
    net = make_network(path_graph(2), (1, 2), [[(1, 2, DIR)]],
                       provenance={"built_by": loop})
    with pytest.raises(RecursionError):
        network_to_json(net)
    assert json.loads(network_to_json(make_network(
        path_graph(2), (1, 2), [[(1, 2, DIR)]],
        provenance={"built_by": {"step": "tree"}})))["provenance"] == {
            "built_by": {"step": "tree"}}


def _json_values():
    """Any JSON document: finite floats only, since nan != nan."""
    return st.recursive(
        st.none() | st.booleans() | st.integers(-3, 10)
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=6)


# labelled networks with certificates, one per sorter family
_ROUND_TRIP_NETS = [cons.odd_even_transposition(5),
                    cons.BUILDERS["bitonic"](generate("hypercube:2")),
                    cons.BUILDERS["batcher"](generate("complete:4")),
                    cons.BUILDERS["product"](generate("mesh:2,3"))]


@st.composite
def _mutated_network_docs(draw):
    """The JSON document of a labelled network with its certificate (or a
    value inside it), its graph's family label or its order replaced."""
    net = draw(st.sampled_from(_ROUND_TRIP_NETS))
    doc = json.loads(network_to_json(net))
    n = net.graph.n
    field = draw(st.sampled_from(["certificate", "claimed_bound", "family",
                                  "order"]))
    if field == "certificate":
        doc["certificate"] = draw(_json_values())
    elif field == "claimed_bound":
        doc["certificate"]["claimed_bound"] = draw(_json_values())
    elif field == "family":
        spec = st.builds(lambda name, args: f"{name}:{','.join(args)}",
                         st.sampled_from(sorted(graphs._FAMILIES)),
                         st.lists(st.sampled_from(
                             ["0", "1", "2", "3", "4", "5", "-1", "x", ""]),
                             max_size=3))
        doc["graph"]["family"] = draw(spec | st.sampled_from(
            [f"path:{n}", f"complete:{n}", f"mesh:{n}", "product", ""])
            | _json_values())
    else:
        doc["order"] = draw(st.permutations(range(1, n + 1)).map(list)
                            | st.lists(st.integers(0, n + 1), max_size=n + 1)
                            | _json_values())
    return doc


@settings(max_examples=200, deadline=None)
@given(_mutated_network_docs())
def test_mutated_network_json_is_refused_or_reloads_identical(doc):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    _agrees(text)
    try:
        back = network_from_json(text)
    except StructureError:
        return
    again = network_to_json(back)
    if doc.get("certificate", 0) is None:  # a null certificate is not written
        del doc["certificate"]
    assert again == json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert network_to_json(network_from_json(again)) == again


# plans on labelled hosts, one per family planner
_ROUND_TRIP_PLANS = [
    route_auto(g, random.Random(g.n).sample(range(1, g.n + 1), g.n))
    for g in map(generate, ["path:5", "complete:4", "mesh:2,3", "hypercube:3",
                            "multipartite:2,2", "pyramid:2,2", "star:5"])]


@st.composite
def _mutated_plan_docs(draw):
    """The JSON document of a routing plan with its order, its graph's
    family label, one comparator's kind or vertex, or its plan flag
    replaced (or the flag dropped)."""
    plan = draw(st.sampled_from(_ROUND_TRIP_PLANS))
    doc = json.loads(plan_to_json(plan))
    n = plan.graph.n
    field = draw(st.sampled_from(["order", "family", "kind", "vertex",
                                  "plan"]))
    if field == "order":
        doc["order"] = draw(st.permutations(range(1, n + 1)).map(list)
                            | st.lists(st.integers(0, n + 1), max_size=n + 1)
                            | _json_values())
    elif field == "family":
        doc["graph"]["family"] = draw(
            st.sampled_from([f"path:{n}", f"complete:{n}", f"star:{n}",
                             f"mesh:{n}", "product", "", None])
            | _json_values())
    elif field == "plan":
        if draw(st.booleans()):
            del doc["plan"]
        else:
            doc["plan"] = draw(_json_values())
    else:
        stage = draw(st.sampled_from(doc["stages"]))["cmp"]
        cmp = stage[draw(st.integers(0, len(stage) - 1))]
        if field == "kind":
            cmp[2] = draw(st.sampled_from([DIR, SWAP, "x"]) | _json_values())
        else:
            cmp[draw(st.integers(0, 1))] = draw(st.integers(-1, n + 1)
                                                | _json_values())
    return doc


@settings(max_examples=200, deadline=None)
@given(_mutated_plan_docs())
def test_mutated_plan_json_is_refused_or_reloads_identical(doc):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    _agrees(text)
    try:
        back = plan_from_json(text)
    except StructureError:
        return
    assert plan_to_json(back) == text


# ---------------------------------------------------------------------------
# the writers against json.dumps of the whole document


def _dumped(obj) -> str:
    """What the writers wrote as one json.dumps of the document."""
    if isinstance(obj, RoutingPlan):
        doc = {"order": list(obj.realized), "plan": True}
    else:
        doc = {"order": list(obj.order)}
        if obj.provenance:
            doc["provenance"] = obj.provenance
        if obj.certificate is not None:
            doc["certificate"] = obj.certificate
    doc.update(version=1, graph=graphs.graph_doc(obj.graph),
               stages=[{"cmp": s} for s in obj.stages])
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _written(obj) -> str:
    return (plan_to_json if isinstance(obj, RoutingPlan) else
            network_to_json)(obj)


_ROUTE_SPECS = ["path:6", "cycle:7", "star:6", "complete:5", "mesh:3,4",
                "hypercube:3", "multipartite:2,3", "random_tree:12,3",
                "pyramid:2,2", "multigrid:3,2"]


@pytest.mark.parametrize("obj", [
    cons.contour_tree_sort(random_tree(16, 5)),
    cons.longest_path_sort(generate("mesh:3,4")),
    cons.BUILDERS["pyramid"](generate("pyramid:2,2")),
    cons.BUILDERS["batcher"](generate("complete:6"))]
    + [route_auto(g, random.Random(g.n).sample(range(1, g.n + 1), g.n))
       for g in map(generate, _ROUTE_SPECS)], ids=lambda obj: obj.graph.family)
def test_writers_equal_json_dumps_on_built_networks_and_plans(obj):
    assert _written(obj) == _dumped(obj)


def test_writers_equal_json_dumps_on_empty_stages_and_optional_keys():
    g = path_graph(3)
    after = {"zeta": {"zz": [1, {"yy": None, "b": 1.5}], "a": "\u00e9"},
             "version": "v"}  # nested keys that sort after "version"
    for stages in ([], [()], [((1, 2, SWAP),), (), ((2, 3, SWAP),)]):
        plan = make_plan(g, stages)
        assert plan_to_json(plan) == _dumped(plan)
        for provenance in ({}, {"built_by": "test"}, after):
            for certificate in (None, {}, {"claimed_bound": 9,
                                           "achieved_depth": 3, **after}):
                net = make_network(g, (1, 2, 3), stages, provenance=provenance,
                                   certificate=certificate)
                assert network_to_json(net) == _dumped(net)


def test_the_writers_take_every_kind_the_kernel_keeps():
    # a str subclass equal to "dir" or "swap", numpy's str_ say, passes
    # make_network and make_plan, and json.dumps writes it as a str
    g = path_graph(3)
    for obj in (make_network(g, (1, 2, 3), [[(2, 3, np.str_(DIR))]]),
                make_plan(g, [[(1, 2, np.str_(SWAP))], [(2, 3, SWAP)]])):
        text = _written(obj)
        assert text == _dumped(obj)
        assert (plan_from_json if isinstance(obj, RoutingPlan)
                else network_from_json)(text) == obj


@pytest.mark.parametrize("cmp, net_error, plan_error", [
    ([2, 1, SWAP], None,
     "stored plan permutation disagrees with simulation"),
    ((True, 2, DIR), _STAGE_REFUSAL, _STAGE_REFUSAL),
    ((1.0, 2, SWAP), _STAGE_REFUSAL, _STAGE_REFUSAL),
    ((1, 2, 'di"r\u00e9'), _STAGE_REFUSAL, _STAGE_REFUSAL),
    ((-1, 2, SWAP), _STAGE_REFUSAL, _STAGE_REFUSAL)])
def test_the_writers_refuse_hand_built_stages(cmp, net_error, plan_error):
    # stages no builder makes: the writers refuse all but a canonical
    # triple with a bad id, and the readers refuse json.dumps of such a
    # document, but for a list comparator
    g = path_graph(3)
    swap = (2, 3, SWAP)  # one object in two stages of each
    # (1, 2, DIR) equals (True, 2, DIR) and (1, 2, SWAP) equals (1.0, 2, ...)
    net = SortingNetwork(g, (1, 2, 3), (((1, 2, DIR),), (cmp,), (), (swap,),
                                        (swap,)))
    plan = RoutingPlan(g, (((1, 2, SWAP),), (swap,), (cmp,), (swap,)),
                       (1, 2, 3))
    for obj, read, error in ((net, network_from_json, net_error),
                             (plan, plan_from_json, plan_error)):
        text = _dumped(obj)
        if cmp == (-1, 2, SWAP):
            assert _written(obj) == text
        else:
            with pytest.raises(StructureError,
                               match="^cannot write a malformed stage: "):
                _written(obj)
        if error is None:
            assert read(text).stages[1] == ((1, 2, SWAP),)
        else:
            with pytest.raises(StructureError) as e:
                read(text)
            assert str(e.value) == error


def test_the_writers_refuse_a_stage_list_of_other_values():
    # a stage that is not a tuple is refused, even a list of canonical
    # comparators, whose json.dumps text reads back
    g = path_graph(3)
    for stages in (["ab", ((1, 2, DIR),)], [{"x": [1]}], [((1, 2, SWAP),), 7],
                   [[(1, 2, SWAP)]]):
        for obj, read in (
                (SortingNetwork(g, (1, 2, 3), tuple(stages)),
                 network_from_json),
                (RoutingPlan(g, tuple(stages), (2, 1, 3)), plan_from_json)):
            with pytest.raises(StructureError,
                               match="^cannot write a malformed stage: "):
                _written(obj)
            if stages == [[(1, 2, SWAP)]]:
                assert read(_dumped(obj)).stages == (((1, 2, SWAP),),)
            else:
                with pytest.raises(StructureError) as e:
                    read(_dumped(obj))
                assert str(e.value) == _STAGE_REFUSAL


# ---------------------------------------------------------------------------
# the readers against a reference built from the document rules alone


_TOP_KEYS = {"certificate", "graph", "order", "plan", "provenance", "stages",
             "version"}


def _reference_read(text, plan: bool):
    """network_from_json, or plan_from_json when plan, as the rules read:
    json.loads, the version, head and stage-shape rules, make_network or
    make_plan with the builders' errors raised as StructureError, then the
    checks of the whole document."""
    try:
        doc = json.loads(text)
    except ValueError as e:
        raise StructureError(f"bad network JSON: {e}") from e
    except RecursionError:
        raise StructureError("bad network JSON: nested too deeply") from None
    if type(doc) is not dict or doc.get("version") != 1 \
            or type(doc["version"]) is not int:
        raise StructureError("unsupported network JSON version")
    for key in ("graph", "order", "stages"):
        if key not in doc:
            raise StructureError(f"network JSON missing {key!r}")
    if type(doc["order"]) is not list \
            or any(type(r) is not int for r in doc["order"]):
        raise StructureError("network JSON order must be a list of integers")
    if set(doc) - _TOP_KEYS:
        raise StructureError("network JSON has an unknown top-level key "
                             f"{sorted(set(doc) - _TOP_KEYS)[0]!r}")
    # ids are read below 2^31; a smaller one past n is no edge of the host
    if type(doc["stages"]) is not list or not all(
            type(s) is dict and list(s) == ["cmp"] and type(s["cmp"]) is list
            and all(type(c) is list and len(c) == 3 and c[2] in (DIR, SWAP)
                    and all(type(i) is int and 0 <= i < 2 ** 31
                            for i in c[:2])
                    for c in s["cmp"]) for s in doc["stages"]):
        raise StructureError(_STAGE_REFUSAL)
    g = graph_from_doc(doc["graph"])
    if doc["graph"].get("order") is not None:
        raise StructureError("network JSON graph order must be null")
    stages = [[tuple(c) for c in s["cmp"]] for s in doc["stages"]]
    if plan and doc.get("plan") is not True:
        raise StructureError('plan JSON must have "plan": true')
    try:
        obj = make_plan(g, stages) if plan else make_network(
            g, doc["order"], stages, provenance=doc.get("provenance"),
            certificate=doc.get("certificate"))
    except (ConstructionError, TaskError) as e:
        raise StructureError(str(e)) from e
    if plan:
        for key in ("provenance", "certificate"):
            if key in doc:
                raise StructureError(f"plan JSON must not carry {key!r}: "
                                     "it is a network's key")
        if tuple(doc["order"]) != obj.realized:
            raise StructureError("stored plan permutation disagrees with "
                                 "simulation")
        return obj
    if "plan" in doc:
        raise StructureError('network JSON must not carry "plan": it is a '
                             'routing plan (read it as one)')
    cert = obj.certificate
    if cert is not None and not (
            type(cert) is dict and type(cert.get("achieved_depth")) is int
            and type(cert.get("claimed_bound")) is int
            and cert["claimed_bound"] >= max(cert["achieved_depth"],
                                             obj.depth)):
        raise StructureError(
            "network JSON certificate must have integer achieved_depth and "
            f"claimed_bound, the bound no lower than it or {obj.depth} stages")
    return obj


def _read_result(read, *args):
    """_outcome of a read, a network with its provenance and certificate."""
    got = _outcome(read, *args)
    return ("ok", (got[1], got[1].provenance, got[1].certificate)) \
        if got[0] == "ok" and isinstance(got[1], SortingNetwork) else got


def _agrees(text) -> bool:
    """Each reader gives what the reference gives: an equal result, or a
    refusal of the same type and text, StructureError, or CapError on a
    graph past the generator cap.  True when the canonical path took the
    text."""
    for read, plan in ((network_from_json, False), (plan_from_json, True)):
        got = _read_result(read, text)
        assert got[0] in ("ok", StructureError, CapError)
        assert got == _read_result(_reference_read, text, plan)
    return _outcome(network._read_canonical, text) != ("ok", None)


def _indented(text: str) -> str:
    return json.dumps(json.loads(text), indent=1)


def test_the_readers_agree_with_the_reference_on_the_corpus():
    paths = sorted((Path(__file__).parent / "corpus").glob("*.json"))
    taken = [p.name for p in paths if _agrees(p.read_text(encoding="utf-8"))]
    # the corpus files end in a newline, which the canonical path allows
    assert {"zero_vertex.json", "non_edge.json", "plan_document.json",
            "family_label_mismatch.json"} <= set(taken)
    assert not {"leading_zero_vertex.json", "non_ascii_kind.json",
                "bool_vertex.json", "huge_vertex.json", "version_2.json",
                "version_true.json", "stage_extra_key.json",
                "unknown_top_level_key.json"} & set(taken)
    # re-indented, every file that loads reads as it does compact
    loadable = 0
    for p in paths:
        text = p.read_text(encoding="utf-8")
        try:
            indented = _indented(text)
        except (ValueError, RecursionError):
            continue
        loadable += 1
        assert not _agrees(indented)
        for read in (network_from_json, plan_from_json):
            assert _outcome(read, indented) == _outcome(read, text)
    assert loadable > 30


def test_the_readers_agree_with_the_reference_on_the_golden_networks_and_plans(
        tmp_path):
    from test_golden import BUILDS, ROUTES, _cli_out, _host
    texts = [_cli_out(["build", "--construction", c, "--graph", spec],
                      tmp_path) for c, spec in BUILDS]
    for spec in ROUTES:
        g = _host(spec)
        pi = list(range(1, g.n + 1))
        random.Random(spec).shuffle(pi)
        texts.append(plan_to_json(route_auto(g, tuple(pi))))
    for text in texts:
        assert _agrees(text)
        assert _agrees(text + "\n")
        for other in (json.dumps(json.loads(text)), _indented(text)):
            assert not _agrees(other)


@pytest.mark.parametrize("text", [
    '{,"stages":[],"version":1}', '{,"stages":[{"cmp":[]}],"version":1}',
    '{"stages":[],"version":1}', '{"x":1,"stages":[],"version":1}',
    '{"graph":{"n":2,"edges":[[1,2]]},"order":[1,2],"stages":[{"cmp":'
    '[[1,2,"dir"]]}],"version":1}  \n\t\r',
    '{"graph":{"n":2,"edges":[[1,2]]},"order":[1,2],"stages":[{"cmp":'
    '[[2147483647,2,"dir"]]}],"version":1}',
    '{"graph":{"n":2,"edges":[[1,2]]},"order":[1,2],"stages":[{"cmp":'
    '[[2147483648,2,"dir"]]}],"version":1}',
    '{"graph":{"n":2,"edges":[[1,2]]},"order":[1,2],"stages":["s",{"cmp":'
    '[[1,2,"dir"]]}],"version":1}',
    '{"graph":{"n":2,"edges":[[1,2]]},"order":[1,2],"stages":[{"cmp":'
    '[[1,2,"dir"]]}],"version":1}\u3000'])
def test_the_readers_agree_with_the_reference_on_edge_texts(text):
    _agrees(text)


def test_a_canonical_document_is_parsed_only_up_to_its_stages(monkeypatch):
    seen, real_loads = [], json.loads
    monkeypatch.setattr(json, "loads",
                        lambda text: seen.append(text) or real_loads(text))
    g = generate("mesh:3,3")
    plan = route_auto(g, random.Random(3).sample(range(1, 10), 9))
    net = make_network(g, (1,) + tuple(range(2, 10)), plan.stages,
                       provenance={"built_by": "test"})
    for obj, read in ((plan, plan_from_json), (net, network_from_json)):
        seen.clear()
        text = _written(obj)
        assert read(text) == obj
        assert seen == [text[:text.rindex(',"stages":[')] + "}"]


def test_a_read_network_holds_one_object_per_distinct_stage():
    net = cons.contour_tree_sort(random_tree(64, 1))
    text = network_to_json(net)
    for text in (text, _indented(text)):  # pretty-printed too
        back = network_from_json(text)
        assert back == net and back.stages == net.stages
        assert len(set(map(id, back.stages))) == len(set(back.stages)) \
            < back.depth


# single edits of canonical documents; each token is spliced in somewhere
_EDIT_TOKENS = [" ", "\n", "\t", "0", "01", "-", "-0", "-1", "1.0", "1e0",
                "true", "null", '"swap"', '"dir"', "é", "9223372036854775808",
                "18446744073709551616", "2147483648", "2147483647", ",", "[",
                "]", "{", "}", '"x":1,', '{"cmp":[]}', '"stages":[],',
                '"stages":7,', '"version":1,', '"version":2,', '"cmp":[],']
_ID_EDITS = ["0{}", "-{}", "-0", "{}.0", "{}e0", "true", "0", "1",
             "9223372036854775808", "18446744073709551616", "2147483648",
             "2147483647"]
_VERSION_EDITS = ["true", "1.0", "1e0", "2", "0", "-1", "null", '"1"', "[1]"]
_KIND_EDITS = ['"swap"', '"dir"', '"d\\u0069r"', '"dïr"', '"sw"', '"s"',
               '"swap "', '"dird"', "null"]
_EDIT_DOCS = [_written(obj) for obj in (
    _ROUND_TRIP_PLANS[2], _ROUND_TRIP_NETS[1],
    make_network(path_graph(3), (1, 2, 3), [[], [(1, 2, DIR)], [],
                                            [(2, 1, DIR)]]),
    make_plan(path_graph(4), [[(1, 2, SWAP), (3, 4, SWAP)], [(2, 3, SWAP)],
                              [(1, 2, SWAP), (3, 4, SWAP)]]))]


@st.composite
def _edited_docs(draw):
    """A canonical document with one edit: an id, a kind or the version
    rewritten, a key put into a stage object or into the head, the stages
    or one stage's comparators emptied, or a token inserted at, or a
    character deleted from, any place."""
    text = draw(st.sampled_from(_EDIT_DOCS))
    body = text.rindex(',"stages":[')

    def spans(pattern):  # its matches in the stage body
        return [m.span() for m in re.compile(pattern).finditer(text, body)]

    def splice(choices, tokens):  # "{}" in a token is the text it replaces
        start, end = draw(st.sampled_from(choices))
        token = draw(st.sampled_from(tokens)).replace("{}", text[start:end])
        return text[:start] + token + text[end:]

    how = draw(st.sampled_from(["id", "kind", "version", "stage", "head",
                                "empty", "empty cmp", "insert", "delete"]))
    if how == "version":  # the text ends in "version":1}
        return splice([(len(text) - 2, len(text) - 1)], _VERSION_EDITS)
    if how == "id":
        return splice(spans(r"\d+"), _ID_EDITS)
    if how == "kind":
        return splice(spans(r'"(swap|dir)"'), _KIND_EDITS)
    if how == "stage":
        return splice([(e, e) for _, e in spans(r"\{")],
                      ['"x":1,', '"cmp":[],', '"cmp":[[1,2,"dir"]],'])
    if how == "head":
        key = draw(st.sampled_from(['"stages":[]', '"stages":7',
                                    '"stages":[{"cmp":[]}]', '"version":1',
                                    '"version":2']))
        return draw(st.sampled_from([text[:1] + key + "," + text[1:],
                                     text[:body] + "," + key + text[body:]]))
    if how == "empty":
        return text[:body] + ',"stages":[],"version":1}'
    if how == "empty cmp":
        return splice(spans(r'"cmp":\[(\[[^\]]*\],?)*\]'), ['"cmp":[]'])
    at = draw(st.integers(0, len(text) - 1))
    if how == "delete":
        return text[:at] + text[at + 1:]
    return text[:at] + draw(st.sampled_from(_EDIT_TOKENS)) + text[at:]


@settings(max_examples=600, deadline=None)
@given(_edited_docs())
def test_the_readers_agree_with_the_reference_on_edited_documents(text):
    _agrees(text)
    try:
        indented = _indented(text)
    except ValueError:
        return
    _agrees(indented)
