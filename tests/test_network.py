import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from matchnet.errors import ConstructionError, StructureError, TaskError
from matchnet.graphs import complete_graph, path_graph, random_tree
from matchnet.network import (DIR, SWAP, concatenate, execute, is_sorted_for,
                              make_network, make_plan, make_stage,
                              network_from_json, network_to_json,
                              plan_from_json, plan_realized, plan_to_json)
from matchnet.verify import all_matchings


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


def test_execute_needs_matching_length():
    net = make_network(path_graph(3), (1, 2, 3), [])
    with pytest.raises(TaskError):
        execute(net, [1, 2])
