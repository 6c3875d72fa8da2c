import numpy as np
import pytest
from hypothesis import given, strategies as st

from matchnet.errors import TaskError
from matchnet.graphs import generate
from matchnet.network import make_network
from matchnet.perms import (all_permutations, check_permutation, compose,
                            cycles, identity, inverse, random_permutation)
from matchnet.routing import route_auto
from matchnet.verify import exact_rt

perm_strategy = st.integers(1, 30).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))))


def test_identity():
    assert identity(1) == (1,)
    assert identity(4) == (1, 2, 3, 4)


def test_check_permutation_rejects():
    with pytest.raises(TaskError):
        check_permutation((1, 1, 3), 3)
    with pytest.raises(TaskError):
        check_permutation((1, 2), 3)
    with pytest.raises(TaskError):
        check_permutation((0, 1, 2), 3)


_NOT_INTS = [(1.0, 2.0), (True, 2), (np.int64(1), 2), (2.0, 1.0, 3.0),
             (1, 2, True), (3, np.int32(1), 2), ("1", 2, 3)]


@pytest.mark.parametrize("p", _NOT_INTS, ids=repr)
def test_check_permutation_wants_plain_ints(p):
    # 1.0, True and np.int64(1) sort and compare equal to 1, but the
    # readers refuse them in a written order and the kernels index by them
    n = len(p)
    message = f"not a permutation of 1..{n}"
    with pytest.raises(TaskError, match=message):
        check_permutation(p, n)
    for spec in (f"path:{n}", f"complete:{n}"):
        g = generate(spec)
        with pytest.raises(TaskError, match=message):
            make_network(g, p, [])
        with pytest.raises(TaskError, match=message):
            route_auto(g, p)
        with pytest.raises(TaskError, match=message):
            exact_rt(g, p)


@given(perm_strategy)
def test_inverse_roundtrip(p):
    p = tuple(p)
    n = len(p)
    assert compose(p, inverse(p)) == identity(n)
    assert compose(inverse(p), p) == identity(n)
    assert inverse(inverse(p)) == p


def test_compose_applies_right_first():
    # p1 sends 1->2, then p2 sends 2->3: composite sends 1->3
    p1 = (2, 1, 3)
    p2 = (1, 3, 2)
    assert compose(p2, p1)[0] == 3


@given(perm_strategy)
def test_cycles_partition(p):
    p = tuple(p)
    seen = sorted(v for c in cycles(p) for v in c)
    moved = [v for v in range(1, len(p) + 1) if p[v - 1] != v]
    assert seen == moved  # fixed points omitted
    for c in cycles(p):
        assert c[0] == min(c)
        for i, v in enumerate(c):
            assert p[v - 1] == c[(i + 1) % len(c)]


def test_all_permutations_count():
    assert len(list(all_permutations(4))) == 24


def test_random_permutation_deterministic():
    import random
    a = random_permutation(12, random.Random(7))
    b = random_permutation(12, random.Random(7))
    assert a == b
    check_permutation(a, 12)
